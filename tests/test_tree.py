"""Tree module: validation, unique flow, potentials, and the exact distance."""

from __future__ import annotations

import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeot import (Assignment, FiniteGraph, HasCycle, MassMismatch, Measure, NotConnected,
                    Potential, RadialProfile, Series, TooLarge, Tree, assignment_from, divergence, flow_cost,
                    good_potential, potential_value, unique_flow, validate_tree, w1_lp,
                    w1_tree)
from treeot.instances import instance_from_dict
from treeot.tree import _hop_distances

from conftest import demo_doc, random_measure_pair, random_tree, rng_for


def demo_tree():
    return instance_from_dict(demo_doc())


class TestValidateTree:
    def test_path_on_three_vertices(self):
        tree = validate_tree(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert tree.num_vertices == 3
        assert len(tree.edges) == 2
        assert len(tree.adjacency[tree.index["b"]]) == 2

    def test_triangle_has_cycle(self):
        with pytest.raises(HasCycle):
            validate_tree([0, 1, 2], [(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnected):
            validate_tree([0, 1, 2, 3], [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(HasCycle):
            validate_tree([0, 1], [(0, 0)])

    def test_duplicate_edge_rejected(self):
        from treeot import DuplicateEdge
        with pytest.raises(DuplicateEdge):
            validate_tree([0, 1, 2], [(0, 1), (1, 0)])

    def test_demo_tree_is_valid(self):
        tree, _, _ = demo_tree()
        assert tree.num_vertices == 11
        assert len(tree.edges) == 10

    def test_single_vertex_tree(self):
        tree = validate_tree(["only"], [])
        assert tree.num_vertices == 1
        assert w1_tree(tree, Measure({0: 1}), Measure({0: 1})) == 0

    def test_parent_array_builds_the_validated_tree(self):
        parent = [-1, 0, 0, 1, 1, 2]
        tree = Tree._from_parents(parent)
        checked = validate_tree(range(6), [(p, v) for v, p in enumerate(parent) if v])
        assert (tree.edges, tree.adjacency, tree.parent) == (
            checked.edges, checked.adjacency, checked.parent)
        assert tree.order == (0, 1, 2, 3, 4, 5)
        assert _hop_distances(tree.adjacency, 0) == [0, 1, 1, 2, 2, 2]

    @pytest.mark.parametrize("parent", [
        [-1, 0, 2],       # a parent after its child
        [-1, 1],          # a vertex its own parent
        [-1, 0, -1],      # a second root
        [0, 0],           # no root at vertex 0
        [],
    ])
    def test_parent_array_refuses_any_other_order(self, parent):
        with pytest.raises(ValueError, match="parent array"):
            Tree._from_parents(parent)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            Measure({0: Fraction(-1, 2)})


@pytest.mark.parametrize("value", [0.1, True])
@pytest.mark.parametrize("build", [
    lambda x: Measure({0: x}),
    lambda x: Assignment.of({0: x, 1: -1}),
    lambda x: RadialProfile((x,)),
    lambda x: Series((x,)),
], ids=["Measure", "Assignment", "RadialProfile", "Series"])
def test_constructors_refuse_floats_and_bools(build, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        build(value)


class TestAssignment:
    def test_identical_measures_cancel(self):
        mu = Measure({0: Fraction(1, 2), 1: Fraction(1, 2)})
        rho = assignment_from(mu, mu)
        assert rho.charges == {}

    def test_point_masses(self):
        rho = assignment_from(Measure({0: 1}), Measure({3: 1}))
        assert rho.value(0) == 1 and rho.value(3) == -1

    def test_mass_mismatch(self):
        with pytest.raises(MassMismatch):
            assignment_from(Measure({0: 1}), Measure({1: Fraction(1, 2)}))

    def test_partial_cancellation_drops_the_vertex(self):
        half = Fraction(1, 2)
        rho = assignment_from(Measure({0: half, 1: half}), Measure({0: half, 2: half}))
        assert rho.num == {1: 1, 2: -1} and rho.scale == 2

    def test_public_constructor_checks_the_sum(self):
        with pytest.raises(ValueError, match="sum to zero"):
            Assignment({0: 1, 1: -2}, 3)

    def test_demo_charges(self):
        tree, mu, nu = demo_tree()
        rho = assignment_from(mu, nu)
        expected = {"v1": 1, "v4": -1, "v5": 1, "v6": -2, "v7": -2,
                    "v9": 1, "v10": 1, "v11": 1}
        assert {tree.labels[v]: c for v, c in rho.charges.items()} == expected


class TestUniqueFlow:
    def test_zero_assignment_zero_flow(self):
        tree = validate_tree(range(3), [(0, 1), (1, 2)])
        flow = unique_flow(tree, Assignment.of({}))
        assert {(u, v): flow.signed(u, v) for u, v in tree.edges if flow.signed(u, v)} == {}
        assert flow_cost(flow) == 0

    def test_demo_flow_magnitudes_and_directions(self):
        tree, mu, nu = demo_tree()
        flow = unique_flow(tree, assignment_from(mu, nu))
        by_label = {(tree.labels[u], tree.labels[v]): flow.signed(u, v)
                    for u, v in tree.edges if flow.signed(u, v)}
        # Signed on the (lo, hi) orientation of ``tree.edges``; negative means
        # the flow runs from the higher-indexed vertex to the lower one.
        assert by_label == {
            ("v1", "v3"): 1, ("v3", "v6"): 1, ("v5", "v6"): 1,
            ("v4", "v7"): -1, ("v7", "v8"): -3, ("v8", "v9"): -3,
            ("v9", "v10"): -1, ("v9", "v11"): -1,
        }
        assert flow_cost(flow) == 12

    def test_antisymmetric_accessor(self):
        tree, mu, nu = demo_tree()
        flow = unique_flow(tree, assignment_from(mu, nu))
        for u, v in tree.edges:
            assert flow.signed(u, v) == -flow.signed(v, u)

    def test_divergence_identity_random(self):
        rng = rng_for(4242)
        for _ in range(30):
            n = rng.randint(2, 9)
            tree = random_tree(rng, n)
            charges = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for v in range(n - 1)}
            charges[n - 1] = -sum(charges.values(), Fraction(0))
            rho = Assignment.of(charges)
            flow = unique_flow(tree, rho)
            assert list(divergence(tree, flow)) == [rho.value(v) for v in range(n)]


class TestGoodPotential:
    def test_zero_flow_constant_potential(self):
        tree = validate_tree(range(4), [(0, 1), (1, 2), (2, 3)])
        phi = good_potential(tree, unique_flow(tree, Assignment.of({})))
        assert set(phi.values) == {Fraction(0)}

    def test_demo_potential_reference_values(self):
        tree, mu, nu = demo_tree()
        flow = unique_flow(tree, assignment_from(mu, nu))
        phi = good_potential(tree, flow)
        assert phi.value(0) == 0
        base = phi.value(tree.index["v4"])
        expected = {"v1": 4, "v2": 3, "v3": 3, "v4": 0, "v5": 3, "v6": 2,
                    "v7": 1, "v8": 2, "v9": 3, "v10": 4, "v11": 4}
        assert {label: phi.value(tree.index[label]) - base for label in expected} == expected

    def test_adapted_and_lipschitz_random(self):
        rng = rng_for(777)
        for _ in range(30):
            n = rng.randint(2, 9)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            flow = unique_flow(tree, assignment_from(mu, nu))
            phi = good_potential(tree, flow)
            assert phi.is_edge_lipschitz(tree)
            for u, v in tree.edges:
                s = flow.signed(u, v)
                diff = phi.value(u) - phi.value(v)
                if s > 0:
                    assert diff == 1
                elif s < 0:
                    assert diff == -1
                else:
                    assert diff == 0

    def test_gauge_invariance_of_pairing(self):
        rng = rng_for(909)
        for _ in range(10):
            n = rng.randint(3, 9)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            rho = assignment_from(mu, nu)
            flow = unique_flow(tree, rho)
            levels = good_potential(tree, flow).values
            values = {potential_value(rho, Potential(tuple(h - levels[r] for h in levels)))
                      for r in range(n)}
            assert len(values) == 1


class TestPotentialValue:
    def test_zero_assignment(self):
        tree = validate_tree(range(2), [(0, 1)])
        rho = Assignment.of({})
        phi = good_potential(tree, unique_flow(tree, rho))
        assert potential_value(rho, phi) == 0

    def test_demo_pairing_is_twelve(self):
        tree, mu, nu = demo_tree()
        rho = assignment_from(mu, nu)
        phi = good_potential(tree, unique_flow(tree, rho))
        assert potential_value(rho, phi) == 12

    def test_pairing_equals_flow_cost_random(self):
        rng = rng_for(31337)
        for _ in range(40):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            rho = assignment_from(mu, nu)
            flow = unique_flow(tree, rho)
            assert potential_value(rho, good_potential(tree, flow)) == flow_cost(flow)


class TestW1Tree:
    def test_identical_measures(self):
        tree = validate_tree(range(4), [(0, 1), (1, 2), (1, 3)])
        mu = Measure({0: Fraction(2, 3), 3: Fraction(1, 3)})
        assert w1_tree(tree, mu, mu) == 0

    def test_point_masses_give_distance(self):
        tree = validate_tree(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert w1_tree(tree, Measure({0: 1}), Measure({4: 1})) == 4

    def test_demo_distance(self):
        tree, mu, nu = demo_tree()
        assert w1_tree(tree, mu, nu) == 12

    def test_empty_measures(self):
        tree = validate_tree(range(2), [(0, 1)])
        assert w1_tree(tree, Measure({}), Measure({})) == 0

    def test_symmetry_and_scaling(self):
        rng = rng_for(555)
        for _ in range(20):
            n = rng.randint(2, 9)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            w = w1_tree(tree, mu, nu)
            assert w == w1_tree(tree, nu, mu)
            c = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert w1_tree(tree, mu.scaled(c), nu.scaled(c)) == c * w

    def test_triangle_inequality_and_separation(self):
        rng = rng_for(808)
        for _ in range(20):
            n = rng.randint(2, 8)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            _, tau = random_measure_pair(rng, n)
            tau = tau.scaled(mu.total() / tau.total())
            assert w1_tree(tree, mu, nu) <= w1_tree(tree, mu, tau) + w1_tree(tree, tau, nu)
            assert (w1_tree(tree, mu, nu) == 0) == (mu.masses == nu.masses)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_flow_divergence_property(seed):
    """Divergence of the unique flow reproduces the assignment, always."""
    rng = rng_for(seed)
    n = rng.randint(2, 10)
    tree = random_tree(rng, n)
    charges = {v: Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for v in range(n - 1)}
    charges[n - 1] = -sum(charges.values(), Fraction(0))
    rho = Assignment.of(charges)
    flow = unique_flow(tree, rho)
    assert list(divergence(tree, flow)) == [rho.value(v) for v in range(n)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_flow_cost_equals_potential_pairing_property(seed):
    rng = rng_for(seed)
    n = rng.randint(2, 10)
    tree = random_tree(rng, n)
    mu, nu = random_measure_pair(rng, n)
    rho = assignment_from(mu, nu)
    flow = unique_flow(tree, rho)
    assert flow_cost(flow) == potential_value(rho, good_potential(tree, flow))


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_routes_agree_over_a_product_of_coprime_denominators(seed):
    """Each mass but one balancing mass has its own prime denominator, so L is
    a product of distinct primes, not a small number as in random_measure_pair."""
    rng = rng_for(seed)
    n = rng.randint(2, 10)
    tree = random_tree(rng, n)
    primes = iter(rng.sample(PRIMES, 2 * n))
    mu, nu = ({v: Fraction(rng.randint(1, 9), next(primes))
               for v in rng.sample(range(n), rng.randint(1, n))} for _ in range(2))
    gap = sum(mu.values()) - sum(nu.values())
    light, v = (nu if gap > 0 else mu), rng.randrange(n)
    light[v] = light.get(v, 0) + abs(gap)
    mu, nu = Measure(mu), Measure(nu)
    rho = assignment_from(mu, nu)
    via_flow = w1_tree(tree, mu, nu)
    via_potential = potential_value(rho, good_potential(tree, unique_flow(tree, rho)))
    via_lp, _ = w1_lp(FiniteGraph.from_tree(tree), mu, nu)
    assert via_flow == via_potential == via_lp


#: Fermat numbers 2^(2^i) + 1 are pairwise coprime: their lcm has 2^20 bits.
FERMAT = tuple(2 ** (2 ** i) + 1 for i in range(20))


class TestChargeBudget:
    def test_assignment_refused_before_scaling(self):
        n = 2000
        masses = {v: Fraction(1, FERMAT[v % 20]) for v in range(n)}
        mu = Measure(masses)
        nu = Measure({(v + 1) % n: m for v, m in masses.items()})
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="over 4000 values exceeds the 1073741824-bit"):
            assignment_from(mu, nu)
        assert time.perf_counter() - start < 1.0

    def test_flow_refused_before_allocating(self):
        n = 2000
        tree = validate_tree(range(n), [(i, i + 1) for i in range(n - 1)])
        rho = Assignment({0: 1, n - 1: -1}, math.prod(FERMAT))
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="1048576 bits over 2000 values"):
            unique_flow(tree, rho)
        assert time.perf_counter() - start < 1.0

    def test_scaled_charges_read_back_as_reduced_fractions(self):
        rho = assignment_from(Measure({0: Fraction(1, 6), 1: Fraction(1, 4)}),
                              Measure({2: Fraction(5, 12)}))
        assert rho.scale == 12 and rho.num == {0: 2, 1: 3, 2: -5}
        assert rho.charges == {0: Fraction(1, 6), 1: Fraction(1, 4), 2: Fraction(-5, 12)}
