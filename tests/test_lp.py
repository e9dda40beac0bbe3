"""LP oracle: distances, exact simplex, duality certificates, slackness."""

from __future__ import annotations

from fractions import Fraction

import pytest

from treeot import (FiniteGraph, InfeasiblePotential, MassMismatch, Measure, Potential,
                    TooLarge, TransportPlan, assignment_from,
                    check_complementary_slackness, good_potential,
                    unique_flow, verify_duality, w1_lp, w1_tree)
from treeot.instances import demo_instance, instance_from_dict
from treeot.tree import _hop_distances

from conftest import random_measure_pair, random_tree, rng_for


class TestDistances:
    def test_single_edge(self):
        g = FiniteGraph.build([0, 1], [(0, 1)])
        assert g.distance(0, 1) == 1

    def test_path(self):
        g = FiniteGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.distance(0, 2) == 2

    def test_truncated_three_regular_ball(self):
        # Radius-2 piece of the 3-regular tree: the 6 outer vertices all sit
        # at distance exactly 2 from the center.
        from treeot import build_truncated_tree
        tt = build_truncated_tree(2, 1, 2)
        g = FiniteGraph.from_tree(tt.tree)
        leaves = [v for v in range(g.num_vertices) if g.distance(tt.x, v) == 2]
        assert len(leaves) == 6

    def test_disconnected_raises(self):
        from treeot import NotConnected
        with pytest.raises(NotConnected):
            FiniteGraph.build([0, 1], [])

    def test_self_loop_is_a_cycle(self):
        from treeot import HasCycle
        with pytest.raises(HasCycle):
            FiniteGraph.build(range(3), [(0, 1), (1, 1), (1, 2)])

    def test_rows_match_tree_bfs_on_random_trees(self):
        rng = rng_for(31)
        for _ in range(20):
            n = rng.randint(2, 40)
            tree = random_tree(rng, n)
            for g in (FiniteGraph.from_tree(tree),
                      FiniteGraph.build(tree.labels,
                                        [(tree.labels[u], tree.labels[v]) for u, v in tree.edges])):
                for u in range(n):
                    assert [g.distance(u, v) for v in range(n)] == _hop_distances(tree.adjacency, u)

    def test_rows_on_the_four_cycle(self):
        g = FiniteGraph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        for u in range(4):
            assert [g.distance(u, v) for v in range(4)] == [min((v - u) % 4, (u - v) % 4)
                                                            for v in range(4)]

    def test_matrix_symmetric_zero_diagonal(self):
        g = FiniteGraph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        for u in range(4):
            assert g.distance(u, u) == 0
            for v in range(4):
                assert g.distance(u, v) == g.distance(v, u)


class TestW1LP:
    def test_identical_measures_cost_zero(self):
        g = FiniteGraph.build(range(3), [(0, 1), (1, 2)])
        mu = Measure({0: Fraction(1, 2), 2: Fraction(1, 2)})
        value, plan = w1_lp(g, mu, mu)
        assert value == 0
        assert set(plan.entries) <= {(0, 0), (2, 2)}

    def test_point_masses(self):
        g = FiniteGraph.build(range(4), [(0, 1), (1, 2), (2, 3)])
        value, plan = w1_lp(g, Measure({0: 1}), Measure({3: 1}))
        assert value == 3
        assert plan.entries == {(0, 3): Fraction(1)}

    def test_demo_instance(self):
        tree, mu, nu = instance_from_dict(demo_instance())
        value, plan = w1_lp(FiniteGraph.from_tree(tree), mu, nu)
        assert value == 12
        assert plan.satisfies_marginals(mu, nu)

    def test_works_on_cyclic_graphs(self):
        # 4-cycle: two opposite point masses are 2 apart.
        g = FiniteGraph.build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        value, _ = w1_lp(g, Measure({0: 1}), Measure({2: 1}))
        assert value == 2

    def test_mass_mismatch(self):
        g = FiniteGraph.build(range(2), [(0, 1)])
        with pytest.raises(MassMismatch):
            w1_lp(g, Measure({0: 1}), Measure({1: 2}))

    def test_too_large_rejected(self):
        n = 45
        g = FiniteGraph.build(range(n), [(i, i + 1) for i in range(n - 1)])
        mu = Measure({v: 1 for v in range(41)})
        nu = Measure({v: Fraction(41, n) for v in range(n)})
        with pytest.raises(TooLarge):
            w1_lp(g, mu, nu)

    def test_cap_refuses_before_totals_are_compared(self):
        n = 45
        g = FiniteGraph.build(range(n), [(i, i + 1) for i in range(n - 1)])
        mu = Measure({v: 1 for v in range(41)})
        nu = Measure({v: 1 for v in range(n)})
        with pytest.raises(TooLarge):
            w1_lp(g, mu, nu)

    def test_empty_measures(self):
        g = FiniteGraph.build(range(2), [(0, 1)])
        value, plan = w1_lp(g, Measure({}), Measure({}))
        assert value == 0 and plan.entries == {}


class TestDualSide:
    def test_constant_potential_feasible(self):
        g = FiniteGraph.build(range(3), [(0, 1), (1, 2)])
        assert Potential((Fraction(1),) * 3).is_edge_lipschitz(g)

    def test_jump_of_two_infeasible(self):
        g = FiniteGraph.build(range(2), [(0, 1)])
        assert not Potential((Fraction(0), Fraction(2))).is_edge_lipschitz(g)

    def test_demo_potential_feasible_and_optimal(self):
        tree, mu, nu = instance_from_dict(demo_instance())
        g = FiniteGraph.from_tree(tree)
        rho = assignment_from(mu, nu)
        levels = good_potential(tree, unique_flow(tree, rho)).values
        phi = Potential(tuple(h - levels[tree.index["v4"]] for h in levels))
        assert phi.is_edge_lipschitz(g)
        report = verify_duality(g, mu, nu, phi)
        assert report.primal == report.dual == 12
        assert report.optimal_certificate

    def test_infeasible_potential_raises(self):
        g = FiniteGraph.build(range(2), [(0, 1)])
        with pytest.raises(InfeasiblePotential):
            verify_duality(g, Measure({0: 1}), Measure({1: 1}),
                           Potential((Fraction(0), Fraction(5))))

    def test_slackness_on_diagonal_plan(self):
        g = FiniteGraph.build(range(3), [(0, 1), (1, 2)])
        plan = TransportPlan({(0, 0): Fraction(1)})
        assert check_complementary_slackness(g, plan, Potential((Fraction(0),) * 3))

    def test_slackness_fails_on_short_moves(self):
        g = FiniteGraph.build(range(3), [(0, 1), (1, 2)])
        plan = TransportPlan({(0, 2): Fraction(1)})
        assert not check_complementary_slackness(g, plan, Potential((Fraction(0),) * 3))


class TestRandomizedAgreement:
    def test_tree_and_lp_agree_with_certificates(self):
        rng = rng_for(2024)
        for _ in range(60):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            g = FiniteGraph.from_tree(tree)
            lp_value, plan = w1_lp(g, mu, nu)
            assert lp_value == w1_tree(tree, mu, nu)
            assert plan.satisfies_marginals(mu, nu)
            phi = good_potential(tree, unique_flow(tree, assignment_from(mu, nu)))
            report = verify_duality(g, mu, nu, phi)
            assert report.optimal_certificate
            assert check_complementary_slackness(g, report.plan, phi)

    def test_weak_duality_random_plans_and_potentials(self):
        rng = rng_for(99)
        for _ in range(25):
            n = rng.randint(2, 9)
            tree = random_tree(rng, n)
            g = FiniteGraph.from_tree(tree)
            mu, nu = random_measure_pair(rng, n)
            # Independent coupling: a feasible plan that is rarely optimal.
            total = mu.total()
            plan = TransportPlan({(u, v): mu.value(u) * nu.value(v) / total
                                  for u in mu.support() for v in nu.support()})
            assert plan.satisfies_marginals(mu, nu)
            # Random 1-Lipschitz potential via distance extension of anchors.
            anchors = {v: Fraction(rng.randint(-3, 3)) for v in rng.sample(range(n), 2)}
            phi = Potential(tuple(min(base + g.distance(a, v) for a, base in anchors.items())
                                  for v in range(n)))
            assert phi.is_edge_lipschitz(g)
            dual = sum(((mu.value(v) - nu.value(v)) * phi.value(v) for v in range(n)),
                       Fraction(0))
            assert plan.cost(g) >= dual
