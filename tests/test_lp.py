"""LP oracle: distances, exact simplex, duality certificates, slackness."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest

from treeot import (FiniteGraph, InfeasiblePotential, MassMismatch, Measure, Potential,
                    TooLarge, TransportPlan, assignment_from,
                    check_complementary_slackness, good_potential,
                    unique_flow, verify_duality, w1_lp, w1_tree)
from treeot.instances import instance_from_dict
from treeot.lp import _transportation_simplex
from treeot.tree import _hop_distances

from conftest import demo_doc, random_measure_pair, random_tree, rng_for, run_python


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

    def test_unreached_vertices_read_minus_one(self):
        adjacency = [[1], [0, 2], [1], [4], [3], []]
        assert _hop_distances(adjacency, 0) == [0, 1, 2, -1, -1, -1]
        assert _hop_distances(adjacency, 4) == [-1, -1, -1, 1, 0, -1]
        assert _hop_distances(adjacency, 5) == [-1, -1, -1, -1, -1, 0]

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
        tree, mu, nu = instance_from_dict(demo_doc())
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

    def test_scales_merge_over_their_lcm(self):
        # Sixths against tenths: the simplex runs over L = 30, which is neither scale.
        g = FiniteGraph.build(range(4), [(0, 1), (1, 2), (2, 3)])
        mu = Measure({0: Fraction(1, 6), 1: Fraction(5, 6)})
        nu = Measure({2: Fraction(3, 10), 3: Fraction(7, 10)})
        assert (mu.scale, nu.scale) == (6, 10)
        value, plan = w1_lp(g, mu, nu)
        # On a path, W1 sums the CDF gaps across the edges: 1/6 + 1 + 7/10.
        assert type(value) is Fraction and value == Fraction(28, 15)
        _, cells = _reference_simplex([[g.distance(u, v) for v in nu.support()]
                                       for u in mu.support()],
                                      [mu.value(u) for u in mu.support()],
                                      [nu.value(v) for v in nu.support()])
        assert plan.entries == {(mu.support()[i], nu.support()[j]): x
                                for (i, j), x in cells.items() if x}
        for x in plan.entries.values():
            assert type(x) is Fraction and gcd(x.numerator, x.denominator) == 1
        assert plan.satisfies_marginals(mu, nu)


class TestDualSide:
    def test_constant_potential_feasible(self):
        g = FiniteGraph.build(range(3), [(0, 1), (1, 2)])
        assert Potential((Fraction(1),) * 3).is_edge_lipschitz(g)

    def test_jump_of_two_infeasible(self):
        g = FiniteGraph.build(range(2), [(0, 1)])
        assert not Potential((Fraction(0), Fraction(2))).is_edge_lipschitz(g)

    def test_demo_potential_feasible_and_optimal(self):
        tree, mu, nu = instance_from_dict(demo_doc())
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


class TestDualOverCommonScale:
    def test_dual_matches_the_per_vertex_fraction_sum(self):
        rng = rng_for(77)
        for _ in range(30):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n)
            g = FiniteGraph.from_tree(tree)
            mu, nu = random_measure_pair(rng, n)
            shift = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            levels = good_potential(tree, unique_flow(tree, assignment_from(mu, nu))).values
            for phi in (Potential(tuple(h + shift for h in levels)), Potential(tuple(levels))):
                dual = sum(((mu.value(v) - nu.value(v)) * phi.value(v)
                            for v in set(mu.support()) | set(nu.support())), Fraction(0))
                report = verify_duality(g, mu, nu, phi)
                assert type(report.dual) is Fraction and report.dual == dual
                assert report.optimal_certificate


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


def _reference_simplex(costs, supply, demand):
    """The transportation simplex as it ran over Fractions, rebuilding the
    basis tree by BFS for the duals and again for each cycle: the oracle for
    the integer, incremental one."""
    m, n = len(supply), len(demand)
    alloc = {}
    basis = set()
    ra = list(supply)
    cb = list(demand)
    i = j = 0
    while True:
        x = min(ra[i], cb[j])
        alloc[(i, j)] = x
        basis.add((i, j))
        ra[i] -= x
        cb[j] -= x
        if i == m - 1 and j == n - 1:
            break
        if ra[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    max_pivots = 50 * (m + n + 1) ** 2
    for _ in range(max_pivots):
        u, v = _reference_duals(costs, basis, m, n)
        entering = None
        for ii in range(m):
            for jj in range(n):
                if (ii, jj) not in basis and costs[ii][jj] - u[ii] - v[jj] < 0:
                    entering = (ii, jj)
                    break
            if entering:
                break
        if entering is None:
            value = sum((costs[ii][jj] * x for (ii, jj), x in alloc.items()), Fraction(0))
            return value, alloc

        path = _reference_basis_path(basis, entering, m, n)
        minus = path[0::2]
        plus = path[1::2]
        theta = min(alloc[c] for c in minus)
        leaving = min(c for c in minus if alloc[c] == theta)
        for c in minus:
            alloc[c] -= theta
        for c in plus:
            alloc[c] += theta
        alloc[entering] = theta
        basis.add(entering)
        basis.discard(leaving)
        del alloc[leaving]
    raise RuntimeError("transportation simplex failed to terminate")


def _reference_bfs(adjacency, root):
    """Vertices reachable from ``root`` in BFS order, plus the parent of each
    vertex: -1 at the root and -2 where unreached."""
    parent = [-2] * len(adjacency)
    parent[root] = -1
    order = [root]
    for u in order:  # the loop also visits the vertices it appends
        for w in adjacency[u]:
            if parent[w] == -2:
                parent[w] = u
                order.append(w)
    return order, parent


def _reference_basis_tree(basis, m, n):
    adjacency = [[] for _ in range(m + n)]
    for i, j in basis:
        adjacency[i].append(m + j)
        adjacency[m + j].append(i)
    return adjacency


def _reference_duals(costs, basis, m, n):
    order, parent = _reference_bfs(_reference_basis_tree(basis, m, n), 0)
    price = [0] * (m + n)
    for node in order[1:]:
        p = parent[node]
        if node >= m:
            price[node] = costs[p][node - m] - price[p]
        else:
            price[node] = costs[node][p - m] - price[p]
    return price[:m], price[m:]


def _reference_basis_path(basis, entering, m, n):
    i0, j0 = entering
    _, parent = _reference_bfs(_reference_basis_tree(basis, m, n), i0)
    cells = []
    node = m + j0
    while node != i0:
        p = parent[node]
        cells.append((p, node - m) if node >= m else (node, p - m))
        node = p
    return cells[::-1]


def _split(rng, total, parts, zeros=False):
    """``parts`` integers summing to ``total``: positive, or some zero."""
    low = 0 if zeros else 1
    cuts = sorted(rng.randint(0, total - parts * low) for _ in range(parts - 1))
    return [b - a + low for a, b in zip([0, *cuts], [*cuts, total - parts * low])]


class TestSimplexAgainstFractionOracle:
    """The integer simplex makes the pivots of the Fraction one it replaced:
    the same value and the same allocation on every basic cell, zeros included."""

    @staticmethod
    def _agree(costs, supply, demand):
        value, alloc = _transportation_simplex(costs, supply, demand)
        ref_value, ref_alloc = _reference_simplex(costs, [Fraction(x) for x in supply],
                                                  [Fraction(x) for x in demand])
        assert type(value) is int and all(type(x) is int for x in alloc.values())
        assert value == ref_value
        assert alloc == ref_alloc
        assert len(alloc) == len(supply) + len(demand) - 1

    def test_random_cost_matrices(self):
        rng = rng_for(15)
        for k in range(80):
            m, n = (rng.randint(1, 40), rng.randint(1, 40)) if k % 8 == 0 else \
                (rng.randint(1, 12), rng.randint(1, 12))
            top = rng.choice((0, 1, 2, 5, 30))  # top 0: all costs zero; small tops tie often
            costs = [[rng.randint(0, top) for _ in range(n)] for _ in range(m)]
            total = rng.randint(max(m, n), 4 * max(m, n) + 20)
            self._agree(costs, _split(rng, total, m), _split(rng, total, n))

    def test_degenerate_supplies(self):
        rng = rng_for(16)
        for k in range(60):
            m, n = rng.randint(1, 15), rng.randint(1, 15)
            costs = [[rng.randint(0, 4) for _ in range(n)] for _ in range(m)]
            shape = k % 3
            if shape == 0:  # equal splits of a common total
                total = m * n * rng.randint(1, 3)
                supply, demand = [total // m] * m, [total // n] * n
            elif shape == 1:  # zero entries on both sides
                total = rng.randint(1, 3 * (m + n))
                supply, demand = _split(rng, total, m, zeros=True), _split(rng, total, n, zeros=True)
            else:  # single-unit demands
                supply, demand = _split(rng, n, min(m, n)), [1] * n
            self._agree(costs, supply, demand)

    def test_bench_shaped_tree(self):
        rng = rng_for(17)
        tree = random_tree(rng, 2000)
        g = FiniteGraph.from_tree(tree)
        for _ in range(2):
            sides = []
            for _ in range(2):
                chosen = rng.sample(range(2000), 40)
                raw = [Fraction(rng.randint(1, 64), rng.randint(1, 64)) for _ in chosen]
                total = sum(raw, Fraction(0))
                sides.append(Measure({v: x / total for v, x in zip(chosen, raw)}))
            mu, nu = sides
            scale = lcm(mu.scale, nu.scale)
            costs = [[g.distance(u, v) for v in nu.support()] for u in mu.support()]
            self._agree(costs, [mu.num[u] * (scale // mu.scale) for u in mu.support()],
                        [nu.num[v] * (scale // nu.scale) for v in nu.support()])
            assert w1_lp(g, mu, nu)[0] == w1_tree(tree, mu, nu)

    def test_inconsistent_basis_tree_raises_instead_of_hanging(self):
        # With one depth left one too low below the root, the common-ancestor
        # climb once never met; bounded at m + n steps, it raises. A fresh
        # process with a timeout keeps a regression from stalling the suite.
        done = run_python(
            "import random\n"
            "from treeot import lp\n"
            "from treeot.suites import random_measure_pair, random_tree\n"
            "hang = lp._hang\n"
            "def skewed(costs, m, adjacency, parent, depth, price, top):\n"
            "    hang(costs, m, adjacency, parent, depth, price, top)\n"
            "    if top:\n"
            "        depth[top] -= 1\n"
            "lp._hang = skewed\n"
            "rng = random.Random(2024)\n"
            "for _ in range(60):\n"
            "    n = rng.randint(6, 12)\n"
            "    tree = random_tree(rng, n)\n"
            "    mu, nu = random_measure_pair(rng, n)\n"
            "    try:\n"
            "        lp.w1_lp(lp.FiniteGraph.from_tree(tree), mu, nu)\n"
            "    except RuntimeError as exc:\n"
            "        raise SystemExit(str(exc))\n")
        assert done.returncode == 1
        assert done.stderr == "transportation simplex basis tree is inconsistent\n"
