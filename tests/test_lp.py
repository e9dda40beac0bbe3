"""LP oracle: distances, exact simplex, duality certificates, slackness."""

from __future__ import annotations

import ast
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

import treeot.lp
from treeot.errors import MassMismatch, TooLarge
from treeot.instances import instance_from_dict
from treeot.lp import (FiniteGraph, _transportation_simplex, check_complementary_slackness,
                       satisfies_marginals, verify_duality, w1_lp)
from treeot.tree import (Measure, Tree, _build_graph, _hop_distances, _require_connected,
                         assignment_from, good_potential, is_edge_lipschitz, potential_value,
                         unique_flow, validate_tree, w1_tree)

from conftest import (adjacency_of, demo_doc, edges_of, index_of, random_measure_pair, random_tree,
                      rng_for, run_python)


def _build(vertices, edges, keep=None):
    """The connected graph on ``vertices`` with ``edges``, given by label,
    cycles allowed; its core spans the dense indices in ``keep``, or the
    whole graph."""
    labels, _, dense_edges, adjacency = _build_graph(vertices, edges)
    _require_connected(adjacency)
    ends = [u for u, _ in dense_edges], [v for _, v in dense_edges]
    return FiniteGraph._over(len(labels), ends, range(len(labels)) if keep is None else keep)


class TestDistances:
    def test_single_edge(self):
        g = _build([0, 1], [(0, 1)])
        assert g.distance(0, 1) == 1

    def test_path(self):
        g = _build(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.distance(0, 2) == 2

    def test_truncated_three_regular_ball(self):
        # Radius-2 piece of the 3-regular tree: the 6 outer vertices all sit
        # at distance exactly 2 from the center.
        from treeot.regular import build_truncated_tree
        tt = build_truncated_tree(2, 1, 2)
        g = FiniteGraph.from_tree(tt.tree, range(tt.tree.num_vertices))
        leaves = [v for v in range(g.num_vertices) if g.distance(tt.x, v) == 2]
        assert len(leaves) == 6

    def test_disconnected_raises(self):
        from treeot.errors import NotConnected
        with pytest.raises(NotConnected):
            _build([0, 1], [])

    def test_self_loop_is_a_cycle(self):
        from treeot.errors import HasCycle
        with pytest.raises(HasCycle):
            _build(range(3), [(0, 1), (1, 1), (1, 2)])

    def test_rows_match_tree_bfs_on_random_trees(self):
        rng = rng_for(31)
        for _ in range(20):
            n = rng.randint(2, 40)
            tree = random_tree(rng, n)
            adjacency = adjacency_of(tree)
            for g in (FiniteGraph.from_tree(tree, range(tree.num_vertices)),
                      _build(tree.labels,
                             [(tree.labels[u], tree.labels[v]) for u, v in edges_of(tree)])):
                for u in range(n):
                    assert [g.distance(u, v) for v in range(n)] == _hop_distances(adjacency, u)

    def test_rows_on_the_four_cycle(self):
        g = _build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        for u in range(4):
            assert [g.distance(u, v) for v in range(4)] == [min((v - u) % 4, (u - v) % 4)
                                                            for v in range(4)]

    def test_unreached_vertices_read_minus_one(self):
        adjacency = [[1], [0, 2], [1], [4], [3], []]
        assert _hop_distances(adjacency, 0) == [0, 1, 2, -1, -1, -1]
        assert _hop_distances(adjacency, 4) == [-1, -1, -1, 1, 0, -1]
        assert _hop_distances(adjacency, 5) == [-1, -1, -1, -1, -1, 0]

    def test_matrix_symmetric_zero_diagonal(self):
        g = _build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        for u in range(4):
            assert g.distance(u, u) == 0
            for v in range(4):
                assert g.distance(u, v) == g.distance(v, u)


def _supports(rng, n):
    """Two random supports of 1 to 8 vertices each."""
    return (rng.sample(range(n), rng.randint(1, min(n, 8))),
            rng.sample(range(n), rng.randint(1, min(n, 8))))


def _graph_with_cycles(rng, n):
    """Edges of a random connected graph on ``range(n)``: a random recursive
    tree, a few chords, and pendant paths the peeling removes."""
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(1, 4)):
        a, b = sorted(rng.sample(range(n), 2))
        pairs.add((a, b))
    return sorted(pairs)


class TestCore:
    def test_core_distances_equal_full_rows_on_random_trees(self):
        rng = rng_for(41)
        for _ in range(60):
            n = rng.randint(2, 200)
            tree = random_tree(rng, n)
            mu_at, nu_at = _supports(rng, n)
            support = sorted({*mu_at, *nu_at})
            g = FiniteGraph.from_tree(tree, keep=support)
            adjacency = adjacency_of(tree)
            rows = {u: _hop_distances(adjacency, u) for u in support}
            for u in support:
                for v in support:
                    assert g.distance(u, v) == rows[u][v]
            # In a tree the core is the Steiner tree of the support: every
            # vertex on a shortest path between two support vertices.
            steiner = {w for w in range(n) for a in support for b in support
                       if rows[a][w] + rows[b][w] == rows[a][b]}
            assert set(g._core) == steiner

    def test_core_distances_equal_full_rows_on_graphs_with_cycles(self):
        # Here a peeling fault would lengthen a path rather than cut it, so
        # only a comparison with full rows would show it.
        rng = rng_for(43)
        for _ in range(60):
            n = rng.randint(3, 120)
            edges = _graph_with_cycles(rng, n)
            mu_at, nu_at = _supports(rng, n)
            support = sorted({*mu_at, *nu_at})
            g = _build(range(n), edges, keep=support)
            adjacency = _build_graph(range(n), edges)[3]
            for u in support:
                row = _hop_distances(adjacency, u)
                assert [g.distance(u, v) for v in support] == [row[v] for v in support]

    def test_peeling_keeps_every_vertex_of_a_cycle(self):
        # A 4-cycle with a pendant path 3-4-5: only the path peels.
        g = _build(range(6), [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5)], keep=[0])
        assert set(g._core) == {0, 1, 2, 3}
        assert [g.distance(0, v) for v in range(4)] == [0, 1, 2, 1]

    def test_vertex_outside_the_core_raises(self):
        g = _build(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)], keep=[0, 2])
        assert set(g._core) == {0, 1, 2} and g.distance(0, 2) == 2
        with pytest.raises(ValueError, match="vertex 4 is outside the graph's core"):
            g.distance(0, 4)
        with pytest.raises(ValueError, match="vertex 3 is outside the graph's core"):
            g.distance(3, 0)
        with pytest.raises(ValueError, match="vertex 4 is outside the graph's core"):
            w1_lp(g, Measure({0: 1}), Measure({4: 1}))

    def test_kept_vertex_outside_the_graph_raises(self):
        with pytest.raises(ValueError, match="kept vertex 5 is outside the graph"):
            _build(range(3), [(0, 1), (1, 2)], keep=[0, 5])

    def test_nothing_kept_leaves_an_empty_core(self):
        tree = random_tree(rng_for(5), 9)
        g = FiniteGraph.from_tree(tree, keep=())
        assert g._core == {} and g.num_vertices == 9
        assert w1_lp(g, Measure({}), Measure({})) == (0, {})

    def test_a_dropped_needed_vertex_raises_instead_of_reading_a_distance(self, monkeypatch):
        import treeot.lp
        peel = treeot.lp._peel

        def faulty(ids, us, vs, kept):
            peeled, parent = peel(ids, us, vs, kept)
            parent[2] = 1  # vertex 2 lies between the kept 0 and 4, yet is dropped
            return peeled + [2], parent

        monkeypatch.setattr(treeot.lp, "_peel", faulty)
        tree = validate_tree(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        g = FiniteGraph.from_tree(tree, keep=[0, 4])
        assert set(g._core) == {0, 1, 3, 4}
        assert g.distance(0, 1) == 1
        with pytest.raises(RuntimeError, match="vertex 4 is unreached from vertex 0"):
            g.distance(0, 4)
        with pytest.raises(RuntimeError, match="unreached"):
            w1_lp(g, Measure({0: 1}), Measure({4: 1}))

    def test_a_peeling_that_empties_a_kept_component_raises(self, monkeypatch):
        import treeot.lp
        monkeypatch.setattr(treeot.lp, "_peel", lambda *args: None)
        with pytest.raises(RuntimeError, match="emptied a component"):
            _build(range(3), [(0, 1), (1, 2)], keep=[0])

    def test_core_reads_neither_the_rooting_nor_the_edge_pairs(self):
        rng = rng_for(47)
        for _ in range(10):
            n = rng.randint(2, 60)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            expected = w1_tree(tree, mu, nu)
            unrooted = Tree(tree.labels, order=None, parent=None, _ends=tree._ends)
            g = FiniteGraph.from_tree(unrooted, keep=mu.num.keys() | nu.num.keys())
            if max(len(mu), len(nu)) <= 40:
                assert w1_lp(g, mu, nu)[0] == expected

    def test_duality_cell_builds_no_edge_pairs(self):
        from treeot.duality import duality_cell
        rng = rng_for(53)
        tree = random_tree(rng, 30)
        mu, nu = random_measure_pair(rng, 30)
        _, _, ok = duality_cell(tree, mu, nu)
        assert ok


class TestW1LP:
    def test_a_mass_outside_the_graph_refused(self):
        g = _build(range(3), [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="^measure references vertex 3 outside the graph$"):
            w1_lp(g, Measure({0: 1}), Measure({3: 1}))

    def test_identical_measures_cost_zero(self):
        g = _build(range(3), [(0, 1), (1, 2)])
        mu = Measure({0: Fraction(1, 2), 2: Fraction(1, 2)})
        value, plan = w1_lp(g, mu, mu)
        assert value == 0
        assert set(plan) <= {(0, 0), (2, 2)}

    def test_point_masses(self):
        g = _build(range(4), [(0, 1), (1, 2), (2, 3)])
        value, plan = w1_lp(g, Measure({0: 1}), Measure({3: 1}))
        assert value == 3
        assert plan == {(0, 3): Fraction(1)}

    def test_demo_instance(self):
        tree, mu, nu = instance_from_dict(demo_doc())
        value, plan = w1_lp(FiniteGraph.from_tree(tree, range(tree.num_vertices)), mu, nu)
        assert value == 12
        assert satisfies_marginals(plan, mu, nu)

    def test_works_on_cyclic_graphs(self):
        # 4-cycle: two opposite point masses are 2 apart.
        g = _build(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
        value, _ = w1_lp(g, Measure({0: 1}), Measure({2: 1}))
        assert value == 2

    def test_mass_mismatch(self):
        g = _build(range(2), [(0, 1)])
        with pytest.raises(MassMismatch, match="total masses differ: 1 vs 2"):
            w1_lp(g, Measure({0: 1}), Measure({1: 2}))

    def test_mass_mismatch_past_the_digit_limit_names_the_totals(self):
        big = 10 ** 2500 + 1
        g = _build(range(3), [(0, 1), (1, 2)])
        mu = Measure({0: Fraction(1, big), 1: Fraction(1, big + 2)})
        with pytest.raises(MassMismatch) as raised:
            w1_lp(g, mu, Measure({2: Fraction(1, big)}))
        message = str(raised.value)
        assert message.startswith("total masses differ: about 2.00000000000E-2500 vs about ")
        assert "set_int_max_str_digits" not in message

    def test_too_large_rejected(self):
        n = 45
        g = _build(range(n), [(i, i + 1) for i in range(n - 1)])
        mu = Measure({v: 1 for v in range(41)})
        nu = Measure({v: Fraction(41, n) for v in range(n)})
        with pytest.raises(TooLarge):
            w1_lp(g, mu, nu)

    def test_cap_refuses_before_totals_are_compared(self):
        n = 45
        g = _build(range(n), [(i, i + 1) for i in range(n - 1)])
        mu = Measure({v: 1 for v in range(41)})
        nu = Measure({v: 1 for v in range(n)})
        with pytest.raises(TooLarge):
            w1_lp(g, mu, nu)

    def test_empty_measures(self):
        g = _build(range(2), [(0, 1)])
        value, plan = w1_lp(g, Measure({}), Measure({}))
        assert value == 0 and plan == {}

    def test_scales_merge_over_their_lcm(self):
        # Sixths against tenths: the simplex runs over L = 30, which is neither scale.
        g = _build(range(4), [(0, 1), (1, 2), (2, 3)])
        mu = Measure({0: Fraction(1, 6), 1: Fraction(5, 6)})
        nu = Measure({2: Fraction(3, 10), 3: Fraction(7, 10)})
        assert (mu.scale, nu.scale) == (6, 10)
        value, plan = w1_lp(g, mu, nu)
        # On a path, W1 sums the CDF gaps across the edges: 1/6 + 1 + 7/10.
        assert type(value) is Fraction and value == Fraction(28, 15)
        _, cells = _reference_simplex([[g.distance(u, v) for v in nu.support()]
                                       for u in mu.support()],
                                      [mu.masses[u] for u in mu.support()],
                                      [nu.masses[v] for v in nu.support()])
        assert plan == {(mu.support()[i], nu.support()[j]): x
                        for (i, j), x in cells.items() if x}
        for x in plan.values():
            assert type(x) is Fraction and gcd(x.numerator, x.denominator) == 1
        assert satisfies_marginals(plan, mu, nu)

    def test_marginals_sum_over_the_plan_denominators_too(self):
        # Whole masses at L = 1, moved in halves: over the measures' scale
        # alone each half would read as 0.
        mu, nu = Measure({0: 1, 1: 1}), Measure({2: 1, 3: 1})
        assert (mu.scale, nu.scale) == (1, 1)
        half = Fraction(1, 2)
        plan = {(0, 2): half, (0, 3): half, (1, 2): half, (1, 3): half}
        assert satisfies_marginals(plan, mu, nu)
        assert not satisfies_marginals({**plan, (1, 3): Fraction(1, 3)}, mu, nu)
        assert not satisfies_marginals({(0, 2): half, (1, 3): half}, mu, nu)
        assert not satisfies_marginals({**plan, (0, 0): Fraction(0)}, mu, nu)
        assert satisfies_marginals({(0, 2): 1, (1, 3): 1}, mu, nu)


class TestDualSide:
    def test_constant_potential_feasible(self):
        tree = validate_tree(range(3), [(0, 1), (1, 2)])
        assert is_edge_lipschitz((Fraction(1),) * 3, tree)

    def test_jump_of_two_infeasible(self):
        tree = validate_tree(range(2), [(0, 1)])
        assert not is_edge_lipschitz((Fraction(0), Fraction(2)), tree)

    def test_demo_potential_feasible_and_optimal(self):
        tree, mu, nu = instance_from_dict(demo_doc())
        rho = assignment_from(mu, nu)
        levels = good_potential(tree, unique_flow(tree, rho))
        phi = tuple(h - levels[index_of(tree)["v4"]] for h in levels)
        assert is_edge_lipschitz(phi, tree)
        primal, certified = verify_duality(tree, mu, nu, phi)
        assert primal == potential_value(rho, phi) == 12 and certified

    def test_slackness_on_diagonal_plan(self):
        g = _build(range(3), [(0, 1), (1, 2)])
        plan = {(0, 0): Fraction(1)}
        assert check_complementary_slackness(g, plan, (Fraction(0),) * 3)

    def test_slackness_fails_on_short_moves(self):
        g = _build(range(3), [(0, 1), (1, 2)])
        plan = {(0, 2): Fraction(1)}
        assert not check_complementary_slackness(g, plan, (Fraction(0),) * 3)


class TestVerifyDuality:
    def test_a_potential_that_skips_a_plan_move_is_not_certified(self):
        # On a path, the optimal plan moves mass from 0 to 2, two hops; a
        # potential that drops by 1 over the move misses slackness.
        tree = validate_tree(range(3), [(0, 1), (1, 2)])
        mu, nu = Measure({0: Fraction(1)}), Measure({2: Fraction(1)})
        assert verify_duality(tree, mu, nu, (2, 1, 0)) == (2, True)
        assert verify_duality(tree, mu, nu, (1, 1, 0)) == (2, False)


class TestIndependentOfTheFlowRoute:
    #: The tree route's functions; the LP is the check on them.
    FLOW_ROUTE = {"assignment_from", "unique_flow", "flow_cost", "good_potential",
                  "potential_value", "is_edge_lipschitz", "w1_tree"}

    def test_the_lp_reads_no_flow_route_function_and_no_rooting(self):
        syntax = ast.parse(Path(treeot.lp.__file__).read_text(encoding="utf-8"))
        imported = {alias.name.rpartition(".")[2] for node in ast.walk(syntax)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        names = {node.id for node in ast.walk(syntax) if isinstance(node, ast.Name)}
        attributes = {node.attr for node in ast.walk(syntax) if isinstance(node, ast.Attribute)}
        assert (imported | names | attributes) & self.FLOW_ROUTE == set()
        assert attributes & {"parent", "order"} == set()


class TestDualOverCommonScale:
    def test_dual_matches_the_per_vertex_fraction_sum(self):
        rng = rng_for(77)
        for _ in range(30):
            n = rng.randint(2, 10)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            shift = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
            levels = good_potential(tree, unique_flow(tree, assignment_from(mu, nu)))
            mu_at, nu_at = mu.masses, nu.masses
            for phi in (tuple(h + shift for h in levels), levels):
                dual = sum(((mu_at.get(v, 0) - nu_at.get(v, 0)) * phi[v]
                            for v in set(mu.support()) | set(nu.support())), Fraction(0))
                got = potential_value(assignment_from(mu, nu), phi)
                assert type(got) is Fraction and got == dual
                primal, certified = verify_duality(tree, mu, nu, phi)
                assert primal == got and certified


class TestRandomizedAgreement:
    def test_tree_and_lp_agree_with_certificates(self):
        rng = rng_for(2024)
        for _ in range(60):
            n = rng.randint(2, 12)
            tree = random_tree(rng, n)
            mu, nu = random_measure_pair(rng, n)
            g = FiniteGraph.from_tree(tree, range(tree.num_vertices))
            lp_value, plan = w1_lp(g, mu, nu)
            assert lp_value == w1_tree(tree, mu, nu)
            assert satisfies_marginals(plan, mu, nu)
            rho = assignment_from(mu, nu)
            phi = good_potential(tree, unique_flow(tree, rho))
            primal, certified = verify_duality(tree, mu, nu, phi)
            assert primal == potential_value(rho, phi) and certified

    def test_weak_duality_random_plans_and_potentials(self):
        rng = rng_for(99)
        for _ in range(25):
            n = rng.randint(2, 9)
            tree = random_tree(rng, n)
            g = FiniteGraph.from_tree(tree, range(tree.num_vertices))
            mu, nu = random_measure_pair(rng, n)
            # Independent coupling: a feasible plan that is rarely optimal.
            total = mu.total()
            mu_at, nu_at = mu.masses, nu.masses
            plan = {(u, v): mu_at[u] * nu_at[v] / total
                    for u in mu.support() for v in nu.support()}
            assert satisfies_marginals(plan, mu, nu)
            # Random 1-Lipschitz potential via distance extension of anchors.
            anchors = {v: Fraction(rng.randint(-3, 3)) for v in rng.sample(range(n), 2)}
            phi = tuple(min(base + g.distance(a, v) for a, base in anchors.items())
                        for v in range(n))
            assert is_edge_lipschitz(phi, tree)
            dual = sum(((mu_at.get(v, 0) - nu_at.get(v, 0)) * phi[v] for v in range(n)),
                       Fraction(0))
            assert sum(g.distance(u, v) * x for (u, v), x in plan.items()) >= dual


def _reference_simplex(costs, supply, demand):
    """The transportation simplex as it ran over Fractions, rebuilding the
    basis tree by BFS for the duals and again for each cycle: the oracle for
    the integer, incremental one."""
    m, n = len(supply), len(demand)
    alloc = {}
    basis = set()
    ra = list(supply)
    cb = list(demand)
    rows, cols = set(range(m)), set(range(n))
    while True:  # least-cost start: the cheapest open cell, ties by row then column
        _, i, j = min((costs[i][j], i, j) for i in rows for j in cols)
        x = min(ra[i], cb[j])
        alloc[(i, j)] = x
        basis.add((i, j))
        ra[i] -= x
        cb[j] -= x
        if len(rows) == 1 and len(cols) == 1:
            break
        if ra[i] == 0 and len(rows) > 1:
            rows.remove(i)
        else:
            cols.remove(j)

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


def _bench_shaped_instances():
    """Two pairs of 40-point measures on one 2000-vertex random tree, as the
    benchmark's ``cli-w1`` files have them: each as the tree, its graph, the
    two measures, and the simplex's integer costs, supplies and demands."""
    rng = rng_for(17)
    tree = random_tree(rng, 2000)
    g = FiniteGraph.from_tree(tree, range(tree.num_vertices))
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
        yield tree, g, mu, nu, (costs, [mu.num[u] * (scale // mu.scale) for u in mu.support()],
                                [nu.num[v] * (scale // nu.scale) for v in nu.support()])


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
        for tree, g, mu, nu, lp_input in _bench_shaped_instances():
            self._agree(*lp_input)
            assert w1_lp(g, mu, nu)[0] == w1_tree(tree, mu, nu)

    def test_bench_shaped_pivots_stay_linear(self, monkeypatch):
        # Every pivot re-hangs from a nonzero top; the start hangs from row 0.
        # The least-cost start needs 80 and 122 pivots here, the northwest
        # corner 514 and 438.
        import treeot.lp
        hang = treeot.lp._hang
        tops = []

        def counting(costs, m, adjacency, parent, depth, price, top):
            tops.append(top)
            hang(costs, m, adjacency, parent, depth, price, top)

        monkeypatch.setattr(treeot.lp, "_hang", counting)
        for *_, lp_input in _bench_shaped_instances():
            tops.clear()
            _transportation_simplex(*lp_input)
            m, n = len(lp_input[1]), len(lp_input[2])
            assert tops[0] == 0 and 0 not in tops[1:]
            assert len(tops) - 1 <= 2 * (m + n)

    #: A script preamble: ``_hang`` leaves the depth of each re-hung top one
    #: too low, and ``rng`` draws the instances.
    SKEWED_HANG = (
        "import random\n"
        "from treeot import lp\n"
        "from treeot.suites import random_measure_pair, random_tree\n"
        "hang = lp._hang\n"
        "def skewed(costs, m, adjacency, parent, depth, price, top):\n"
        "    hang(costs, m, adjacency, parent, depth, price, top)\n"
        "    if top:\n"
        "        depth[top] -= 1\n"
        "lp._hang = skewed\n"
        "rng = random.Random(2024)\n")

    def test_inconsistent_basis_tree_raises_instead_of_hanging(self):
        # With one depth left one too low below the root, the common-ancestor
        # climb once never met; bounded at m + n steps, it raises. The fault
        # enters at a re-hang, so the trees have 20 to 40 vertices: their
        # supports are large enough that pivots chain and a later climb reads
        # the skewed depth. A fresh process with a timeout keeps a regression
        # from stalling the suite.
        done = run_python(
            self.SKEWED_HANG
            + "for _ in range(60):\n"
            "    n = rng.randint(20, 40)\n"
            "    tree = random_tree(rng, n)\n"
            "    mu, nu = random_measure_pair(rng, n)\n"
            "    try:\n"
            "        lp.w1_lp(lp.FiniteGraph.from_tree(tree, range(n)), mu, nu)\n"
            "    except RuntimeError as exc:\n"
            "        raise SystemExit(str(exc))\n")
        assert done.returncode == 1
        assert done.stderr == "transportation simplex basis tree is inconsistent\n"

    def test_a_climb_past_the_root_raises_the_same_error(self):
        # The same skew on 6 to 12 vertices lets a climb reach the root, whose
        # parent is -1, before the two ends meet. Instances 64, 260 and 264 of
        # this stream take such a pivot; past the root the climb would read
        # the last column node as a parent and fail on a cell (0, -1 - m).
        done = run_python(
            self.SKEWED_HANG
            + "faults = []\n"
            "for _ in range(300):\n"
            "    n = rng.randint(6, 12)\n"
            "    tree = random_tree(rng, n)\n"
            "    mu, nu = random_measure_pair(rng, n)\n"
            "    try:\n"
            "        lp.w1_lp(lp.FiniteGraph.from_tree(tree, range(n)), mu, nu)\n"
            "    except Exception as exc:\n"
            "        faults.append(f'{type(exc).__name__}: {exc}')\n"
            "print(*faults, sep='\\n')\n")
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "RuntimeError: transportation simplex basis tree is inconsistent"] * 3

    def test_a_cycle_in_the_basis_raises_instead_of_hanging(self):
        # Instance 532 of the same stream cuts the wrong cell at a pivot, so
        # the basis graph gets a cycle, and the re-hang below the entering
        # cell would walk it forever. A tree has m + n nodes; a longer walk
        # raises. The child caps its address space, so that a regression
        # times out without growing past it.
        done = run_python(
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            + self.SKEWED_HANG
            + "for k in range(533):\n"
            "    n = rng.randint(6, 12)\n"
            "    tree = random_tree(rng, n)\n"
            "    mu, nu = random_measure_pair(rng, n)\n"
            "    try:\n"
            "        lp.w1_lp(lp.FiniteGraph.from_tree(tree, range(n)), mu, nu)\n"
            "    except RuntimeError as exc:\n"
            "        print(k, exc)\n", timeout=10)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            f"{k} transportation simplex basis tree is inconsistent"
            for k in (64, 260, 264, 532)]
