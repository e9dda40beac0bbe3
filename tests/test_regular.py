"""Regular-tree module: truncations, coordinates, closed distance formulas."""

from __future__ import annotations

from fractions import Fraction

import pytest

from treeot import (InvalidParams, PairGeometry, TooLarge, TruncationTooSmall,
                    assignment_from, ball_profile, ball_size, build_truncated_tree, flow_cost,
                    flow_direction_check, profile_total_mass,
                    radial_measure, radial_potential, radial_potential_field,
                    sphere_profile, sphere_size, unique_flow, validate_tree,
                    w1_radial_flow_formula, w1_radial_formula, w1_tree)
from treeot.families import srw_profile
from treeot.regular import BasepointCoord, RadialProfile, truncation_size
from treeot.tree import MAX_SERIES_BITS, MAX_TRUNCATION_VERTICES, _hop_distances

from conftest import random_profile, rng_for


#: (q, d, radius) of the truncations whose coordinates are checked against BFS.
COORD_CASES = [(2, 2, 3), (3, 3, 2), (2, 1, 4), (2, 3, 3), (3, 2, 3), (4, 1, 2), (3, 4, 2)]


def expected_truncation_size(q: int, d: int, radius: int) -> int:
    """Count vertices with min(dist to X, dist to Y) <= radius via class sizes."""
    total = 0
    for i in range(d + 1):
        h = 0
        while min(i + h, d - i + h) <= radius:
            if h == 0:
                total += 1
            elif i in (0, d):
                total += q ** h
            else:
                total += (q - 1) * q ** (h - 1)
            h += 1
    return total


class TestGeometry:
    def test_q_one_rejected(self):
        with pytest.raises(InvalidParams):
            PairGeometry(1, 3)

    def test_d_zero_rejected(self):
        with pytest.raises(InvalidParams):
            PairGeometry(2, 0)

    @pytest.mark.parametrize("q,d", [(3, 20000), (3, 10 ** 8), (2 ** 2048, 1)])
    def test_center_distance_cap(self, q, d):
        with pytest.raises(TooLarge, match="cap on bits"):
            PairGeometry(q, d)

    def test_center_distance_cap_admits_the_inequality_grid(self):
        for q in range(2, 11):
            for d in range(1, 7):
                PairGeometry(q, d)
        PairGeometry(3, MAX_SERIES_BITS)  # bits(3) * ceil(2048 / 2) = 2048, at the cap
        with pytest.raises(TooLarge):
            PairGeometry(3, MAX_SERIES_BITS + 1)

    def test_half_splits(self):
        g = PairGeometry(2, 5)
        assert (g.delta, g.delta_prime) == (2, 3)
        assert g.delta + g.delta_prime == g.d

    def test_zero_profile_rejected(self):
        with pytest.raises(ValueError):
            RadialProfile((Fraction(0), Fraction(0)))

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError):
            RadialProfile((Fraction(1), Fraction(-1, 2)))

    @pytest.mark.parametrize("size, kind, at_one", [(sphere_size, "sphere", 4),
                                                     (ball_size, "ball", 5)])
    def test_negative_radius_rejected(self, size, kind, at_one):
        assert (size(3, 0), size(3, 1)) == (1, at_one)
        with pytest.raises(InvalidParams, match=f"^{kind} radius must be >= 0, got -1$"):
            size(3, -1)
        with pytest.raises(InvalidParams, match="got -2$"):
            size(2, -2)


class TestTruncation:
    def test_single_edge(self):
        tt = build_truncated_tree(2, 1, 0)
        assert tt.tree.num_vertices == 2
        assert tt.tree.edges == ((0, 1),)

    def test_six_vertices(self):
        tt = build_truncated_tree(2, 1, 1)
        assert tt.tree.num_vertices == 6
        assert len(tt.tree.adjacency[tt.x]) == 3 and len(tt.tree.adjacency[tt.y]) == 3

    @pytest.mark.parametrize("q,d,radius", [(3, 2, 2), (2, 3, 3), (2, 1, 4), (3, 4, 3)])
    def test_vertex_count_matches_class_sizes(self, q, d, radius):
        tt = build_truncated_tree(q, d, radius)
        assert tt.tree.num_vertices == expected_truncation_size(q, d, radius)
        assert truncation_size(q, d, radius) == tt.tree.num_vertices

    def test_largest_size_under_the_cap(self):
        assert truncation_size(5, 1, 8) == expected_truncation_size(5, 1, 8) == 976_562

    @pytest.mark.parametrize("q,d,radius", [(5, 1, 9), (3, 2, 12), (2, 1, 10 ** 9),
                                            (10 ** 30, 2, 6), (3, 2048, 2048)])
    def test_size_cap_refuses_before_any_work(self, q, d, radius):
        with pytest.raises(TooLarge, match=f"over {MAX_TRUNCATION_VERTICES:,} vertices"):
            build_truncated_tree(q, d, radius)

    @pytest.mark.parametrize("q,d,radius", COORD_CASES)
    def test_rooted_tree_matches_validation(self, q, d, radius):
        tt = build_truncated_tree(q, d, radius)
        n = tt.tree.num_vertices
        checked = validate_tree(range(n), tt.tree.edges)
        assert checked.parent == tt.tree.parent
        assert checked.adjacency == tt.tree.adjacency
        assert tt.tree.order == tuple(range(n))

    def test_built_without_graph_checks_or_bfs(self, monkeypatch):
        import treeot.lp
        import treeot.tree

        def refuse(*args):
            raise AssertionError("the truncation ran a graph check or a BFS")

        monkeypatch.setattr(treeot.tree, "_build_graph", refuse)
        monkeypatch.setattr(treeot.tree, "_hop_distances", refuse)
        monkeypatch.setattr(treeot.lp, "_hop_distances", refuse)
        assert build_truncated_tree(3, 2, 4).tree.num_vertices == expected_truncation_size(3, 2, 4)

    @pytest.mark.parametrize("q,d,radius", [(2, 2, 3), (3, 1, 2)])
    def test_interior_vertices_have_full_degree(self, q, d, radius):
        tt = build_truncated_tree(q, d, radius)
        dx = _hop_distances(tt.tree.adjacency, tt.x)
        dy = _hop_distances(tt.tree.adjacency, tt.y)
        for v in range(tt.tree.num_vertices):
            if min(dx[v], dy[v]) < radius:
                assert len(tt.tree.adjacency[v]) == q + 1


class TestCoordinates:
    def test_centers_and_path(self):
        tt = build_truncated_tree(2, 3, 2)
        assert tt.coord(tt.x) == BasepointCoord(0, 0)
        assert tt.coord(tt.y) == BasepointCoord(3, 0)
        for j, z in enumerate(tt.path):
            assert tt.coord(z) == BasepointCoord(j, 0)

    @pytest.mark.parametrize("q,d,radius", COORD_CASES)
    def test_distance_identity(self, q, d, radius):
        tt = build_truncated_tree(q, d, radius)
        dx = _hop_distances(tt.tree.adjacency, tt.x)
        dy = _hop_distances(tt.tree.adjacency, tt.y)
        for v in range(tt.tree.num_vertices):
            c = tt.coord(v)
            assert dx[v] == c.i + c.h
            assert dy[v] == d - c.i + c.h


class TestRadialMeasure:
    def test_point_mass(self):
        tt = build_truncated_tree(2, 1, 1)
        mu = radial_measure(tt, tt.x, RadialProfile((1,), 1))
        assert mu.masses == {tt.x: Fraction(1)}

    def test_one_step_walk(self):
        tt = build_truncated_tree(2, 1, 1)
        mu = radial_measure(tt, tt.x, srw_profile(Fraction(0), 2, 1))
        neighbors = tt.tree.adjacency[tt.x]
        assert mu.masses == {w: Fraction(1, 3) for w in neighbors}

    def test_sphere_measure(self):
        tt = build_truncated_tree(2, 1, 3)
        mu = radial_measure(tt, tt.x, sphere_profile(2, 2))
        assert len(mu.masses) == 6
        assert set(mu.masses.values()) == {Fraction(1, 6)}

    @pytest.mark.parametrize("q,d,radius", COORD_CASES)
    def test_equals_the_bfs_defined_measure(self, q, d, radius):
        rng = rng_for(q * 100 + d * 10 + radius)
        tt = build_truncated_tree(q, d, radius)
        for center in (tt.x, tt.y):
            profile = random_profile(rng, radius)
            dist = _hop_distances(tt.tree.adjacency, center)
            expected = {v: profile.value(ell) for v, ell in enumerate(dist)
                        if profile.value(ell)}
            assert radial_measure(tt, center, profile).masses == expected

    def test_refuses_a_third_center(self):
        tt = build_truncated_tree(2, 2, 3)
        for v in (tt.path[1], tt.tree.num_vertices - 1):
            with pytest.raises(ValueError, match="center must be X = 0 or Y = 2"):
                radial_measure(tt, v, RadialProfile((1,), 1))

    def test_truncation_too_small(self):
        tt = build_truncated_tree(2, 1, 1)
        with pytest.raises(TruncationTooSmall):
            radial_measure(tt, tt.x, sphere_profile(2, 3))

    def test_total_mass_identity(self):
        rng = rng_for(11)
        for q in (2, 3):
            for _ in range(5):
                profile = random_profile(rng, 3)
                tt = build_truncated_tree(q, 1, profile.support_radius + 1)
                mu = radial_measure(tt, tt.x, profile)
                assert mu.total() == profile_total_mass(q, profile)


class TestRadialPotential:
    def test_center_values(self):
        g = PairGeometry(2, 2)
        assert radial_potential(BasepointCoord(0, 0), g) == 1
        assert radial_potential(BasepointCoord(2, 0), g) == -1

    def test_half_integer_value(self):
        g = PairGeometry(2, 3)
        assert radial_potential(BasepointCoord(2, 1), g) == Fraction(-3, 2)

    @pytest.mark.parametrize("q,d,profile_kind", [(2, 2, "sphere"), (3, 3, "walk"), (2, 4, "ball")])
    def test_adapted_to_the_flow_on_truncations(self, q, d, profile_kind):
        if profile_kind == "sphere":
            profile = sphere_profile(q, 2)
        elif profile_kind == "ball":
            profile = ball_profile(q, 2)
        else:
            profile = srw_profile(Fraction(1, 3), q, 3)
        tt = build_truncated_tree(q, d, profile.support_radius + d)
        mu = radial_measure(tt, tt.x, profile)
        nu = radial_measure(tt, tt.y, profile)
        rho = assignment_from(mu, nu)
        flow = unique_flow(tt.tree, rho)
        phi = radial_potential_field(tt)
        for u, v in tt.tree.edges:
            s = flow.signed(u, v)
            diff = phi.value(u) - phi.value(v)
            if s > 0:
                assert diff == 1
            elif s < 0:
                assert diff == -1
            else:
                assert abs(diff) <= 1
        # Optimality of the closed-form potential: pairing equals flow cost.
        pairing = sum((phi.value(v) * c for v, c in rho.charges.items()), Fraction(0))
        assert pairing == flow_cost(flow)


class TestDistanceFormulas:
    def test_point_mass_gives_d(self):
        for q, d in [(2, 1), (2, 4), (3, 3)]:
            g = PairGeometry(q, d)
            assert w1_radial_formula(RadialProfile((1,), 1), g) == d
            assert w1_radial_flow_formula(RadialProfile((1,), 1), g) == d

    def test_one_step_walk_matches_tree(self):
        q, d = 2, 1
        g = PairGeometry(q, d)
        profile = srw_profile(Fraction(0), q, 1)
        tt = build_truncated_tree(q, d, 1 + d)
        mu = radial_measure(tt, tt.x, profile)
        nu = radial_measure(tt, tt.y, profile)
        assert w1_radial_formula(profile, g) == w1_tree(tt.tree, mu, nu)

    def test_sphere_formula_matches_exact_line(self):
        # d = 2 spheres: the affine law in n with slope 2(q-1)/q holds exactly.
        q, d, n = 3, 2, 2
        g = PairGeometry(q, d)
        value = w1_radial_formula(sphere_profile(q, n), g)
        expected = (2 * Fraction(q - 1, q)) * n + 2 * Fraction(q * q + 1, q * (q + 1))
        assert value == expected

    def test_edge_sum_equals_class_sum_random(self):
        rng = rng_for(20)
        for q in (2, 3):
            for d in (1, 2, 3, 4):
                g = PairGeometry(q, d)
                for _ in range(6):
                    profile = random_profile(rng, 4)
                    assert w1_radial_formula(profile, g) == w1_radial_flow_formula(profile, g)

    def test_triple_agreement_with_annulus(self):
        q, d = 2, 3
        g = PairGeometry(q, d)
        annulus = RadialProfile((0, Fraction(1, 9), 0, Fraction(1, 9)))
        tt = build_truncated_tree(q, d, annulus.support_radius + d)
        mu = radial_measure(tt, tt.x, annulus)
        nu = radial_measure(tt, tt.y, annulus)
        w = w1_tree(tt.tree, mu, nu)
        assert w == w1_radial_formula(annulus, g) == w1_radial_flow_formula(annulus, g)


class TestFlowDirections:
    def test_sphere_directions(self):
        q, d = 2, 2
        tt = build_truncated_tree(q, d, 3 + d)
        profile = sphere_profile(q, 3)
        flow = unique_flow(tt.tree, assignment_from(
            radial_measure(tt, tt.x, profile), radial_measure(tt, tt.y, profile)))
        assert flow_direction_check(tt, flow)

    def test_walk_directions_with_positive_path_flow(self):
        q, d = 2, 1
        tt = build_truncated_tree(q, d, 3 + d)
        profile = srw_profile(Fraction(0), q, 3)
        flow = unique_flow(tt.tree, assignment_from(
            radial_measure(tt, tt.x, profile), radial_measure(tt, tt.y, profile)))
        assert flow_direction_check(tt, flow)
        assert flow.signed(tt.x, tt.y) > 0

    def test_midpoint_edges_carry_no_flow(self):
        q, d = 2, 2
        tt = build_truncated_tree(q, d, 2 + d)
        profile = sphere_profile(q, 2)
        flow = unique_flow(tt.tree, assignment_from(
            radial_measure(tt, tt.x, profile), radial_measure(tt, tt.y, profile)))
        mid = tt.path[1]
        for w in tt.tree.adjacency[mid]:
            if tt.coord(w).h > 0:
                assert flow.signed(mid, w) == 0
