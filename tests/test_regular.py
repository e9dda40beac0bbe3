"""Regular-tree module: truncations, coordinates, closed distance formulas."""

from __future__ import annotations

import collections
import time
from fractions import Fraction

import pytest

from treeot import regular
from treeot.cli import main
from treeot.asymptotics import sphere_AB
from treeot.errors import InvalidParams, TooLarge, TruncationTooSmall
from treeot.families import srw_profile
from treeot.regular import (MAX_SERIES_BITS, MAX_TRUNCATION_VERTICES, PairGeometry,
                            RadialProfile, TruncatedRegularTree, _padded, ball_profile, ball_size,
                            build_truncated_tree, radial_measure, sphere_profile, sphere_size,
                            triple_cell, truncation_size, w1_radial_flow_formula,
                            w1_radial_formula)
from treeot.tree import (Flow, _hop_distances, assignment_from, flow_cost, unique_flow,
                         validate_tree, w1_tree)

from conftest import adjacency_of, coordinates, edges_of, random_profile, rng_for, signed_flow


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

    @pytest.mark.parametrize("value, shown", [(True, "bool True"), (2.0, "float 2.0"),
                                              ("3", "str '3'")], ids=["bool", "float", "str"])
    @pytest.mark.parametrize("call, name", [
        (lambda v: PairGeometry(v, 2), "branching number q"),
        (lambda v: PairGeometry(3, v), "center distance d"),
        (lambda v: sphere_AB(2, v), "branching number q"),
        (lambda v: sphere_AB(v, 3), "center distance d"),
        (lambda v: w1_radial_formula(sphere_profile(3, 2), PairGeometry(v, 2)),
         "branching number q"),
        (lambda v: w1_radial_formula(sphere_profile(3, 2), PairGeometry(3, v)),
         "center distance d"),
    ], ids=["geometry-q", "geometry-d", "sphere-AB-q", "sphere-AB-d", "formula-q", "formula-d"])
    def test_q_and_d_must_be_ints(self, call, name, value, shown):
        # A bool was read as 0 or 1, and a float or a str failed untyped or
        # was read as another number.
        with pytest.raises(InvalidParams, match=f"^{name} must be an int, got {shown}$"):
            call(value)

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


def reference_truncation(q: int, d: int, radius: int) -> tuple[list[int], list[int], list[int]]:
    """``(parent, i, h)`` from the per-vertex builder: the path X = 0, ..., d = Y
    first, then each vertex, in id order, gets its missing children while
    they stay within ``radius`` of a center."""
    parent = [-1, *range(d)]
    path_i = list(range(d + 1))
    height = [0] * (d + 1)
    # The loop also visits the vertices it appends.
    for v, (i, h) in enumerate(zip(path_i, height)):
        if min(i, d - i) + h < radius:
            children = q - 1 if h == 0 and 0 < i < d else q
            parent += [v] * children
            path_i += [i] * children
            height += [h + 1] * children
    return parent, path_i, height


def reference_measure(q: int, d: int, path_i: list[int], height: list[int], center: int,
                      profile: RadialProfile) -> tuple[dict[int, int], int]:
    """``(num, scale)`` of the radial measure, one vertex at a time; raises
    :class:`TruncationTooSmall` with the message of :func:`radial_measure`."""
    to_path = [abs(path_i[center] - j) for j in range(d + 1)]
    top = profile.support_radius
    shells = profile.num
    counts = [0] * (top + 1)
    num: dict[int, int] = {}
    for v, (i, h) in enumerate(zip(path_i, height)):
        ell = to_path[i] + h
        if ell <= top:
            counts[ell] += 1
            if shells[ell]:
                num[v] = shells[ell]
    for ell in range(top + 1):
        if counts[ell] != sphere_size(q, ell):
            raise TruncationTooSmall(
                f"distance-{ell} sphere around vertex {center} has {counts[ell]} "
                f"vertices, expected {sphere_size(q, ell)}; enlarge the truncation")
    return num, profile.scale


class TestAgainstThePerVertexReference:
    """The class-by-class build, size and measure against the per-vertex loops, over
    q in 2..5, d in 1..6 and radius in 0..5, radius < d / 2 included (the
    middle path vertices get no branches there)."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_same_truncation_and_measures(self, q, d):
        for radius in range(6):
            parent, path_i, height = reference_truncation(q, d, radius)
            tt = build_truncated_tree(q, d, radius)
            assert list(tt.tree.parent) == parent
            assert truncation_size(q, d, radius) == len(parent)
            assert coordinates(tt) == (path_i, height)
            for top in range(radius + 3):
                # Zero shells inside the support, and a positive top shell.
                profile = RadialProfile([Fraction(ell % 3, ell + 2) for ell in range(top)] + [1])
                for center in (tt.x, tt.y):
                    try:
                        expected = reference_measure(q, d, path_i, height, center, profile)
                    except TruncationTooSmall as refused:
                        with pytest.raises(TruncationTooSmall) as raised:
                            radial_measure(tt, center, profile)
                        assert str(raised.value) == str(refused)
                        continue
                    mu = radial_measure(tt, center, profile)
                    num, scale = expected
                    # Equal in insertion order too, ascending ids as the loop wrote them.
                    assert (list(mu.num.items()), mu.scale) == (list(num.items()), scale)


class TestTruncation:
    def test_single_edge(self):
        tt = build_truncated_tree(2, 1, 0)
        assert tt.tree.num_vertices == 2
        assert edges_of(tt.tree) == ((0, 1),)

    def test_negative_radius_refused(self):
        with pytest.raises(InvalidParams, match="^truncation radius must be >= 0, got -1$"):
            build_truncated_tree(2, 1, -1)

    def test_six_vertices(self):
        tt = build_truncated_tree(2, 1, 1)
        assert tt.tree.num_vertices == 6
        adjacency = adjacency_of(tt.tree)
        assert len(adjacency[tt.x]) == 3 and len(adjacency[tt.y]) == 3

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
        checked = validate_tree(range(n), edges_of(tt.tree))
        assert checked.parent == tt.tree.parent
        assert adjacency_of(checked) == adjacency_of(tt.tree)
        assert tt.tree.order == tuple(range(n))
        assert all(p < v for v, p in enumerate(tt.tree.parent) if v)

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
        adjacency = adjacency_of(tt.tree)
        dx = _hop_distances(adjacency, tt.x)
        dy = _hop_distances(adjacency, tt.y)
        for v in range(tt.tree.num_vertices):
            if min(dx[v], dy[v]) < radius:
                assert len(adjacency[v]) == q + 1


class TestCoordinates:
    def test_centers_and_path(self):
        tt = build_truncated_tree(2, 3, 2)
        path_i, height = coordinates(tt)
        assert (path_i[tt.x], height[tt.x]) == (0, 0)
        assert (path_i[tt.y], height[tt.y]) == (3, 0)
        for j in range(tt.y + 1):  # the path X = 0, ..., d = Y
            assert (path_i[j], height[j]) == (j, 0)

    @pytest.mark.parametrize("q,d,radius", COORD_CASES)
    def test_distance_identity(self, q, d, radius):
        tt = build_truncated_tree(q, d, radius)
        adjacency = adjacency_of(tt.tree)
        dx = _hop_distances(adjacency, tt.x)
        dy = _hop_distances(adjacency, tt.y)
        for v, (i, h) in enumerate(zip(*coordinates(tt))):
            assert dx[v] == i + h
            assert dy[v] == d - i + h


class TestRadialMeasure:
    def test_point_mass(self):
        tt = build_truncated_tree(2, 1, 1)
        mu = radial_measure(tt, tt.x, RadialProfile((1,), 1))
        assert mu.masses == {tt.x: Fraction(1)}

    def test_one_step_walk(self):
        tt = build_truncated_tree(2, 1, 1)
        mu = radial_measure(tt, tt.x, srw_profile(Fraction(0), 2, 1))
        neighbors = adjacency_of(tt.tree)[tt.x]
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
        adjacency = adjacency_of(tt.tree)
        for center in (tt.x, tt.y):
            profile = random_profile(rng, radius)
            dist = _hop_distances(adjacency, center)
            values = profile.values
            expected = {v: values[ell] for v, ell in enumerate(dist)
                        if ell < len(values) and values[ell]}
            assert radial_measure(tt, center, profile).masses == expected

    def test_refuses_a_third_center(self):
        tt = build_truncated_tree(2, 2, 3)
        for v in (1, tt.tree.num_vertices - 1):
            with pytest.raises(ValueError, match="center must be X = 0 or Y = 2"):
                radial_measure(tt, v, RadialProfile((1,), 1))

    def test_truncation_too_small(self):
        tt = build_truncated_tree(2, 1, 1)
        with pytest.raises(TruncationTooSmall):
            radial_measure(tt, tt.x, sphere_profile(2, 3))

    def test_total_mass_identity(self):
        # The total mass is sum of s(l) times the distance-l sphere size.
        rng = rng_for(11)
        for q in (2, 3):
            for _ in range(5):
                profile = random_profile(rng, 3)
                tt = build_truncated_tree(q, 1, profile.support_radius + 1)
                mu = radial_measure(tt, tt.x, profile)
                assert mu.total() == sum(m * sphere_size(q, ell)
                                         for ell, m in enumerate(profile.values))


class TestTripleCellRadius:
    """:func:`triple_cell` measures on the truncation of radius
    ``support_radius``, the smallest that holds the support. Every route is
    exact at any larger radius too, so only the size pins the radius."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_smallest_exact_truncation(self, q, d):
        rng = rng_for(q * 10 + d)
        geometry = PairGeometry(q, d)
        for _ in range(6):
            profile = random_profile(rng, 3)
            top = profile.support_radius
            _, truncation, *_, ok = triple_cell(profile, geometry)
            assert ok
            assert truncation.tree.num_vertices == truncation_size(q, d, top)
            if top >= 1:
                smaller = build_truncated_tree(q, d, top - 1)
                for center in (smaller.x, smaller.y):
                    with pytest.raises(TruncationTooSmall):
                        radial_measure(smaller, center, profile)


def radial_potential(i: int, h: int, geometry: PairGeometry) -> Fraction:
    """Closed-form potential adapted to the X-to-Y flow of any radial profile,
    at path index i and height h.

    Equals d/2 - i + h on the X half (i <= d/2) and d/2 - i - h on the Y half.
    """
    base = Fraction(geometry.d, 2) - i
    if 2 * i <= geometry.d:
        return base + h
    return base - h


def radial_potential_field(truncation: TruncatedRegularTree) -> tuple[Fraction, ...]:
    """The closed-form potential evaluated at every vertex of a truncation."""
    geom = truncation.geometry
    return tuple(radial_potential(i, h, geom) for i, h in zip(*coordinates(truncation)))


def three_block_sum(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """:func:`w1_radial_formula` summed block by block over the vertex classes:
    vertices hanging above X or Y, path vertices strictly between them, and
    vertices hanging above interior path vertices, with the potential of
    :func:`radial_potential` doubled (d/2 - i + h becomes d - 2i + 2h).
    O(floor(d/2) * top) terms."""
    q, d = geometry.q, geometry.d
    s = _padded(profile, d)
    top = profile.support_radius
    inner = range(1, geometry.delta + 1)

    s1 = sum(q ** h * (s[h] - s[h + d]) * (d + 2 * h) for h in range(top + 1))
    s2 = sum((s[i] - s[d - i]) * (d - 2 * i) for i in inner)
    s3 = sum((q - 1) * q ** (h - 1) * (s[i + h] - s[d - i + h]) * (d - 2 * i + 2 * h)
             for i in inner for h in range(1, top + 1))
    return Fraction(s1 + s2 + s3, profile.scale)


def flow_direction_check(truncation: TruncatedRegularTree, flow: Flow) -> bool:
    """Verify the sign pattern of the flow between two radial copies.

    Off the X-Y path the flow points toward the path on the X half, vanishes
    at the midpoint classes, and points away from the path on the Y half; on
    the path it travels strictly from X to Y.
    """
    d = truncation.geometry.d
    parent = truncation.tree.parent
    path_i, height = coordinates(truncation)
    for v in range(1, len(parent)):
        if height[v] == 0:  # a path edge, from the path vertex before v
            if signed_flow(flow, parent[v], v) <= 0:
                return False
            continue
        toward_path = signed_flow(flow, v, parent[v])
        side = 2 * path_i[v] - d  # < 0 on the X half, 0 at the midpoint
        if toward_path * side > 0 or (side == 0 and toward_path != 0):
            return False
    return True


class TestRadialPotential:
    def test_center_values(self):
        g = PairGeometry(2, 2)
        assert radial_potential(0, 0, g) == 1
        assert radial_potential(2, 0, g) == -1

    def test_half_integer_value(self):
        g = PairGeometry(2, 3)
        assert radial_potential(2, 1, g) == Fraction(-3, 2)

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
        for u, v in edges_of(tt.tree):
            s = signed_flow(flow, u, v)
            diff = phi[u] - phi[v]
            if s > 0:
                assert diff == 1
            elif s < 0:
                assert diff == -1
            else:
                assert abs(diff) <= 1
        # Optimality of the closed-form potential: pairing equals flow cost.
        pairing = sum((phi[v] * c for v, c in rho.charges.items()), Fraction(0))
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


#: (q, d) of the class-sum grid: q in 2..6 and d in 1..12, plus d = 2000 and
#: 2001 where the geometry's cap on bits(q) * ceil(d/2) admits them.
CLASS_SUM_GRID = [(q, d) for q in range(2, 7)
                  for d in [*range(1, 13), 2000, 2001]
                  if q.bit_length() * ((d + 1) // 2) <= MAX_SERIES_BITS]


def profile_of_radius(rng, radius: int) -> RadialProfile:
    """A random profile whose support radius is exactly ``radius``."""
    values = [Fraction(rng.randint(0, 4), rng.randint(1, 9)) for _ in range(radius)]
    return RadialProfile([*values, Fraction(rng.randint(1, 4), rng.randint(1, 9))])


class TestClassSumAgainstTheThreeBlocks:
    """The class sum as one dot product with per-geometry weights, against
    the three-block sum it gathers."""

    @pytest.mark.parametrize("q,d", CLASS_SUM_GRID)
    def test_fresh_geometries(self, q, d):
        rng = rng_for(q * 10_000 + d)
        for radius in range(11):
            profile, geometry = profile_of_radius(rng, radius), PairGeometry(q, d)
            assert w1_radial_formula(profile, geometry) == three_block_sum(profile, geometry)

    @pytest.mark.parametrize("q,d", CLASS_SUM_GRID)
    def test_one_geometry_as_the_radius_rises_and_falls(self, q, d):
        rng = rng_for(q * 10_000 + d + 1)
        geometry = PairGeometry(q, d)
        for radius in [*range(11), *range(10, -1, -1), 3, 9]:
            profile = profile_of_radius(rng, radius)
            assert w1_radial_formula(profile, geometry) == three_block_sum(profile, geometry)
        # The weights stop at the largest support radius seen, each made once.
        assert len(geometry._weights[0]) == 11

    def test_profiles_with_trailing_zeros(self):
        geometry = PairGeometry(3, 4)
        trailing = RadialProfile([1, 0, 2, 0, 0, 0])
        assert len(trailing.num) == 6 and trailing.support_radius == 2
        expected = three_block_sum(trailing, geometry)
        assert w1_radial_formula(trailing, geometry) == expected
        # Trailing zeros cost no weights: the list stops at the support radius.
        assert len(geometry._weights[0]) == 3
        assert w1_radial_formula(RadialProfile([1, 0, 2]), geometry) == expected

    def test_trailing_zeros_make_no_weights(self, monkeypatch):
        made, weights = [], regular._class_weights

        def counted(q, d):
            for weight in weights(q, d):
                made.append(weight)
                yield weight

        monkeypatch.setattr(regular, "_class_weights", counted)
        geometry = PairGeometry(2, 1)
        long_tail = RadialProfile([1] + [0] * 50_000)
        assert w1_radial_formula(long_tail, geometry) == three_block_sum(long_tail, geometry)
        assert len(made) == 1

    @pytest.mark.parametrize("q,d", [(2, 1), (2, 4), (3, 3), (3, 6), (5, 2)])
    def test_a_weight_off_by_one_fails(self, q, d):
        for ell in range(9):
            profile = RadialProfile([Fraction(1, 3)] * ell + [Fraction(1, 5)])
            geometry = PairGeometry(q, d)
            expected = w1_radial_flow_formula(profile, geometry)
            assert w1_radial_formula(profile, geometry) == expected
            for step in (1, -1):
                geometry._weights[0][ell] += step
                assert w1_radial_formula(profile, geometry) != expected, (ell, step)
                geometry._weights[0][ell] -= step

    def test_sweep_makes_the_weights_once_per_geometry(self, monkeypatch, capsys):
        made, weights = [], regular._class_weights

        def counted(q, d):
            for weight in weights(q, d):
                made.append((q, d))
                yield weight

        monkeypatch.setattr(regular, "_class_weights", counted)
        assert main(["sweep", "--family", "srw", "--alpha", "0,1/2", "--d", "1..3",
                     "--q", "2..3", "--n", "0..60"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 2 * 3 * 2 * 61
        # |q| * |d| geometries, each making weights up to its support radius 60.
        assert collections.Counter(made) == {(q, d): 61 for q in (2, 3) for d in (1, 2, 3)}


def reference_edge_sum(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """The edge-class sum as three signed blocks, kept as the reference for
    :func:`w1_radial_flow_formula`: edges above X or Y, edges above interior
    path vertices, and the d path edges, path edge a = 0..d-1 adding the
    classes at path indices 1..a. The signs hold only because both centers
    carry the same profile; O(d^2 * top + top^3) terms in all."""
    q, d = geometry.q, geometry.d
    s = _padded(profile, d)
    top = profile.support_radius

    e1 = 2 * sum(q ** (h + i) * (s[h + i] - s[d + h + i])
                 for h in range(top + 1)
                 for i in range(1, top - h + 1))

    e2 = 2 * sum((q - 1) * q ** (h + i - 1) * (s[b + h + i] - s[d - b + h + i])
                 for b in range(1, (d - 1) // 2 + 1)
                 for h in range(top + 1)
                 for i in range(1, top - b - h + 1))

    e3 = d * sum(q ** h * (s[h] - s[d + h]) for h in range(top + 1))
    for a in range(d):
        e3 += sum(s[i] - s[d - i] for i in range(1, a + 1))
        e3 += sum((q - 1) * q ** (h - 1) * (s[i + h] - s[d - i + h])
                  for i in range(1, a + 1)
                  for h in range(1, top + 1))
    return Fraction(e1 + e2 + e3, profile.scale)


class TestEdgeSumAgainstThePathEdgeReference:
    """The edge-class sum, one absolute value per class, against the old
    three signed blocks, kept here as the reference."""

    def test_random_profiles(self):
        rng = rng_for(26)
        for _ in range(400):
            g = PairGeometry(rng.randint(2, 5), rng.randint(1, 40))
            profile = random_profile(rng, 6)
            expected = reference_edge_sum(profile, g)
            assert w1_radial_flow_formula(profile, g) == expected == w1_radial_formula(profile, g)

    @pytest.mark.parametrize("profile,g", [(ball_profile(3, 4), PairGeometry(3, 2000)),
                                           (srw_profile(0, 2, 200), PairGeometry(2, 40))],
                             ids=["ball-d2000", "walk-n200"])
    def test_linear_in_the_center_distance(self, profile, g):
        start = time.perf_counter()
        value = w1_radial_flow_formula(profile, g)
        assert time.perf_counter() - start < 0.1
        assert value == w1_radial_formula(profile, g)


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
        assert signed_flow(flow, tt.x, tt.y) > 0

    def test_midpoint_edges_carry_no_flow(self):
        q, d = 2, 2
        tt = build_truncated_tree(q, d, 2 + d)
        profile = sphere_profile(q, 2)
        flow = unique_flow(tt.tree, assignment_from(
            radial_measure(tt, tt.x, profile), radial_measure(tt, tt.y, profile)))
        mid = 1  # the path's midpoint at d = 2
        height = coordinates(tt)[1]
        for w in adjacency_of(tt.tree)[mid]:
            if height[w] > 0:
                assert signed_flow(flow, mid, w) == 0
