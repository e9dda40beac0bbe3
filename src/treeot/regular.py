"""Radially symmetric measures on the infinite (q+1)-regular tree.

Two centers X and Y at distance d are fixed. Every vertex is located by the
index i of its nearest path vertex between X and Y and its height h above it,
so that dist(X, v) = i + h and dist(Y, v) = d - i + h. A measure whose mass
depends only on the distance to its center is described by a profile
s(0), s(1), ..., and the transport distance between the X- and Y-centered
copies has two closed evaluations: a potential-weighted sum over vertex
classes and a flow-magnitude sum over edge classes. Both are implemented
here, along with finite truncations of the tree large enough to reproduce
the infinite-tree answer exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .errors import InvalidParams, TooLarge, TruncationTooSmall
from .rational import RationalLike, _common_scale, _frac
from .tree import MAX_SERIES_BITS, MAX_TRUNCATION_VERTICES, Flow, Measure, Potential, Tree


def _check_q(q: int) -> None:
    """Raises :class:`InvalidParams` unless the branching number q is >= 2."""
    if q < 2:
        raise InvalidParams(f"branching number q must be >= 2, got {q}")


@dataclass(frozen=True)
class PairGeometry:
    """Branching number q >= 2 and center separation d >= 1."""

    q: int
    d: int

    def __post_init__(self) -> None:
        if self.q == 1:
            raise InvalidParams(
                "q = 1 is the two-sided line, where the transport distance between "
                "the two copies of any radial profile equals dist(X, Y) for every "
                "time step; nothing to compute")
        _check_q(self.q)
        if self.d < 1:
            raise InvalidParams(f"center distance d must be >= 1, got {self.d}")
        bits = self.q.bit_length() * self.delta_prime
        if bits > MAX_SERIES_BITS:
            raise TooLarge(f"q^(d/2) for q = {self.q}, d = {self.d} takes {bits} bits, over "
                           f"the {MAX_SERIES_BITS}-bit cap on bits(q) * ceil(d/2)")

    @property
    def delta(self) -> int:
        """floor(d / 2)."""
        return self.d // 2

    @property
    def delta_prime(self) -> int:
        """ceil(d / 2)."""
        return (self.d + 1) // 2

    @property
    def half_d(self) -> Fraction:
        return Fraction(self.d, 2)


@dataclass(frozen=True)
class BasepointCoord:
    """Path index i of the nearest X-Y path vertex and height h above it."""

    i: int
    h: int


@dataclass(frozen=True, init=False)
class RadialProfile:
    """Nonnegative masses s(l) = num[l] / scale by distance from the center;
    finite support, some mass.

    Built from rational ``values``, or from integer numerators over a given
    ``scale`` (a walk column over S^n). Kept in lowest terms, so equal
    profiles compare equal.
    """

    num: tuple[int, ...]
    scale: int

    def __init__(self, values: Sequence[RationalLike], scale: int | None = None):
        if scale is None:
            fracs = [_frac(x) for x in values]
            scale = _common_scale({x.denominator for x in fracs}, len(fracs))
            values = [x.numerator * (scale // x.denominator) for x in fracs]
        if any(x < 0 for x in values):
            raise ValueError("profile entries must be nonnegative")
        if not any(values):
            raise ValueError("profile must carry some mass")
        common = gcd(scale, *values)
        object.__setattr__(self, "num", tuple(x // common for x in values))
        object.__setattr__(self, "scale", scale // common)

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.scale) for x in self.num)

    @property
    def support_radius(self) -> int:
        return max(ell for ell, x in enumerate(self.num) if x)

    def value(self, ell: int) -> Fraction:
        if 0 <= ell < len(self.num):
            return Fraction(self.num[ell], self.scale)
        return Fraction(0)


def sphere_size(q: int, radius: int) -> int:
    """Number of vertices at exact distance ``radius`` from a vertex;
    raises :class:`InvalidParams` for a negative radius."""
    if radius < 0:
        raise InvalidParams(f"sphere radius must be >= 0, got {radius}")
    if radius == 0:
        return 1
    return (q + 1) * q ** (radius - 1)


def ball_size(q: int, radius: int) -> int:
    """Number of vertices within distance ``radius`` of a vertex;
    raises :class:`InvalidParams` for a negative radius."""
    if radius < 0:
        raise InvalidParams(f"ball radius must be >= 0, got {radius}")
    return (q ** (radius + 1) + q ** radius - 2) // (q - 1)


def sphere_profile(q: int, radius: int) -> RadialProfile:
    """Uniform distribution on the radius-``radius`` sphere."""
    return RadialProfile((0,) * radius + (1,), sphere_size(q, radius))


def ball_profile(q: int, radius: int) -> RadialProfile:
    """Uniform distribution on the radius-``radius`` ball."""
    return RadialProfile((1,) * (radius + 1), ball_size(q, radius))


def profile_total_mass(q: int, profile: RadialProfile) -> Fraction:
    """Total mass of a radial measure: sum of s(l) times the sphere size."""
    return Fraction(sum(x * sphere_size(q, ell) for ell, x in enumerate(profile.num)),
                    profile.scale)


def truncation_size(q: int, d: int, radius: int) -> int:
    """Vertex count of :func:`build_truncated_tree`, summed level by level; raises
    :class:`TooLarge` once a partial sum passes :data:`MAX_TRUNCATION_VERTICES`."""
    total = d + 1
    for i in range(d + 1):
        level = q if i in (0, d) else q - 1
        for _ in range(radius - min(i, d - i)):
            total, level = total + level, level * q
            if total > MAX_TRUNCATION_VERTICES:
                raise TooLarge(f"the radius-{radius} truncation for q = {q}, d = {d} has over "
                               f"{MAX_TRUNCATION_VERTICES:,} vertices (at least {q}^{radius}), "
                               f"over the truncation cap; the closed formulas "
                               f"(w1_radial_formula, treeot sweep) need no truncation")
    return total


@dataclass(frozen=True)
class TruncatedRegularTree:
    """Finite piece of the regular tree holding centers X and Y, rooted at X.

    Every vertex within ``radius`` of X or Y is present with full degree q + 1
    unless it sits on the truncation boundary; vertex v sits at (i[v], h[v]).
    """

    geometry: PairGeometry
    radius: int
    tree: Tree
    x: int
    y: int
    path: tuple[int, ...]
    i: tuple[int, ...]
    h: tuple[int, ...]

    def coord(self, v: int) -> BasepointCoord:
        return BasepointCoord(self.i[v], self.h[v])


def build_truncated_tree(q: int, d: int, radius: int) -> TruncatedRegularTree:
    """Truncation of the regular tree containing balls of ``radius`` around X and Y.

    The path X = 0, ..., d = Y comes first; then each vertex, in id order, gets
    its missing children while they stay within ``radius`` of a center. Every
    parent precedes its children, so the tree comes from the parent array with
    no BFS. Raises :class:`TooLarge`, before any work, over the size cap.
    """
    geometry = PairGeometry(q, d)
    if radius < 0:
        raise InvalidParams(f"truncation radius must be >= 0, got {radius}")
    truncation_size(q, d, radius)
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
    return TruncatedRegularTree(geometry=geometry, radius=radius,
                                tree=Tree._from_parents(parent), x=0, y=d,
                                path=tuple(range(d + 1)), i=tuple(path_i), h=tuple(height))


def radial_measure(truncation: TruncatedRegularTree, center: int, profile: RadialProfile) -> Measure:
    """Measure assigning mass s(dist(center, v)) to every vertex v, for the
    center X or Y; the distance is |i(center) - i| + h.

    Raises :class:`TruncationTooSmall` when the truncation clips any sphere
    inside the profile's support, and :class:`ValueError` for another center.
    """
    if center not in (truncation.x, truncation.y):
        raise ValueError(f"center must be X = {truncation.x} or Y = {truncation.y}, not {center}")
    q = truncation.geometry.q
    to_path = [abs(truncation.i[center] - j) for j in truncation.path]  # path ids are 0..d
    top = profile.support_radius
    # Each shell's integer over the profile's scale, shared by every vertex of
    # the shell. The profile is in lowest terms, so its scale is the lcm of the
    # reduced denominators of the positive shell masses: the measure's scale.
    shells = profile.num
    counts = [0] * (top + 1)
    num: dict[int, int] = {}
    for v, (i, h) in enumerate(zip(truncation.i, truncation.h)):
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
    return Measure._of(num, profile.scale)


def radial_potential(coord: BasepointCoord, geometry: PairGeometry) -> Fraction:
    """Closed-form potential adapted to the X-to-Y flow of any radial profile.

    Equals d/2 - i + h on the X half (i <= d/2) and d/2 - i - h on the Y half.
    """
    base = geometry.half_d - coord.i
    if 2 * coord.i <= geometry.d:
        return base + coord.h
    return base - coord.h


def radial_potential_field(truncation: TruncatedRegularTree) -> Potential:
    """The closed-form potential evaluated at every vertex of a truncation."""
    geom = truncation.geometry
    return Potential(tuple(radial_potential(c, geom)
                           for c in map(BasepointCoord, truncation.i, truncation.h)))


def _padded(profile: RadialProfile, d: int) -> tuple[int, ...]:
    """The profile's numerators to its support radius, then d zeros: every
    index the formulas read."""
    return profile.num[:profile.support_radius + 1] + (0,) * d


def w1_radial_formula(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """Transport distance between the X- and Y-centered copies of a profile,
    as the potential-weighted sum over vertex classes.

    Three blocks: vertices hanging above X or Y, path vertices strictly
    between them, and vertices hanging above interior path vertices. The sums
    run on the profile's integer numerators with the potential doubled (so
    d/2 - i + h becomes d - 2i + 2h), then divide once by the scale.
    """
    q, d = geometry.q, geometry.d
    s = _padded(profile, d)
    top = profile.support_radius
    inner = range(1, geometry.delta + 1)

    s1 = sum(q ** h * (s[h] - s[h + d]) * (d + 2 * h) for h in range(top + 1))
    s2 = sum((s[i] - s[d - i]) * (d - 2 * i) for i in inner)
    s3 = sum((q - 1) * q ** (h - 1) * (s[i + h] - s[d - i + h]) * (d - 2 * i + 2 * h)
             for i in inner for h in range(1, top + 1))
    return Fraction(s1 + s2 + s3, profile.scale)


def w1_radial_flow_formula(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """Same distance as :func:`w1_radial_formula`, summed edge class by edge
    class over flow magnitudes instead of vertex class by vertex class.

    Edge classes: edges above X or Y, edges above interior path vertices, and
    the d path edges themselves. All inner sums terminate at the profile's
    support radius because every further term vanishes. The sums run on the
    integer numerators and divide once by the scale.
    """
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


def flow_direction_check(truncation: TruncatedRegularTree, flow: Flow) -> bool:
    """Verify the sign pattern of the flow between two radial copies.

    Off the X-Y path the flow points toward the path on the X half, vanishes
    at the midpoint classes, and points away from the path on the Y half; on
    the path it travels strictly from X to Y.
    """
    d = truncation.geometry.d
    parent = truncation.tree.parent
    for v in range(1, len(parent)):
        if truncation.h[v] == 0:  # a path edge, from the path vertex before v
            if flow.signed(parent[v], v) <= 0:
                return False
            continue
        toward_path = flow.signed(v, parent[v])
        side = 2 * truncation.i[v] - d  # < 0 on the X half, 0 at the midpoint
        if toward_path * side > 0 or (side == 0 and toward_path != 0):
            return False
    return True
