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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from typing import Sequence

from .errors import InvalidParams, TooLarge, TruncationTooSmall
from .rational import RationalLike, _frac, _over_scale, _qpow
from .tree import MAX_SERIES_BITS, MAX_TRUNCATION_VERTICES, Measure, Tree


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
    def slope_factor(self) -> Fraction:
        """q + 1 - q^(1-ceil(d/2)) - q^(-floor(d/2)): shared by all three slopes,
        the intercept gaps and the x-derivative weight of the distance
        formula; at least q - 1 > 0."""
        q = self.q
        return q + 1 - _qpow(q, 1 - self.delta_prime) - _qpow(q, -self.delta)


@dataclass(frozen=True, init=False)
class RadialProfile:
    """Nonnegative masses s(l) = num[l] / scale by distance from the center;
    finite support, some mass.

    Built from rational ``values``, put over one scale under the charge cap
    (:func:`rational._over_scale`), or from integer numerators over a given
    ``scale`` (a walk column over S^n). Kept in lowest terms, so equal
    profiles compare equal.
    """

    num: tuple[int, ...]
    scale: int

    def __init__(self, values: Sequence[RationalLike], scale: int | None = None):
        if scale is None:
            scale, values = _over_scale(map(_frac, values))
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

    Every vertex within the truncation radius of X or Y is present with full
    degree q + 1 unless it sits on the truncation boundary; vertex v sits at
    path index i[v] and height h[v]. The ids run level by level: ``h`` never
    decreases in id order, and within one level ``i`` never decreases, so the
    vertices of one (h, i) class are one contiguous id range.
    """

    geometry: PairGeometry
    tree: Tree
    x: int
    y: int
    i: tuple[int, ...]
    h: tuple[int, ...]


def build_truncated_tree(q: int, d: int, radius: int) -> TruncatedRegularTree:
    """Truncation of the regular tree containing balls of ``radius`` around X and Y.

    The path X = 0, ..., d = Y is level 0; level h + 1 holds the children of
    level h, each parent's block in the parent's id order. A vertex at (i, h)
    gets children while min(i, d - i) + h < radius: q of them, or q - 1 off
    an interior path vertex. Since ``i`` never decreases within a level, the
    parents of a level are one prefix (i < radius - h) and one suffix
    (i > d - radius + h), which two bisections find, and a level is built
    from slices and repeats with no loop over its vertices. Every parent
    precedes its children, so the tree comes from the parent array with no
    BFS. Raises :class:`TooLarge`, before any work, over the size cap.
    """
    geometry = PairGeometry(q, d)
    if radius < 0:
        raise InvalidParams(f"truncation radius must be >= 0, got {radius}")
    truncation_size(q, d, radius)
    parent = [-1, *range(d)]
    path_i = list(range(d + 1))
    height = [0] * (d + 1)
    start, end, h = 0, d + 1, 0  # level h holds the ids start..end-1
    while start < end:
        prefix = bisect_left(path_i, radius - h, start, end)
        suffix = max(prefix, bisect_right(path_i, d - radius + h, start, end))
        ids = [*range(start, prefix), *range(suffix, end)]
        i = path_i[start:prefix] + path_i[suffix:end]
        if h:  # q children each
            parent += chain.from_iterable(zip(*repeat(ids, q)))
            path_i += chain.from_iterable(zip(*repeat(i, q)))
        else:  # the path: q children off X and Y, q - 1 off an interior vertex
            counts = [q if j in (0, d) else q - 1 for j in i]
            parent += chain.from_iterable(map(repeat, ids, counts))
            path_i += chain.from_iterable(map(repeat, i, counts))
        start, end, h = end, len(parent), h + 1
        height += repeat(h, end - start)
    return TruncatedRegularTree(geometry=geometry, tree=Tree._from_parents(parent), x=0, y=d,
                                i=tuple(path_i), h=tuple(height))


def radial_measure(truncation: TruncatedRegularTree, center: int, profile: RadialProfile) -> Measure:
    """Measure assigning mass s(dist(center, v)) to every vertex v, for the
    center X or Y; the distance is |i(center) - i| + h.

    Reads the ids level by level: the vertices of each (h, i) class within
    the profile's support are one contiguous id range, found by bisection on
    ``i`` within the level, so the masses are filled range by range in
    ascending id order with no loop over the vertices.

    Raises :class:`TruncationTooSmall` when the truncation clips any sphere
    inside the profile's support, and :class:`ValueError` for another center.
    """
    if center not in (truncation.x, truncation.y):
        raise ValueError(f"center must be X = {truncation.x} or Y = {truncation.y}, not {center}")
    q, d = truncation.geometry.q, truncation.geometry.d
    c = truncation.i[center]
    top = profile.support_radius
    # Each shell's integer over the profile's scale, shared by every vertex of
    # the shell. The profile is in lowest terms, so its scale is the lcm of the
    # reduced denominators of the positive shell masses: the measure's scale.
    shells = profile.num
    path_i, height = truncation.i, truncation.h
    counts = [0] * (top + 1)
    num: dict[int, int] = {}
    start = 0
    for h in range(top + 1):
        end = bisect_right(height, h, start)
        reach = top - h
        lo = bisect_left(path_i, c - reach, start, end)
        for j in range(max(0, c - reach), min(d, c + reach) + 1):
            hi = bisect_right(path_i, j, lo, end)
            ell = abs(c - j) + h
            counts[ell] += hi - lo
            if shells[ell]:
                num.update(zip(range(lo, hi), repeat(shells[ell])))
            lo = hi
        start = end
    for ell in range(top + 1):
        if counts[ell] != sphere_size(q, ell):
            raise TruncationTooSmall(
                f"distance-{ell} sphere around vertex {center} has {counts[ell]} "
                f"vertices, expected {sphere_size(q, ell)}; enlarge the truncation")
    return Measure._of(num, profile.scale)


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

    # Path edge a = 0..d-1 carries the classes at path indices 1..a, so the
    # class at index i enters d - i times: O(d * top) terms, not O(d^2 * top).
    e3 = d * sum(q ** h * (s[h] - s[d + h]) for h in range(top + 1))
    e3 += sum((d - i) * (s[i] - s[d - i]
                         + sum((q - 1) * q ** (h - 1) * (s[i + h] - s[d - i + h])
                               for h in range(1, top + 1)))
              for i in range(1, d))
    return Fraction(e1 + e2 + e3, profile.scale)
