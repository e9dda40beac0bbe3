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
from itertools import chain, count, repeat
from math import gcd
from typing import Sequence

from .errors import InvalidParams, TooLarge, TruncationTooSmall
from .rational import RationalLike, _frac, _over_scale, _qpow
from .tree import Measure, Tree

#: Cap on bits(S) * order for the families' size knobs (``series --order``,
#: ``sweep --n``), S being the per-step scale: den(alpha) * (q+1) for the walk,
#: q + 1 for spheres and balls. A time-n denominator has about n * bits(S) bits,
#: so a printed rational stays near 620 digits, far under Python's 4,300-digit
#: limit, and a series runs in under a second; larger requests raise
#: :class:`TooLarge`. It also bounds bits(q) * ceil(d / 2), the size of q^(d/2)
#: in the asymptotes, for every :class:`PairGeometry`.
MAX_SERIES_BITS = 2 ** 11

#: Cap on the vertex count of a regular-tree truncation (``w1 --radial``).
#: One at 10^6 vertices takes a few seconds; larger ones raise
#: :class:`TooLarge`, and the closed formulas need no truncation.
MAX_TRUNCATION_VERTICES = 10 ** 6


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


def _children(q: int, d: int, radius: int, i: int, h: int) -> int:
    """Children of a vertex at path index i and height h in the radius-``radius``
    truncation: none once min(i, d - i) + h >= radius, else q, or q - 1 off an
    interior path vertex, whose path neighbors take the other two edges."""
    if min(i, d - i) + h >= radius:
        return 0
    return q - 1 if h == 0 and 0 < i < d else q


def truncation_size(q: int, d: int, radius: int) -> int:
    """Vertex count of :func:`build_truncated_tree`, summed class by class; raises
    :class:`TooLarge` once a partial sum passes :data:`MAX_TRUNCATION_VERTICES`."""
    total = 0
    for i in range(d + 1):
        size, h = 1, 0  # the (h, i) class
        while size:
            total += size
            if total > MAX_TRUNCATION_VERTICES:
                raise TooLarge(f"the radius-{radius} truncation for q = {q}, d = {d} has over "
                               f"{MAX_TRUNCATION_VERTICES:,} vertices (at least {q}^{radius}), "
                               f"over the truncation cap; the closed formulas "
                               f"(w1_radial_formula, treeot sweep) need no truncation")
            size *= _children(q, d, radius, i, h)
            h += 1
    return total


@dataclass(frozen=True)
class TruncatedRegularTree:
    """Finite piece of the regular tree holding centers X and Y, rooted at X.

    Every vertex within the truncation radius of X or Y is present with full
    degree q + 1 unless it sits on the truncation boundary. The ids run level
    by level: ``levels[h]`` lists the (h, i) classes of height h by ascending
    path index i as ``(i, first, end)``, the class being the ids first..end-1.
    """

    geometry: PairGeometry
    tree: Tree
    x: int
    y: int
    levels: tuple[tuple[tuple[int, int, int], ...], ...]


def build_truncated_tree(q: int, d: int, radius: int) -> TruncatedRegularTree:
    """Truncation of the regular tree containing balls of ``radius`` around X and Y.

    The path X = 0, ..., d = Y is level 0; level h + 1 holds the children of
    level h class by class, each parent's block in id order, with no loop over
    the vertices. Every parent precedes its children, so the tree comes from
    the parent array with no BFS. Raises :class:`TooLarge`, before any work,
    over the size cap.
    """
    geometry = PairGeometry(q, d)
    if radius < 0:
        raise InvalidParams(f"truncation radius must be >= 0, got {radius}")
    truncation_size(q, d, radius)
    parent = [-1, *range(d)]
    levels = [tuple((i, i, i + 1) for i in range(d + 1))]
    for h in count():
        level = []
        for i, lo, hi in levels[h]:
            k = _children(q, d, radius, i, h)
            if k:
                ids = [*range(lo, hi)]  # one list for all k copies: k ranges make k ints per id
                start = len(parent)
                parent += chain.from_iterable(zip(*repeat(ids, k)))
                level.append((i, start, len(parent)))
        if not level:
            break
        levels.append(tuple(level))
    return TruncatedRegularTree(geometry=geometry, tree=Tree._from_parents(parent), x=0, y=d,
                                levels=tuple(levels))


def radial_measure(truncation: TruncatedRegularTree, center: int, profile: RadialProfile) -> Measure:
    """Measure assigning mass s(dist(center, v)) to every vertex v, for the
    center X or Y; the distance is |i(center) - i| + h.

    Fills the masses one (h, i) class range at a time, in ascending id
    order, with no loop over the vertices.

    Raises :class:`TruncationTooSmall` when the truncation clips any sphere
    inside the profile's support, and :class:`ValueError` for another center.
    """
    if center not in (truncation.x, truncation.y):
        raise ValueError(f"center must be X = {truncation.x} or Y = {truncation.y}, not {center}")
    q = truncation.geometry.q
    c = truncation.levels[0][center][0]
    top = profile.support_radius
    # Each shell's integer over the profile's scale, shared by every vertex of
    # the shell. The profile is in lowest terms, so its scale is the lcm of the
    # reduced denominators of the positive shell masses: the measure's scale.
    shells = profile.num
    counts = [0] * (top + 1)
    num: dict[int, int] = {}
    for h, level in enumerate(truncation.levels[:top + 1]):
        for i, lo, hi in level:
            ell = abs(c - i) + h
            if ell <= top:
                counts[ell] += hi - lo
                if shells[ell]:
                    num.update(zip(range(lo, hi), repeat(shells[ell])))
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
