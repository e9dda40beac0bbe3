"""Radially symmetric measures on the infinite (q+1)-regular tree.

Two centers X and Y at distance d are fixed. Every vertex is located by the
index i of its nearest path vertex between X and Y and its height h above it,
so that dist(X, v) = i + h and dist(Y, v) = d - i + h. A measure whose mass
depends only on the distance to its center is described by a profile
s(0), s(1), ..., and the transport distance between the X- and Y-centered
copies has two closed evaluations: a potential-weighted sum over vertex
classes and the tree identity W1 = sum_e |mu(T_e) - nu(T_e)| over edge
classes. Both are implemented here, along with finite truncations of the
tree large enough to reproduce the infinite-tree answer exactly, and
:func:`triple_cell`, which checks the two against the tree flow on one, for
``treeot w1 --radial`` and the ``triple`` suite alike.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import chain, count, islice, repeat
from math import gcd
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .errors import InvalidAlpha, InvalidParams, TooLarge, TruncationTooSmall
from .rational import RationalLike, _frac, _over_scale, _shown
from .tree import Measure, Tree, _ReadOnly, w1_tree

#: Cap on bits(S) * order for the families' size knobs (``series --order``,
#: ``sweep --n``), S being the per-step scale: den(alpha) * (q+1) for the walk,
#: q + 1 for spheres and balls. A time-n denominator has about n * bits(S) bits,
#: so a printed rational stays near 620 digits, far under Python's 4,300-digit
#: limit, and a series runs in under a second; larger requests raise
#: :class:`TooLarge`. It also bounds bits(q) * ceil(d / 2), the size of q^(d/2)
#: in the asymptotes, for every :class:`PairGeometry`.
MAX_SERIES_BITS = 2 ** 11

#: Cap on the vertex count of a regular-tree truncation (``w1 --radial``).
#: A fresh ``treeot w1 --radial sphere:r=8 --q 5 --d 1`` process, whose
#: truncation has 976,562 vertices, takes about 0.26 s and 230 MB (2 vCPUs,
#: Python 3.11.7); larger ones raise :class:`TooLarge`, and the closed
#: formulas need no truncation.
MAX_TRUNCATION_VERTICES = 10 ** 6


def _check_int(name: str, value: int) -> None:
    """Raises :class:`InvalidParams`, naming ``value``, unless its type is
    exactly ``int``: a bool would be read as 0 or 1, and a float or a string
    would fail later with an untyped error or be read as another number."""
    if type(value) is not int:
        raise InvalidParams(f"{name} must be an int, got {type(value).__name__} {_shown(value)}")


def _check_q(q: int) -> None:
    """Raises :class:`InvalidParams` unless the branching number q is an int >= 2."""
    _check_int("branching number q", q)
    if q < 2:
        raise InvalidParams(f"branching number q must be >= 2, got {q}")


def _check_alpha(alpha: RationalLike) -> Fraction:
    # Floats are refused: exactness is end-to-end, so the caller must say
    # which rational they mean.
    if isinstance(alpha, float):
        raise InvalidAlpha(f"laziness must be an exact rational, got float {alpha!r}")
    alpha = _frac(alpha)
    if not 0 <= alpha < 1:
        raise InvalidAlpha(f"laziness must lie in [0, 1), got {alpha}")
    return alpha


class PairGeometry(_ReadOnly):
    """Branching number q >= 2 and center separation d >= 1, each an
    ``int``; geometries compare by (q, d)."""

    #: ``__dict__`` holds the cached class-sum weights.
    __slots__ = ("q", "d", "__dict__")

    def __init__(self, q: int, d: int):
        _check_int("branching number q", q)
        _check_int("center distance d", d)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.q, self.d) == (other.q, other.d)

    def __hash__(self) -> int:
        return hash((self.q, self.d))

    @property
    def delta(self) -> int:
        """floor(d / 2)."""
        return self.d // 2

    @property
    def delta_prime(self) -> int:
        """ceil(d / 2)."""
        return (self.d + 1) // 2

    @property
    def slope_numerator(self) -> int:
        """(q + 1) q^floor(d/2) - q^(1 - ceil(d/2) + floor(d/2)) - 1: over
        q^floor(d/2) it is the slope factor q + 1 - q^(1-ceil(d/2)) -
        q^(-floor(d/2)) >= q - 1 > 0, shared by all three slopes and the
        x-derivative weight of the distance formula."""
        q, delta = self.q, self.delta
        return (q + 1) * q ** delta - q ** (delta + 1 - self.delta_prime) - 1

    @cached_property
    def _weights(self) -> tuple[list[int], Iterator[int]]:
        """The class-sum weights K_0, K_1, ... made so far, and the generator
        of the rest: :func:`w1_radial_formula` extends the list up to each
        profile's support radius, so each weight is made once per geometry."""
        return [], _class_weights(self.q, self.d)


class RadialProfile(_ReadOnly):
    """Nonnegative masses s(l) = num[l] / scale by distance from the center;
    finite support, some mass.

    Built from rational ``values``, put over one scale under the charge cap
    (:func:`rational._over_scale`), or from integer numerators over a given
    ``scale`` (a walk column over S^n). Kept in lowest terms, so equal
    profiles compare equal.
    """

    __slots__ = ("num", "scale")

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

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.scale) == (other.num, other.scale)

    def __hash__(self) -> int:
        return hash((self.num, self.scale))

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


class TruncatedRegularTree(NamedTuple):
    """Finite piece of the regular tree holding centers X and Y, rooted at X.

    Every vertex within the truncation radius of X or Y is present with full
    degree q + 1 unless it sits on the truncation boundary. The ids run level
    by level: ``levels[h]`` lists the (h, i) classes of height h by ascending
    path index i as ``(i, first, end)``, the class being the ids first..end-1.

    A radial profile's support radius is an exact truncation radius. The
    truncation is then a subtree of the infinite tree holding the balls of
    that radius about X and Y, so it holds both supports. On a tree the
    optimal flow is zero off the paths between the two supports, so W1 on any
    subtree that holds both supports equals W1 on the infinite tree.
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
    the vertices. So every parent precedes its children, and the builder hands
    :class:`Tree` its arrays, ``0..n-1`` as the order, with no check or BFS
    (``TestAgainstThePerVertexReference`` and
    ``test_rooted_tree_matches_validation`` check the order). Raises
    :class:`TooLarge`, before any work, over the size cap.
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
    labels = tuple(range(len(parent)))
    tree = Tree(labels=labels, order=labels, parent=tuple(parent), _ends=(parent[1:], labels[1:]))
    return TruncatedRegularTree(geometry=geometry, tree=tree, x=0, y=d, levels=tuple(levels))


def radial_measure(truncation: TruncatedRegularTree, center: int, profile: RadialProfile) -> Measure:
    """Measure assigning mass s(dist(center, v)) to every vertex v, for the
    center X or Y, whose id is its path index; the distance is |center - i| + h.

    Fills the masses one (h, i) class range at a time, in ascending id
    order, with no loop over the vertices.

    Raises :class:`TruncationTooSmall` when the truncation clips any sphere
    inside the profile's support, and :class:`ValueError` for another center.
    """
    if center not in (truncation.x, truncation.y):
        raise ValueError(f"center must be X = {truncation.x} or Y = {truncation.y}, not {center}")
    q = truncation.geometry.q
    top = profile.support_radius
    # Each shell's integer over the profile's scale, shared by every vertex of
    # the shell. The profile is in lowest terms, so its scale is the lcm of the
    # reduced denominators of the positive shell masses: the measure's scale.
    shells = profile.num
    counts = [0] * (top + 1)
    num: dict[int, int] = {}
    for h, level in enumerate(truncation.levels[:top + 1]):
        for i, lo, hi in level:
            ell = abs(center - i) + h
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


def _class_weights(q: int, d: int) -> Iterator[int]:
    """K_0, K_1, ...: K_l is twice the potential summed over the distance-l
    sphere around X, for the potential phi = d/2 - i + h on X's side (2i < d),
    d/2 - i - h on Y's side (2i > d) and 0 on the midpoint classes (2i = d).

    On Y's side of that sphere i + h = l, so 2 phi = d - 2l at each of its
    q^(l - floor(d/2) - 1) vertices: the q-ary subtree past path vertex
    floor(d/2) + 1. X's side grows one step at a time: each vertex has q
    children one step further out, each at 2 phi two more, but the path
    vertices 0 < i < d/2 have q - 1; and path vertex l + 1 joins, at
    2 phi = d - 2l - 2, while it is still on X's side. So each weight costs
    O(1) big-integer steps.
    """
    last = (d - 1) // 2  # the last path index on X's side
    near, doubled, far = 1, d, 0  # X's side of the sphere: its size, its sum of 2 phi; Y's size
    for ell in count():
        yield doubled + (d - 2 * ell) * far
        near, doubled = q * near, q * (doubled + 2 * near)
        if 0 < ell <= last:
            near -= 1
            doubled -= d - 2 * ell + 2
        if ell < last:
            near += 1
            doubled += d - 2 * ell - 2
        far = q * far + (ell == d // 2)


def w1_radial_formula(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """Transport distance between the X- and Y-centered copies of a profile,
    as the potential-weighted sum over vertex classes.

    The potential phi of :func:`_class_weights` is optimal and changes sign
    when X and Y swap, so W1 = sum_v phi(v) (s(dist(X, v)) - s(dist(Y, v)))
    = sum_l s(l) K_l, with K_l twice phi summed over the distance-l sphere
    around X. Equivalently, K_l gathers the coefficient of s(l) from three
    blocks: vertices hanging above X or Y, path vertices strictly between
    them, and vertices hanging above interior path vertices. K_l does not
    depend on the support radius, so the geometry keeps the weights it has
    made and every profile reuses them: W1 * scale is one integer dot
    product with the profile's numerators, divided once by the scale.
    """
    weights, rest = geometry._weights
    num = profile.num
    if len(weights) < len(num):
        top = profile.support_radius + 1  # trailing zeros need no weights
        if len(weights) < top:
            weights += islice(rest, top - len(weights))
    return Fraction(sum(map(mul, num, weights)), profile.scale)


def w1_radial_flow_formula(profile: RadialProfile, geometry: PairGeometry) -> Fraction:
    """Same distance as :func:`w1_radial_formula`, from the tree identity
    W1 = sum_e |mu(T_e) - nu(T_e)| (T_e the side of e away from X) taken
    edge class by edge class, one absolute value per class.

    A center's copy holds cone[r] = s(r) + q cone[r + 1] in a q-ary cone with
    apex at distance r. The branches * q^h off-path edges into height h + 1
    above path index i (branches = q at i in {0, d}, else q - 1) each carry
    |cone[i+h+1] - cone[d-i+h+1]|, which is 0 once min(i, d - i) + h >= top.
    The path edge into index i carries |sum_{j >= i} s(j) - s(d - j) +
    branches (cone[j+1] - cone[d-j+1])|, summed from Y's end; at i = 0 the
    sum is the whole tree's, 0. O(d + top^2) integer terms, divided once by
    the scale.
    """
    q, d = geometry.q, geometry.d
    s = _padded(profile, d)
    top = profile.support_radius
    cone = [0] * (len(s) + 1)
    for r in reversed(range(len(s))):
        cone[r] = s[r] + q * cone[r + 1]
    total = through = 0
    for i in reversed(range(d + 1)):
        branches = q if i in (0, d) else q - 1
        total += branches * sum(q ** h * abs(cone[i + h + 1] - cone[d - i + h + 1])
                                for h in range(top - min(i, d - i)))
        through += s[i] - s[d - i] + branches * (cone[i + 1] - cone[d - i + 1])
        total += abs(through)
    return Fraction(total, profile.scale)


def triple_cell(profile: RadialProfile, geometry: PairGeometry
                ) -> tuple[dict[str, Fraction], TruncatedRegularTree, Measure, Measure, bool]:
    """The radial routes for one profile: vertex-class sum (formula), edge-class
    sum (flow-sum) and tree flow on the truncation of radius
    ``profile.support_radius``; that truncation and its X- and Y-centered
    measures; and whether the routes agree.

    That radius is exact. The truncation is a subtree of the infinite tree
    holding the balls of that radius about X and Y, so it holds both
    supports. On a tree the optimal flow is zero off the paths between the
    two supports, so W1 on any subtree that holds both supports equals W1 on
    the infinite tree. A smaller radius clips a sphere of the support, and
    :func:`radial_measure` refuses it."""
    truncation = build_truncated_tree(geometry.q, geometry.d, profile.support_radius)
    mu = radial_measure(truncation, truncation.x, profile)
    nu = radial_measure(truncation, truncation.y, profile)
    paths = {"formula": w1_radial_formula(profile, geometry),
             "flow-sum": w1_radial_flow_formula(profile, geometry),
             "tree": w1_tree(truncation.tree, mu, nu)}
    return paths, truncation, mu, nu, len(set(paths.values())) == 1
