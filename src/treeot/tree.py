"""Exact 1-Wasserstein distance on finite trees.

Costs are hop counts and masses are exact rationals. The tree route scales every
mass once by L, the lcm of the denominators, runs the flow and the pairing
in integers over L, and divides by L once, so all identities hold exactly.
The backbone facts: on a tree there is exactly one flow whose divergence
matches a given zero-sum assignment (the value across an edge is the net
charge on one side), the cost of that flow is the transport distance, and
pairing the assignment with any potential adapted to the flow yields the
same number.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, repeat
from math import copysign
from operator import eq, sub
from typing import Hashable, Iterable, Mapping, NamedTuple, NoReturn, Sequence

from .errors import DuplicateEdge, HasCycle, MassMismatch, NotConnected
from .rational import RationalLike, _common_scale, _frac, _over_scale, _shown, decimal_string


def _build_graph(vertices: Iterable[Hashable], edges: Iterable) -> tuple[tuple, dict, tuple, tuple]:
    """Map labels to dense indices, check the edges, and build the adjacency.

    Returns ``(labels, index, edges, adjacency)`` with every edge stored once
    as a ``(lo, hi)`` pair. Raises :class:`ValueError` for an empty vertex
    list, a repeated vertex id, or an edge that is not a pair, names an
    unknown vertex, or names one by an equal id of another kind
    (:func:`_id_kind`); :class:`HasCycle` for a self-loop; and
    :class:`DuplicateEdge` for an edge given twice.
    """
    labels = tuple(vertices)
    if not labels:
        raise ValueError("a graph needs at least one vertex")
    index: dict = {}
    for pos, label in enumerate(labels):
        if label in index:
            raise ValueError(f"duplicate vertex id {label!r}")
        index[label] = pos

    seen: set[tuple[int, int]] = set()
    dense_edges: list[tuple[int, int]] = []
    for edge in edges:
        if not isinstance(edge, (tuple, list)) or len(edge) != 2:
            raise ValueError(f"edge {edge!r} is not a pair of vertex ids")
        a, b = edge
        if a not in index or b not in index:
            raise ValueError(f"edge ({a!r}, {b!r}) references an unknown vertex")
        u, v = index[a], index[b]
        for given, w in ((a, u), (b, v)):
            if _id_kind(given) != _id_kind(labels[w]):
                raise ValueError(f"edge ({a!r}, {b!r}) names the {type(labels[w]).__name__} "
                                 f"vertex id {labels[w]!r} by the {type(given).__name__} "
                                 f"{given!r}")
        if u == v:
            raise HasCycle(f"self-loop at vertex {a!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge ({a!r}, {b!r}) appears more than once")
        seen.add(key)
        dense_edges.append(key)
    return labels, index, tuple(dense_edges), _adjacency(len(labels), dense_edges)


def _id_kind(label: Hashable) -> Hashable:
    """What an id must share with an equal vertex id to name it: its type,
    and for a float the sign too, as ``-0.0 == 0.0``."""
    return (float, copysign(1.0, label)) if type(label) is float else type(label)


def _adjacency(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Neighbor tuples of vertices ``0..n-1`` from dense edges, in edge order."""
    neighbor_lists: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    return tuple(map(tuple, neighbor_lists))


def _peel(ids: Sequence[int], us: Sequence[int], vs: Sequence[int],
          kept: bytearray) -> tuple[list[int], list[int]] | None:
    """Peel, over and over, every leaf that ``kept`` does not mark from the
    graph on ``ids``, the indices ``0..n-1``, with edges ``(us[k], vs[k])``.
    Returns ``(peeled, parent)``: the peeled vertices in peel order, and each
    one's last neighbor, the one it hung from when peeled (-1 at every vertex
    left). None when a vertex is peeled with no edge left: its component
    holds no kept vertex. ``parent`` holds the int objects of ``ids``, so it
    shares them with the label map.

    Each vertex keeps its degree and the XOR of its neighbors' indices, so a
    leaf's one remaining neighbor is that XOR. Popping a leaf removes its
    edge; a neighbor whose degree falls to 1 becomes a leaf unless kept. The
    vertices left form the graph's core about the kept ones: a leaf lies
    inside no path between two other vertices, so every hop distance
    between vertices left is the same in the core.
    """
    n = len(ids)
    degree = [0] * n
    link = [0] * n
    for u, v in zip(us, vs):
        degree[u] += 1
        degree[v] += 1
        link[u] ^= v
        link[v] ^= u
    parent = [-1] * n
    peeled = [v for v in ids if degree[v] == 1 and not kept[v]]
    for v in peeled:  # the loop also visits the leaves it appends
        if not degree[v]:
            return None
        p = parent[v] = ids[link[v]]
        link[p] ^= v
        degree[p] -= 1
        if degree[p] == 1 and not kept[p]:
            peeled.append(p)
    return peeled, parent


def _hop_distances(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from ``source`` to every vertex; -1 where unreached. One
    level-order BFS writes each distance as it reaches the vertex."""
    dist = [-1] * len(adjacency)
    dist[source] = 0
    level, hops = [source], 0
    while level:
        hops += 1
        reached = []
        for u in level:
            for w in adjacency[u]:
                if dist[w] < 0:
                    dist[w] = hops
                    reached.append(w)
        level = reached
    return dist


def _require_connected(adjacency: Sequence[Sequence[int]]) -> None:
    """Raises :class:`NotConnected` unless vertex 0 reaches every vertex."""
    n = len(adjacency)
    reached = n - _hop_distances(adjacency, 0).count(-1)
    if reached != n:
        raise NotConnected(f"only {reached} of {n} vertices reachable from vertex 0")


class _ReadOnly:
    """Base of the read-only value types: every field is set once, in
    ``__init__`` through ``object.__setattr__``, and assigning or deleting
    any attribute afterwards raises :class:`AttributeError`."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> NoReturn:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__


class Tree(_ReadOnly):
    """Finite connected acyclic graph over dense vertex indices ``0..n-1``.

    ``labels`` preserves the caller's vertex identifiers, in dense index
    order; all other structures (and all measures/flows/potentials) use the
    dense indices. ``parent`` roots the tree at vertex 0 (-1 there), and
    ``order`` lists every vertex after its parent, starting at 0; the flow
    route reads only these two. The LP oracle and the instance writer read
    the edge endpoints ``_ends``: edge k joins ``_ends[0][k]`` and
    ``_ends[1][k]``, in input order. The constructor checks nothing:
    :func:`validate_tree` proves the arrays by its leaf peels, and
    :func:`treeot.regular.build_truncated_tree` by its class ranges. Trees
    compare by labels, order and parent.
    """

    __slots__ = ("labels", "order", "parent", "_ends")

    def __init__(self, labels: tuple[Hashable, ...], order: tuple[int, ...],
                 parent: tuple[int, ...], _ends: tuple[Sequence[int], Sequence[int]]):
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_ends", _ends)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.order, self.parent) == (other.labels, other.order, other.parent)

    def __hash__(self) -> int:
        return hash((self.labels, self.order, self.parent))

    @property
    def num_vertices(self) -> int:
        return len(self.labels)


def _dense_ends(vertices: Sequence[Hashable], edges: Iterable[tuple]
                ) -> tuple[tuple, dict, tuple[list[int], list[int]]]:
    """Step one of :func:`validate_tree`: the labels, each label's dense index,
    and the dense endpoints of every edge, in input order.

    Every valid tree passes here on counts, lookups and a type check: n
    distinct labels, n - 1 edges, each a list or tuple of two known ids, and
    each id of its vertex's kind (:func:`_id_kind`), so that ``1.0`` or
    ``True`` never reads as the vertex ``1``, nor ``-0.0`` as ``0.0``. When
    one of these fails, :func:`_name_fault` names the fault from the edges as
    given. The endpoints alone carry the rest of the check (:func:`_rooted`),
    so a caller may let the edges go in between.
    """
    labels = tuple(vertices)
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # read again when a check fails
    n = len(labels)
    index = dict(zip(labels, range(n)))
    if len(index) == n == len(edges) + 1 and all(map(isinstance, edges, repeat((list, tuple)))):
        try:  # an unknown id, an unhashable id or an edge that is not a pair fails here
            ends = [index[a] for a, _ in edges], [index[b] for _, b in edges]
        except (KeyError, TypeError, ValueError):
            pass
        else:
            if set(map(type, labels)) == {str}:  # no id of another kind equals a str
                return labels, index, ends
            named = map(labels.__getitem__, chain.from_iterable(zip(*ends)))
            if all(map(eq, map(_id_kind, chain.from_iterable(edges)), map(_id_kind, named))):
                return labels, index, ends
    _name_fault(labels, edges)


def _rooted(labels: tuple, index: dict, ends: tuple[list[int], list[int]]) -> Tree:
    """Step two of :func:`validate_tree`: one leaf peeling (:func:`_peel`) of
    the edges ``ends`` that keeps vertex 0. After step one, n - 1 peels leave
    no room for a self-loop, a repeated edge or a cycle, and the peel gives
    the one parent array of the tree rooted at 0. Each parent is peeled after
    its child, so 0 followed by the peels in reverse is the order. When the
    peel fails, the fault is named from edges rebuilt from ``labels`` and
    ``ends``; step one proved that they spell the ids as the labels do.
    """
    n = len(labels)
    root = bytearray(n)
    root[0] = 1
    rooted = _peel(list(index.values()), *ends, root)
    if rooted is None or len(rooted[0]) != n - 1:
        at = labels.__getitem__
        _name_fault(labels, list(zip(map(at, ends[0]), map(at, ends[1]))))
    order, parent = rooted
    order.append(0)
    order.reverse()
    return Tree(labels=labels, order=tuple(order), parent=tuple(parent), _ends=ends)


def _name_fault(labels: tuple, edges: Sequence) -> NoReturn:
    """The full check of :func:`_build_graph`, run only when a step of
    :func:`validate_tree` fails and only to name the fault: it ends in a
    raise on every path."""
    n = len(labels)
    _, _, dense_edges, adjacency = _build_graph(labels, edges)
    if len(dense_edges) > n - 1:
        raise HasCycle(f"{len(dense_edges)} edges on {n} vertices force a cycle")
    if len(dense_edges) < n - 1:
        raise NotConnected(f"{len(dense_edges)} edges cannot connect {n} vertices")
    # n - 1 distinct edges and no self-loop, yet the peel failed: some vertex
    # misses vertex 0.
    _require_connected(adjacency)
    raise AssertionError("the leaf peeling refused a connected graph with n - 1 edges")


def validate_tree(vertices: Sequence[Hashable], edges: Iterable[tuple]) -> Tree:
    """Check tree axioms and normalize vertex ids to dense indices.

    Raises :class:`DuplicateEdge`, :class:`HasCycle`, or :class:`NotConnected`
    when the input is not a simple connected acyclic graph, and
    :class:`ValueError` for an edge that is not a pair of vertex ids, names an
    unknown vertex, or names one by an equal id of another type (or, for a
    float zero, another sign).

    A valid tree pays for two steps: the endpoint mapping
    (:func:`_dense_ends`) and one leaf peeling (:func:`_rooted`).
    """
    return _rooted(*_dense_ends(vertices, edges))


class Measure(_ReadOnly):
    """Finitely supported nonnegative mass function on dense vertex indices,
    held as integers over one scale: the mass at ``v`` is ``num[v] / scale``.

    ``scale`` is the lcm of the reduced denominators of the positive masses,
    and ``num`` holds the positive masses only, so equal measures hold equal
    integers and compare equal. Fractions are built only when ``masses`` or
    :meth:`total` is read. ``Measure({v: RationalLike})`` refuses a key that
    is not an int, a bool included, and puts the masses over one scale under
    the charge cap (:func:`rational._over_scale`), so a measure over the cap
    is refused before any mass is scaled. The loader
    and ``radial_measure`` hold integers from the start (:meth:`_of`).
    """

    __slots__ = ("scale", "num")

    def __init__(self, masses: Mapping[int, RationalLike]):
        reduced: dict[int, Fraction] = {}
        for v, raw in masses.items():
            if type(v) is not int:  # "1", 1.0 or True would merge with the vertex 1
                raise ValueError(f"vertex key {_shown(v)} is not an int")
            m = _frac(raw)
            if m.numerator < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                reduced[v] = m
        scale, nums = _over_scale(reduced.values())
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "num", dict(zip(reduced, nums)))

    @classmethod
    def _of(cls, num: dict[int, int], scale: int) -> "Measure":
        """The measure ``num[v] / scale``, taken as given: positive integers over
        the lcm of the reduced denominators of the masses they stand for."""
        measure = cls.__new__(cls)
        object.__setattr__(measure, "scale", scale)
        object.__setattr__(measure, "num", num)
        return measure

    def __len__(self) -> int:
        """The size of the support."""
        return len(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Measure):
            return NotImplemented
        return self.scale == other.scale and self.num == other.num

    @property
    def masses(self) -> dict[int, Fraction]:
        """The positive masses as Fractions, built on each read."""
        return {v: Fraction(x, self.scale) for v, x in self.num.items()}

    def total(self) -> Fraction:
        return Fraction(sum(self.num.values()), self.scale)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.num))

    def scaled(self, c: RationalLike) -> "Measure":
        c = _frac(c)
        return Measure({v: c * m for v, m in self.masses.items()})


class Assignment(_ReadOnly):
    """Signed charges summing to zero (a mass surplus/deficit pattern), held
    as integers over one common denominator: the charge at ``v`` is
    ``num[v] / scale``, and ``num`` holds nonzero integers only.
    :func:`assignment_from` builds one from two measures. Assignments compare
    by identity."""

    __slots__ = ("num", "scale")

    def __init__(self, num: dict[int, int], scale: int):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "scale", scale)

    @property
    def charges(self) -> dict[int, Fraction]:
        """The nonzero charges as reduced Fractions, built on each read."""
        return {v: Fraction(x, self.scale) for v, x in self.num.items()}


class Flow(NamedTuple):
    """Edge function on a rooted tree, one integer per vertex over ``scale``:
    ``up[v] / scale`` is the flow from ``v`` to ``parent[v]``, and 0 at the root."""

    parent: tuple[int, ...]
    up: tuple[int, ...]
    scale: int


def is_edge_lipschitz(phi: Sequence[Fraction | int], tree: Tree) -> bool:
    """True iff the potential ``phi``, one value per vertex, changes by at most
    1 along every edge of ``tree``: the feasibility constraint of the
    Kantorovich-Rubinstein dual, read over the edge endpoints ``_ends``."""
    at = phi.__getitem__
    us, vs = tree._ends
    return max(map(abs, map(sub, map(at, us), map(at, vs))), default=0) <= 1


def _pair_scale(mu: Measure, nu: Measure) -> tuple[int, int, int]:
    """L, the lcm of the two scales under the charge cap, and L / mu.scale, L / nu.scale."""
    scale = _common_scale((mu.scale, nu.scale), len(mu) + len(nu))
    return scale, scale // mu.scale, scale // nu.scale


def _totals_differ(given: int, taken: int, scale: int) -> str:
    """The message for totals ``given / scale`` and ``taken / scale`` that differ:
    each written exactly while it takes 128 bits or fewer (about 40 digits),
    else as its 12-digit decimal, so no huge integer is ever printed."""
    shown = []
    for total in (Fraction(given, scale), Fraction(taken, scale)):
        if total.numerator.bit_length() + total.denominator.bit_length() <= 128:
            shown.append(str(total))
        else:
            shown.append(f"about {decimal_string(total)}")
    return f"total masses differ: {shown[0]} vs {shown[1]}"


def assignment_from(mu: Measure, nu: Measure) -> Assignment:
    """Difference of two measures with equal totals, as integers over L, the
    lcm of their scales and so of all their mass denominators. The charge
    budget is checked first; then each side is scaled once by L / scale, and
    vertices where the two cancel are dropped."""
    scale, up, down = _pair_scale(mu, nu)
    num = {v: x * up for v, x in mu.num.items()}
    given, taken = sum(num.values()), 0
    for v, x in nu.num.items():
        x *= down
        taken += x
        left = num.get(v, 0) - x
        if left:
            num[v] = left
        else:  # mu and nu cancel at v
            del num[v]
    if given != taken:
        raise MassMismatch(_totals_differ(given, taken, scale))
    return Assignment(num, scale)


def unique_flow(tree: Tree, rho: Assignment) -> Flow:
    """The one flow whose divergence equals ``rho``.

    Across each edge the flow carries the net charge of the side cut off by
    removing that edge; one sweep back along the tree's order accumulates those
    subtree sums in O(n) integer additions over ``rho.scale``. The root's sum
    is the total charge, which is 0. The charge budget is checked first.
    """
    n = tree.num_vertices
    _common_scale((rho.scale,), n)
    subtree = [0] * n
    for v, c in rho.num.items():
        if not 0 <= v < n:
            raise ValueError(f"assignment references vertex {v} outside the tree")
        subtree[v] = c
    parent = tree.parent
    for v in reversed(tree.order[1:]):
        if subtree[v]:
            subtree[parent[v]] += subtree[v]
    return Flow(parent, tuple(subtree), rho.scale)


def divergence(tree: Tree, flow: Flow) -> tuple[Fraction, ...]:
    """Net outflow at every vertex."""
    div = list(flow.up)
    for v in tree.order[1:]:
        div[flow.parent[v]] -= flow.up[v]
    return tuple(Fraction(x, flow.scale) for x in div)


def flow_cost(flow: Flow) -> Fraction:
    """Total size of the flow: the sum of |flow| over all edges, divided by the scale once."""
    return Fraction(sum(map(abs, flow.up)), flow.scale)


def good_potential(tree: Tree, flow: Flow) -> tuple[int, ...]:
    """Potential adapted to ``flow``: drops by 1 along each flow-carrying edge
    (in the flow direction) and stays constant across flowless edges.

    The result is one integer level per vertex, pinned to 0 at vertex 0, where
    the tree's order starts; any other pin differs by a constant and pairs
    identically with zero-sum assignments.
    """
    parent, up = flow.parent, flow.up
    level = [0] * tree.num_vertices
    for v in tree.order[1:]:
        x = up[v]
        level[v] = level[parent[v]] + (x > 0) - (x < 0)
    return tuple(level)


def potential_value(rho: Assignment, phi: Sequence[Fraction | int]) -> Fraction:
    """Pairing sum(phi[v] * rho(v)) of a potential, one value per vertex, with
    the charges, summed over rho's common denominator and divided once; equals
    the flow cost for adapted phi."""
    return Fraction(sum(phi[v] * x for v, x in rho.num.items()), rho.scale)


def w1_tree(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """Exact transport distance between equal-mass measures on a tree."""
    rho = assignment_from(mu, nu)
    return flow_cost(unique_flow(tree, rho))
