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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import gt, sub
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import DuplicateEdge, HasCycle, MassMismatch, NotConnected
from .rational import RationalLike, _common_scale, _frac, _over_scale, decimal_string


def _build_graph(vertices: Iterable[Hashable], edges: Iterable) -> tuple[tuple, dict, tuple, tuple]:
    """Map labels to dense indices, check the edges, and build the adjacency.

    Returns ``(labels, index, edges, adjacency)`` with every edge stored once
    as a ``(lo, hi)`` pair. Raises :class:`ValueError` for an empty vertex
    list, a repeated vertex id, or an edge that is not a pair or names an
    unknown vertex; :class:`HasCycle` for a self-loop; and
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
        if u == v:
            raise HasCycle(f"self-loop at vertex {a!r}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdge(f"edge ({a!r}, {b!r}) appears more than once")
        seen.add(key)
        dense_edges.append(key)
    return labels, index, tuple(dense_edges), _adjacency(len(labels), dense_edges)


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


@dataclass(frozen=True)
class Tree:
    """Finite connected acyclic graph over dense vertex indices ``0..n-1``.

    ``labels`` preserves the caller's vertex identifiers, and ``index`` maps
    each back to its dense index; all other structures (and all
    measures/flows/potentials) use the dense indices. ``parent``
    roots the tree at vertex 0 (-1 there), and ``order`` lists every vertex
    after its parent, starting at 0: the reverse of the leaf peeling that
    :func:`validate_tree` ran, or ``0..n-1`` for a tree built from a
    generator's parent array. The flow route reads only these two. The LP
    oracle reads the edge endpoints ``_ends``, and ``edges``, which the
    instance writer reads, is built from them on first read.
    """

    labels: tuple[Hashable, ...]
    order: tuple[int, ...]
    parent: tuple[int, ...]
    #: The dense endpoints of edge k, in input order, at ``_ends[0][k]`` and ``_ends[1][k]``.
    _ends: tuple[Sequence[int], Sequence[int]] = field(repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        """Each label's dense index, built on first read; :func:`validate_tree`
        fills it with the map it builds anyway."""
        return dict(zip(self.labels, range(len(self.labels))))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as a ``(lo, hi)`` pair, in input order."""
        us, vs = self._ends
        return tuple(zip(map(min, us, vs), map(max, us, vs)))

    @classmethod
    def _from_parents(cls, parent: Sequence[int]) -> "Tree":
        """The tree on ``0..n-1`` joining each vertex v > 0 to ``parent[v]``.

        The generator numbers every parent before its children: ``parent[0]``
        is -1 and ``0 <= parent[v] < v`` otherwise, so the n - 1 edges reach
        vertex 0 from everywhere, there is no cycle, and ``0..n-1`` is the
        order. No BFS runs, and the check is two passes in C. Raises
        :class:`ValueError` for any other array.
        """
        labels = tuple(range(len(parent)))
        up, down = parent[1:], labels[1:]
        if not labels or parent[0] != -1 or min(up, default=0) < 0 or not all(map(gt, down, up)):
            raise ValueError("a parent array needs -1 at vertex 0 and "
                             "0 <= parent[v] < v at every other vertex")
        return cls(labels=labels, order=labels, parent=tuple(parent), _ends=(up, down))


def validate_tree(vertices: Sequence[Hashable], edges: Iterable[tuple]) -> Tree:
    """Check tree axioms and normalize vertex ids to dense indices.

    Raises :class:`DuplicateEdge`, :class:`HasCycle`, or :class:`NotConnected`
    when the input is not a simple connected acyclic graph.

    Every valid tree pays for counts and one leaf peeling (:func:`_peel`)
    that keeps vertex 0: n distinct labels, n - 1 edges and n - 1 peels leave
    no room for a self-loop, a repeated edge or a cycle, and the peel gives
    the one parent array of the tree rooted at 0. Each parent is peeled after
    its child, so 0 followed by the peels in reverse is the order. The full
    check of :func:`_build_graph` runs only when one of these fails, and only
    to name the fault: it ends in a raise on every path.
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
            root = bytearray(n)
            root[0] = 1
            rooted = _peel(list(index.values()), *ends, root)
            if rooted is not None and len(rooted[0]) == n - 1:
                order, parent = rooted
                order.append(0)
                order.reverse()
                tree = Tree(labels=labels, order=tuple(order), parent=tuple(parent), _ends=ends)
                object.__setattr__(tree, "index", index)
                return tree
    _, _, dense_edges, adjacency = _build_graph(labels, edges)
    if len(dense_edges) > n - 1:
        raise HasCycle(f"{len(dense_edges)} edges on {n} vertices force a cycle")
    if len(dense_edges) < n - 1:
        raise NotConnected(f"{len(dense_edges)} edges cannot connect {n} vertices")
    # n - 1 distinct edges and no self-loop, yet the peel failed: some vertex
    # misses vertex 0.
    _require_connected(adjacency)
    raise AssertionError("the leaf peeling refused a connected graph with n - 1 edges")


@dataclass(frozen=True, init=False, eq=False)
class Measure:
    """Finitely supported nonnegative mass function on dense vertex indices,
    held as integers over one scale: the mass at ``v`` is ``num[v] / scale``.

    ``scale`` is the lcm of the reduced denominators of the positive masses,
    and ``num`` holds the positive masses only, so equal measures hold equal
    integers and compare equal. Fractions are built only when ``masses`` or
    :meth:`total` is read. ``Measure({v: RationalLike})`` puts the masses
    over one scale under the charge cap (:func:`rational._over_scale`), so a
    measure over the cap is refused before any mass is scaled. The loader
    and ``radial_measure`` hold integers from the start (:meth:`_of`).
    """

    scale: int
    #: The integer numerator of each positive mass over ``scale``.
    num: dict[int, int]

    def __init__(self, masses: Mapping[int, RationalLike]):
        reduced: dict[int, Fraction] = {}
        for v, raw in masses.items():
            m = _frac(raw)
            if m.numerator < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                reduced[int(v)] = m
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


@dataclass(frozen=True, eq=False)
class Assignment:
    """Signed charges summing to zero (a mass surplus/deficit pattern), held
    as integers over one common denominator: the charge at ``v`` is
    ``num[v] / scale``, and ``num`` holds nonzero integers only.
    :func:`assignment_from` builds one from two measures."""

    num: dict[int, int]
    scale: int

    @property
    def charges(self) -> dict[int, Fraction]:
        """The nonzero charges as reduced Fractions, built on each read."""
        return {v: Fraction(x, self.scale) for v, x in self.num.items()}


@dataclass(frozen=True)
class Flow:
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
