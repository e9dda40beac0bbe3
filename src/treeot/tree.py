"""Exact 1-Wasserstein distance on finite trees.

Costs are hop counts and masses are Fractions. The tree route scales every
mass once by L, the lcm of the denominators, runs the flow and the pairing
in integers over L, and divides by L once, so all identities hold exactly.
The backbone facts: on a tree there is exactly one flow whose divergence
matches a given zero-sum assignment (the value across an edge is the net
charge on one side), the cost of that flow is the transport distance, and
pairing the assignment with any potential adapted to the flow yields the
same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Protocol, Sequence

from .errors import DuplicateEdge, HasCycle, MassMismatch, NotConnected, TooLarge
from .rational import RationalLike, _frac

#: Budget for the integer charges: bits(L) times the number of values held
#: over L (about 128 MiB of digits). Larger instances raise :class:`TooLarge`.
MAX_CHARGE_BITS = 2 ** 30

#: Cap on bits(S) * order for the families' size knobs (``series --order``,
#: ``sweep --n``), where S is the per-step scale: den(alpha) * (q+1) for the
#: walk, q + 1 for spheres and balls. A time-n coefficient has a denominator of
#: about n * bits(S) bits at most, so every printed rational stays near 620
#: digits, far under Python's 4,300-digit limit, and one series runs in under
#: a second. Larger requests raise :class:`TooLarge`. The same cap bounds
#: bits(q) * ceil(d / 2) for a center distance d, which sets the size of
#: q^(d/2) in the asymptotes.
MAX_SERIES_BITS = 2 ** 11

#: Cap on the work of one ``sweep``: the class-sum formula takes about
#: (floor(d/2) + 1)(n + 1) big-integer steps per cell, summed over every cell
#: of the grid. A step costs about a microsecond at d = 2,048, so a grid at the
#: cap runs in a few seconds; larger grids raise :class:`TooLarge`.
MAX_SWEEP_STEPS = 2 ** 21

#: Cap on the vertex count of a regular-tree truncation (``w1 --radial``).
#: One at 10^6 vertices takes a few seconds; larger ones raise
#: :class:`TooLarge`, and the closed formulas need no truncation.
MAX_TRUNCATION_VERTICES = 10 ** 6


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


def _bfs(adjacency: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
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


def _hop_distances(adjacency: Sequence[Sequence[int]], source: int) -> list[int]:
    """Hop distances from ``source`` to every vertex; -1 where unreached."""
    order, parent = _bfs(adjacency, source)
    dist = [-1] * len(adjacency)
    dist[source] = 0
    for v in order[1:]:
        dist[v] = dist[parent[v]] + 1
    return dist


def _require_connected(adjacency: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """The BFS from vertex 0; raises :class:`NotConnected` unless it reaches every vertex."""
    order, parent = _bfs(adjacency, 0)
    if len(order) != len(adjacency):
        raise NotConnected(f"only {len(order)} of {len(adjacency)} vertices reachable from vertex 0")
    return order, parent


class _HasEdges(Protocol):
    """Any graph over dense indices: a :class:`Tree` or an ``lp.FiniteGraph``."""

    @property
    def edges(self) -> tuple[tuple[int, int], ...]: ...


@dataclass(frozen=True)
class Tree:
    """Finite connected acyclic graph over dense vertex indices ``0..n-1``.

    ``labels`` preserves the caller's vertex identifiers; all other structures
    (and all measures/flows/potentials) use the dense indices. ``parent``
    roots the tree at vertex 0 (-1 there), and ``order`` lists every vertex
    after its parent, starting at 0: the BFS that :func:`validate_tree` ran,
    or ``0..n-1`` for a tree built from a generator's parent array.
    """

    labels: tuple[Hashable, ...]
    index: dict
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    parent: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distances from ``source``, by one BFS."""
        return _hop_distances(self.adjacency, source)

    @classmethod
    def _from_parents(cls, parent: Sequence[int]) -> "Tree":
        """The tree on ``0..n-1`` joining each vertex v > 0 to ``parent[v]``.

        The generator numbers every parent before its children: ``parent[0]``
        is -1 and ``0 <= parent[v] < v`` otherwise, so the n - 1 edges reach
        vertex 0 from everywhere, there is no cycle, and ``0..n-1`` is the
        order. No BFS runs. Raises :class:`ValueError` for any other array.
        """
        n = len(parent)
        if not n or parent[0] != -1 or not all(0 <= parent[v] < v for v in range(1, n)):
            raise ValueError("a parent array needs -1 at vertex 0 and "
                             "0 <= parent[v] < v at every other vertex")
        labels = tuple(range(n))
        edges = tuple(zip(parent[1:], labels[1:]))
        return cls(labels=labels, index=dict(zip(labels, labels)), edges=edges,
                   adjacency=_adjacency(n, edges), order=labels, parent=tuple(parent))


def validate_tree(vertices: Sequence[Hashable], edges: Iterable[tuple]) -> Tree:
    """Check tree axioms and normalize vertex ids to dense indices.

    Raises :class:`DuplicateEdge`, :class:`HasCycle`, or :class:`NotConnected`
    when the input is not a simple connected acyclic graph.
    """
    labels, index, dense_edges, adjacency = _build_graph(vertices, edges)
    n = len(labels)
    if len(dense_edges) > n - 1:
        raise HasCycle(f"{len(dense_edges)} edges on {n} vertices force a cycle")
    if len(dense_edges) < n - 1:
        raise NotConnected(f"{len(dense_edges)} edges cannot connect {n} vertices")
    # |E| = |V| - 1, so connectivity also rules out cycles.
    order, parent = _require_connected(adjacency)
    return Tree(labels=labels, index=index, edges=dense_edges, adjacency=adjacency,
                order=tuple(order), parent=tuple(parent))


@dataclass(frozen=True)
class Measure:
    """Finitely supported nonnegative mass function on dense vertex indices."""

    masses: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        cleaned: dict[int, Fraction] = {}
        for v, raw in self.masses.items():
            m = _frac(raw)
            if m.numerator < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                cleaned[int(v)] = m
        object.__setattr__(self, "masses", cleaned)

    def total(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.masses))

    def value(self, v: int) -> Fraction:
        return self.masses.get(v, Fraction(0))

    def scaled(self, c: RationalLike) -> "Measure":
        c = _frac(c)
        return Measure({v: c * m for v, m in self.masses.items()})


def _common_scale(denominators: Iterable[int], count: int) -> int:
    """L, the lcm of ``denominators``, grown one at a time; raises :class:`TooLarge`
    as soon as ``count`` integers over L would pass :data:`MAX_CHARGE_BITS`."""
    scale = 1
    for d in denominators:
        scale = math.lcm(scale, d)
        if scale.bit_length() * count > MAX_CHARGE_BITS:
            raise TooLarge(f"a common denominator of {scale.bit_length()} bits over {count} "
                           f"values exceeds the {MAX_CHARGE_BITS}-bit charge cap")
    return scale


@dataclass(frozen=True, eq=False)
class Assignment:
    """Signed charges summing to zero (a mass surplus/deficit pattern), held
    as integers over one common denominator: the charge at ``v`` is
    ``num[v] / scale``. :meth:`of` builds one from rational charges."""

    num: Mapping[int, int]
    scale: int

    def __post_init__(self) -> None:
        cleaned = {v: x for v, x in self.num.items() if x}
        if sum(cleaned.values()) != 0:
            raise ValueError("assignment charges must sum to zero")
        object.__setattr__(self, "num", cleaned)

    @classmethod
    def of(cls, charges: Mapping[int, RationalLike]) -> "Assignment":
        fracs = {int(v): _frac(c) for v, c in charges.items()}
        scale = _common_scale({c.denominator for c in fracs.values()}, len(fracs))
        return cls({v: c.numerator * (scale // c.denominator) for v, c in fracs.items()}, scale)

    @property
    def charges(self) -> dict[int, Fraction]:
        """The nonzero charges as reduced Fractions, built on each read."""
        return {v: Fraction(x, self.scale) for v, x in self.num.items()}

    def value(self, v: int) -> Fraction:
        return Fraction(self.num.get(v, 0), self.scale)


@dataclass(frozen=True)
class Flow:
    """Edge function on a rooted tree, one integer per vertex over ``scale``:
    ``up[v] / scale`` is the flow from ``v`` to ``parent[v]``, and 0 at the root."""

    parent: tuple[int, ...]
    up: tuple[int, ...]
    scale: int

    def signed(self, u: int, v: int) -> Fraction:
        """Flow from u to v; antisymmetric, zero unless u and v are adjacent."""
        if self.parent[u] == v:
            return Fraction(self.up[u], self.scale)
        if self.parent[v] == u:
            return Fraction(-self.up[v], self.scale)
        return Fraction(0)


@dataclass(frozen=True)
class Potential:
    """Vertex function; feasible when it changes by at most 1 along any edge.
    Values are Fractions, or ints for the levels of :func:`good_potential`."""

    values: tuple[Fraction | int, ...]

    def value(self, v: int) -> Fraction | int:
        return self.values[v]

    def is_edge_lipschitz(self, graph: _HasEdges) -> bool:
        """True iff the potential changes by at most 1 along every edge."""
        return all(abs(self.values[u] - self.values[v]) <= 1 for u, v in graph.edges)


def assignment_from(mu: Measure, nu: Measure) -> Assignment:
    """Difference of two measures with equal totals, as integers over L, the
    lcm of all their mass denominators; each mass is scaled once."""
    denominators = {m.denominator for m in mu.masses.values()}
    denominators.update(m.denominator for m in nu.masses.values())
    scale = _common_scale(denominators, len(mu.masses) + len(nu.masses))
    factor = {d: scale // d for d in denominators}
    num, take = ({v: m.numerator * factor[m.denominator] for v, m in side.masses.items()}
                 for side in (mu, nu))
    given, taken = sum(num.values()), sum(take.values())
    if given != taken:
        raise MassMismatch(f"total masses differ: {Fraction(given, scale)} vs "
                           f"{Fraction(taken, scale)}")
    for v, x in take.items():
        num[v] = num.get(v, 0) - x
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


def good_potential(tree: Tree, flow: Flow) -> Potential:
    """Potential adapted to ``flow``: drops by 1 along each flow-carrying edge
    (in the flow direction) and stays constant across flowless edges.

    The result holds integer levels pinned to 0 at vertex 0, where the tree's
    order starts; any other pin differs by a constant and pairs identically
    with zero-sum assignments.
    """
    parent, up = flow.parent, flow.up
    level = [0] * tree.num_vertices
    for v in tree.order[1:]:
        x = up[v]
        level[v] = level[parent[v]] + (x > 0) - (x < 0)
    return Potential(tuple(level))


def potential_value(rho: Assignment, phi: Potential) -> Fraction:
    """Pairing sum(phi(v) * rho(v)), summed over rho's common denominator and
    divided once; equals the flow cost for adapted phi."""
    values = phi.values
    return Fraction(sum(values[v] * x for v, x in rho.num.items()), rho.scale)


def w1_tree(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """Exact transport distance between equal-mass measures on a tree."""
    rho = assignment_from(mu, nu)
    return flow_cost(unique_flow(tree, rho))
