"""Exact 1-Wasserstein distance on finite trees.

Costs are hop counts and every mass, charge, flow value, and potential value
is a :class:`fractions.Fraction`, so all identities in this module hold
exactly. The backbone facts: on a tree there is exactly one flow whose
divergence matches a given zero-sum assignment (the value across an edge is
the net charge on one side), the cost of that flow is the transport distance,
and pairing the assignment with any potential adapted to the flow yields the
same number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Protocol, Sequence

from .errors import DuplicateEdge, HasCycle, MassMismatch, NotConnected
from .rational import RationalLike, _frac


def _build_graph(vertices: Iterable[Hashable], edges: Iterable) -> tuple[tuple, dict, tuple, tuple]:
    """Map labels to dense indices, check the edges, and build the sorted adjacency.

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

    neighbor_lists: list[list[int]] = [[] for _ in labels]
    for u, v in dense_edges:
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbor_lists)
    return labels, index, tuple(dense_edges), adjacency


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
    (and all measures/flows/potentials) use the dense indices. ``order`` and
    ``parent`` are the BFS from vertex 0 that validation ran: the tree rooted
    at 0, with ``parent`` -1 at the root.
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
        """Hop distances from ``source`` to every vertex."""
        return _hop_distances(self.adjacency, source)


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
            if m < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m:
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


@dataclass(frozen=True)
class Assignment:
    """Signed charges summing to zero (a mass surplus/deficit pattern)."""

    charges: Mapping[int, Fraction]

    def __post_init__(self) -> None:
        cleaned = {int(v): _frac(c) for v, c in self.charges.items() if _frac(c)}
        if sum(cleaned.values(), Fraction(0)) != 0:
            raise ValueError("assignment charges must sum to zero")
        object.__setattr__(self, "charges", cleaned)

    def value(self, v: int) -> Fraction:
        return self.charges.get(v, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.charges))


@dataclass(frozen=True)
class Flow:
    """Edge function on a rooted tree, one value per vertex: ``up[v]`` is the
    flow from ``v`` to ``parent[v]``, and 0 at the root."""

    parent: tuple[int, ...]
    up: tuple[Fraction, ...]

    def signed(self, u: int, v: int) -> Fraction:
        """Flow from u to v; antisymmetric, zero unless u and v are adjacent."""
        if self.parent[u] == v:
            return self.up[u]
        if self.parent[v] == u:
            return -self.up[v]
        return Fraction(0)


@dataclass(frozen=True)
class Potential:
    """Vertex function; feasible when it changes by at most 1 along any edge."""

    values: tuple[Fraction, ...]

    def value(self, v: int) -> Fraction:
        return self.values[v]

    def __getitem__(self, v: int) -> Fraction:
        return self.values[v]

    def is_edge_lipschitz(self, graph: _HasEdges) -> bool:
        """True iff the potential changes by at most 1 along every edge."""
        return all(abs(self.values[u] - self.values[v]) <= 1 for u, v in graph.edges)


def assignment_from(mu: Measure, nu: Measure) -> Assignment:
    """Difference of two measures with equal totals."""
    if mu.total() != nu.total():
        raise MassMismatch(f"total masses differ: {mu.total()} vs {nu.total()}")
    charges: dict[int, Fraction] = dict(mu.masses)
    for v, m in nu.masses.items():
        charges[v] = charges.get(v, Fraction(0)) - m
    return Assignment(charges)


def unique_flow(tree: Tree, rho: Assignment) -> Flow:
    """The one flow whose divergence equals ``rho``.

    Across each edge the flow carries the net charge of the side cut off by
    removing that edge; one sweep up the tree's BFS order accumulates those
    subtree sums in O(n) exact operations. The root's sum is the total
    charge, which is 0.
    """
    n = tree.num_vertices
    subtree = [Fraction(0)] * n
    for v, c in rho.charges.items():
        if not 0 <= v < n:
            raise ValueError(f"assignment references vertex {v} outside the tree")
        subtree[v] = c
    parent = tree.parent
    for v in reversed(tree.order[1:]):
        if subtree[v]:
            subtree[parent[v]] += subtree[v]
    return Flow(parent, tuple(subtree))


def divergence(tree: Tree, flow: Flow) -> tuple[Fraction, ...]:
    """Net outflow at every vertex."""
    div = list(flow.up)
    for v in tree.order[1:]:
        div[flow.parent[v]] -= flow.up[v]
    return tuple(div)


def flow_cost(flow: Flow) -> Fraction:
    """Total size of the flow: the sum of |flow| over all edges."""
    return sum((abs(x) for x in flow.up if x), Fraction(0))


def good_potential(tree: Tree, flow: Flow, root: int = 0) -> Potential:
    """Potential adapted to ``flow``: drops by 1 along each flow-carrying edge
    (in the flow direction) and stays constant across flowless edges.

    The result is pinned to 0 at ``root``; any other choice differs by a
    constant and pairs identically with zero-sum assignments.
    """
    parent, up = flow.parent, flow.up
    level = [0] * tree.num_vertices
    for v in tree.order[1:]:
        x = up[v]
        level[v] = level[parent[v]] + (x > 0) - (x < 0)
    base = level[root]
    return Potential(tuple(Fraction(h - base) for h in level))


def potential_value(rho: Assignment, phi: Potential) -> Fraction:
    """Pairing sum(phi(v) * rho(v)); equals the flow cost for adapted phi."""
    return sum((phi.value(v) * c for v, c in rho.charges.items()), Fraction(0))


def w1_tree(tree: Tree, mu: Measure, nu: Measure) -> Fraction:
    """Exact transport distance between equal-mass measures on a tree."""
    rho = assignment_from(mu, nu)
    return flow_cost(unique_flow(tree, rho))
