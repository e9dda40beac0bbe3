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
from math import lcm
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import DuplicateEdge, HasCycle, MassMismatch, NotConnected
from .rational import RationalLike, _common_scale, _frac
# The charge cap sits beside the scaling helper; it is read here with the other caps.
from .rational import MAX_CHARGE_BITS  # noqa: F401

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

#: Cap on the cells of one ``verify-ineq`` grid, the product of its list
#: lengths. A cell checks the coefficient chain in about 0.2 ms (0.5 ms at a
#: 2,000-bit q), so a grid at the cap runs in about a second; larger grids raise
#: :class:`TooLarge`. The default grid has 216 cells.
MAX_INEQUALITY_CELLS = 2 ** 12

#: Cap on the vertex count of a regular-tree truncation (``w1 --radial``).
#: One at 10^6 vertices takes a few seconds; larger ones raise
#: :class:`TooLarge`, and the closed formulas need no truncation.
MAX_TRUNCATION_VERTICES = 10 ** 6

#: Cap on the size of an instance file, read from the file system before any
#: parsing (a pipe is read to one byte past it). It admits a 10^6-vertex tree
#: with both measures on every vertex: ``bench/gen.py``'s ``random_instance(
#: random.Random(7), 10**6, 10**6)`` writes 180.8 MB, which ``treeot w1 --json``
#: runs in 16 s at a 1.1 GB peak RSS; 2^28 bytes (268 MB) is the power of two
#: above it. Larger files raise :class:`TooLarge`.
MAX_INSTANCE_BYTES = 2 ** 28


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


def _peel(ids: Sequence[int], us: Sequence[int],
          vs: Sequence[int]) -> tuple[list[int], list[int]] | None:
    """Root the graph on ``ids``, the indices ``0..n-1``, with edges
    ``(us[k], vs[k])`` at vertex 0 by peeling leaves; ``(order, parent)`` when
    the n - 1 edges form a tree, else None. Both hold the int objects of
    ``ids``, so they share them with the label map.

    Each vertex keeps its degree and the XOR of its neighbors' indices, so a
    leaf's one remaining neighbor, its parent, is that XOR. Popping a leaf
    other than 0 removes its edge; a neighbor whose degree falls to 1 becomes
    a leaf. A popped vertex of degree 0 lost its last edge to a leaf peeled
    before it, so its component misses vertex 0. Peeling all n - 1 other
    vertices removes n - 1 distinct edges, so no self-loop, repeated edge or
    cycle is left, and each parent is peeled after its child: ``order`` is 0
    followed by the peels in reverse.
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
    peeled = [v for v in ids if v and degree[v] == 1]
    for v in peeled:  # the loop also visits the leaves it appends
        if not degree[v]:
            return None
        p = parent[v] = ids[link[v]]
        link[p] ^= v
        degree[p] -= 1
        if degree[p] == 1 and p:
            peeled.append(p)
    if len(peeled) != n - 1:
        return None
    peeled.append(0)
    peeled.reverse()
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

    ``labels`` preserves the caller's vertex identifiers; all other structures
    (and all measures/flows/potentials) use the dense indices. ``parent``
    roots the tree at vertex 0 (-1 there), and ``order`` lists every vertex
    after its parent, starting at 0: the reverse of the leaf peeling that
    :func:`validate_tree` ran, or ``0..n-1`` for a tree built from a
    generator's parent array. The flow route reads only these two. ``edges``
    and ``adjacency``, which the LP oracle and the instance writer read, are
    built from the edge endpoints on first read.
    """

    labels: tuple[Hashable, ...]
    index: dict
    order: tuple[int, ...]
    parent: tuple[int, ...]
    #: The dense endpoints of edge k, in input order, at ``_ends[0][k]`` and ``_ends[1][k]``.
    _ends: tuple[Sequence[int], Sequence[int]] = field(repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge once, as a ``(lo, hi)`` pair, in input order."""
        us, vs = self._ends
        return tuple(zip(map(min, us, vs), map(max, us, vs)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """The neighbors of each vertex, in edge order."""
        return _adjacency(len(self.labels), zip(*self._ends))

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
        return cls(labels=labels, index=dict(zip(labels, labels)), order=labels,
                   parent=tuple(parent), _ends=(parent[1:], labels[1:]))


def validate_tree(vertices: Sequence[Hashable], edges: Iterable[tuple]) -> Tree:
    """Check tree axioms and normalize vertex ids to dense indices.

    Raises :class:`DuplicateEdge`, :class:`HasCycle`, or :class:`NotConnected`
    when the input is not a simple connected acyclic graph.

    Every valid tree pays for counts and one leaf peeling (:func:`_peel`): n
    distinct labels, n - 1 edges and n - 1 peels toward vertex 0 leave no room
    for a self-loop, a repeated edge or a cycle, and the peel gives the one
    parent array of the tree rooted at 0. The full check of
    :func:`_build_graph` runs only when one of these fails, and only to name
    the fault: it ends in a raise on every path.
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
            rooted = _peel(list(index.values()), *ends)
            if rooted is not None:
                order, parent = rooted
                return Tree(labels=labels, index=index, order=tuple(order),
                            parent=tuple(parent), _ends=ends)
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
    integers and compare equal. Fractions are built only when ``masses``,
    :meth:`value` or :meth:`total` is read. ``Measure({v: RationalLike})``
    reduces each mass and takes the lcm at once, but scales the numerators on
    the first read of ``num``: :func:`assignment_from` checks the charge
    budget first. The loader and ``radial_measure`` hold integers from the
    start (:meth:`_of`).
    """

    scale: int
    #: Each support vertex with its reduced mass, which ``num`` scales on first
    #: read; a measure built by :meth:`_of` keeps ``num`` here.
    _support: Mapping[int, Fraction | int] = field(repr=False)

    def __init__(self, masses: Mapping[int, RationalLike]):
        reduced: dict[int, Fraction] = {}
        for v, raw in masses.items():
            m = _frac(raw)
            if m.numerator < 0:
                raise ValueError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                reduced[int(v)] = m
        object.__setattr__(self, "scale", lcm(*{m.denominator for m in reduced.values()}))
        object.__setattr__(self, "_support", reduced)

    @classmethod
    def _of(cls, num: dict[int, int], scale: int) -> "Measure":
        """The measure ``num[v] / scale``, taken as given: positive integers over
        the lcm of the reduced denominators of the masses they stand for."""
        measure = cls.__new__(cls)
        object.__setattr__(measure, "scale", scale)
        object.__setattr__(measure, "_support", num)
        measure.__dict__["num"] = num
        return measure

    @cached_property
    def num(self) -> dict[int, int]:
        """The integer numerator of each positive mass over ``scale``."""
        return {v: m.numerator * (self.scale // m.denominator) for v, m in self._support.items()}

    def __len__(self) -> int:
        """The size of the support."""
        return len(self._support)

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
        return tuple(sorted(self._support))

    def value(self, v: int) -> Fraction:
        return Fraction(self.num.get(v, 0), self.scale)

    def scaled(self, c: RationalLike) -> "Measure":
        c = _frac(c)
        return Measure({v: c * m for v, m in self.masses.items()})


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

    @classmethod
    def _of(cls, num: dict[int, int], scale: int) -> "Assignment":
        """The charges ``num[v] / scale``, taken as given: nonzero integers that
        sum to zero."""
        rho = cls.__new__(cls)
        object.__setattr__(rho, "num", num)
        object.__setattr__(rho, "scale", scale)
        return rho

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

    def is_edge_lipschitz(self, graph) -> bool:
        """True iff the potential changes by at most 1 along every edge of
        ``graph``, a :class:`Tree` or an ``lp.FiniteGraph``."""
        return all(abs(self.values[u] - self.values[v]) <= 1 for u, v in graph.edges)


def _pair_scale(mu: Measure, nu: Measure) -> tuple[int, int, int]:
    """L, the lcm of the two scales under the charge cap, and L / mu.scale, L / nu.scale."""
    scale = _common_scale((mu.scale, nu.scale), len(mu) + len(nu))
    return scale, scale // mu.scale, scale // nu.scale


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
        raise MassMismatch(f"total masses differ: {Fraction(given, scale)} vs "
                           f"{Fraction(taken, scale)}")
    return Assignment._of(num, scale)


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
