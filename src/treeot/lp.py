"""Independent exact oracle for transport distances on small finite graphs.

Solves the primal transportation linear program with an exact simplex over
rationals (costs stay integers, so dual values and reduced costs are integers
too), and provides the dual-side checks: 1-Lipschitz feasibility, duality-gap
certificates, and complementary slackness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InfeasiblePotential, MassMismatch, TooLarge
from .rational import _frac
from .tree import (Measure, Potential, Tree, _bfs, _build_graph, _hop_distances,
                   _require_connected)

#: Supports larger than this are refused; the exact simplex is for desk-scale
#: verification, not production-scale solving.
MAX_SUPPORT = 40


@dataclass(frozen=True)
class FiniteGraph:
    """Connected simple graph; hop distances from a source vertex are computed
    by one BFS on first use, so only the rows a caller reads are ever built."""

    labels: tuple[Hashable, ...]
    index: dict
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def distance(self, u: int, v: int) -> int:
        row = self._rows.get(u)
        if row is None:
            row = self._rows[u] = _hop_distances(self.adjacency, u)
        return row[v]

    @classmethod
    def build(cls, vertices: Sequence[Hashable], edges: Iterable[tuple]) -> "FiniteGraph":
        labels, index, dense_edges, adjacency = _build_graph(vertices, edges)
        _require_connected(adjacency)
        return cls(labels=labels, index=index, edges=dense_edges, adjacency=adjacency)

    @classmethod
    def from_tree(cls, tree: Tree) -> "FiniteGraph":
        """The tree as a graph, sharing its validated structures; the tree
        builds its edges and adjacency here, on their first read."""
        return cls(labels=tree.labels, index=tree.index, edges=tree.edges,
                   adjacency=tree.adjacency)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative mass moved between vertex pairs."""

    entries: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        cleaned = {}
        for (u, v), raw in self.entries.items():
            x = _frac(raw)
            if x < 0:
                raise ValueError(f"negative plan entry at ({u}, {v})")
            if x:
                cleaned[(int(u), int(v))] = x
        object.__setattr__(self, "entries", cleaned)

    def cost(self, graph: FiniteGraph) -> Fraction:
        return sum((graph.distance(u, v) * x for (u, v), x in self.entries.items()), Fraction(0))

    def marginals(self) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
        rows: dict[int, Fraction] = {}
        cols: dict[int, Fraction] = {}
        for (u, v), x in self.entries.items():
            rows[u] = rows.get(u, Fraction(0)) + x
            cols[v] = cols.get(v, Fraction(0)) + x
        return rows, cols

    def satisfies_marginals(self, mu: Measure, nu: Measure) -> bool:
        rows, cols = self.marginals()
        return rows == dict(mu.masses) and cols == dict(nu.masses)


def _check_support(mu: Measure, nu: Measure) -> None:
    """Raises :class:`TooLarge` when either support passes :data:`MAX_SUPPORT`."""
    if len(mu) > MAX_SUPPORT or len(nu) > MAX_SUPPORT:
        raise TooLarge(f"supports of size {len(mu)}x{len(nu)} exceed the "
                       f"{MAX_SUPPORT}-point oracle cap")


def w1_lp(graph: FiniteGraph, mu: Measure, nu: Measure) -> tuple[Fraction, TransportPlan]:
    """Exact optimum of the transportation LP plus one optimal plan."""
    _check_support(mu, nu)
    sources = mu.support()
    sinks = nu.support()
    given, taken = mu.total(), nu.total()
    if given != taken:
        raise MassMismatch(f"total masses differ: {given} vs {taken}")
    for v in (*sources, *sinks):
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"measure references vertex {v} outside the graph")
    if not sources:
        return Fraction(0), TransportPlan({})

    costs = [[graph.distance(u, v) for v in sinks] for u in sources]
    supply = [mu.value(u) for u in sources]
    demand = [nu.value(v) for v in sinks]
    value, cells = _transportation_simplex(costs, supply, demand)
    plan = TransportPlan({(sources[i], sinks[j]): x for (i, j), x in cells.items() if x})
    return value, plan


def _transportation_simplex(
    costs: list[list[int]], supply: list[Fraction], demand: list[Fraction]
) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Primal simplex on the transportation polytope, exact over rationals.

    The basis is always a spanning tree of the bipartite supply/demand graph.
    Bland's rule (lexicographically smallest entering cell with negative
    reduced cost, smallest leaving cell among ties) rules out cycling.
    """
    m, n = len(supply), len(demand)

    # Northwest-corner start: a staircase spanning tree with m+n-1 cells.
    alloc: dict[tuple[int, int], Fraction] = {}
    basis: set[tuple[int, int]] = set()
    ra = list(supply)
    cb = list(demand)
    i = j = 0
    while True:
        x = min(ra[i], cb[j])
        alloc[(i, j)] = x
        basis.add((i, j))
        ra[i] -= x
        cb[j] -= x
        if i == m - 1 and j == n - 1:
            break
        if ra[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    max_pivots = 50 * (m + n + 1) ** 2
    for _ in range(max_pivots):
        u, v = _duals(costs, basis, m, n)
        entering = None
        for ii in range(m):
            row_cost = costs[ii]
            ui = u[ii]
            for jj in range(n):
                if (ii, jj) not in basis and row_cost[jj] - ui - v[jj] < 0:
                    entering = (ii, jj)
                    break
            if entering:
                break
        if entering is None:
            value = sum((costs[ii][jj] * x for (ii, jj), x in alloc.items()), Fraction(0))
            return value, alloc

        path = _basis_path(basis, entering, m, n)
        minus = path[0::2]  # cells whose allocation decreases
        plus = path[1::2]
        theta = min(alloc[c] for c in minus)
        leaving = min(c for c in minus if alloc[c] == theta)
        for c in minus:
            alloc[c] -= theta
        for c in plus:
            alloc[c] += theta
        alloc[entering] = theta
        basis.add(entering)
        basis.discard(leaving)
        del alloc[leaving]
    raise RuntimeError("transportation simplex failed to terminate")


def _basis_tree(basis, m, n):
    """The basis as an adjacency list: rows are nodes 0..m-1, columns m..m+n-1."""
    adjacency: list[list[int]] = [[] for _ in range(m + n)]
    for i, j in basis:
        adjacency[i].append(m + j)
        adjacency[m + j].append(i)
    return adjacency


def _duals(costs, basis, m, n):
    """Dual prices from the basis tree, rooted at supply node 0."""
    order, parent = _bfs(_basis_tree(basis, m, n), 0)
    price = [0] * (m + n)
    for node in order[1:]:
        p = parent[node]
        if node >= m:
            price[node] = costs[p][node - m] - price[p]
        else:
            price[node] = costs[node][p - m] - price[p]
    return price[:m], price[m:]


def _basis_path(basis, entering, m, n):
    """Cells along the unique basis-tree path closing the entering cell's cycle.

    Returned in order from the entering cell's row end to its column end, so
    cells at even positions lose allocation when the entering cell gains.
    """
    i0, j0 = entering
    _, parent = _bfs(_basis_tree(basis, m, n), i0)
    cells = []
    node = m + j0
    while node != i0:
        p = parent[node]
        cells.append((p, node - m) if node >= m else (node, p - m))
        node = p
    return cells[::-1]


@dataclass(frozen=True)
class DualityReport:
    primal: Fraction
    dual: Fraction
    optimal_certificate: bool
    plan: TransportPlan

    def as_dict(self) -> dict:
        return {
            "primal": str(self.primal),
            "dual": str(self.dual),
            "certificate": self.optimal_certificate,
        }


def verify_duality(graph: FiniteGraph, mu: Measure, nu: Measure, phi: Potential) -> DualityReport:
    """Compare the LP optimum against the value of a feasible potential.

    The certificate flag is True exactly when ``phi`` attains the optimum,
    i.e. when it is an optimal dual solution.
    """
    primal, plan = w1_lp(graph, mu, nu)  # refuses supports over the cap before any O(n) pass
    if not phi.is_edge_lipschitz(graph):
        raise InfeasiblePotential("potential jumps by more than 1 across an edge")
    dual = sum(((mu.value(v) - nu.value(v)) * phi.value(v)
                for v in set(mu.support()) | set(nu.support())), Fraction(0))
    return DualityReport(primal=primal, dual=dual,
                         optimal_certificate=(primal == dual), plan=plan)


def check_complementary_slackness(graph: FiniteGraph, plan: TransportPlan, phi: Potential) -> bool:
    """Every positive plan entry must descend the potential at full distance."""
    return all(phi.value(u) - phi.value(v) == graph.distance(u, v)
               for (u, v), x in plan.entries.items() if x > 0)
