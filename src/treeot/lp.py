"""Independent exact oracle for transport distances on small finite graphs.

Solves the primal transportation linear program with an exact simplex over
the integers, and provides the dual-side checks: 1-Lipschitz feasibility,
duality-gap certificates, and complementary slackness.

The masses enter as integers over L, the lcm of the two measures' scales.
The transportation matrix is totally unimodular, so with integer supplies
and demands every basic solution is integral; the costs are hop counts, so
dual prices and reduced costs are integers too. Only the value and the plan
entries become Fractions over L, once, at the end. The basis is one rooted
spanning tree kept across pivots: a pivot re-hangs and re-prices only the
subtree that the leaving cell cuts off. Bland's rule and its tie-break pick
the entering and leaving cells, so the pivots and the plan do not depend on
how the tree is stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import InfeasiblePotential, MassMismatch, TooLarge
from .rational import _frac
from .tree import (Measure, Potential, Tree, _build_graph, _hop_distances, _pair_scale,
                   _require_connected, assignment_from, potential_value)

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
    """Exact optimum of the transportation LP plus one optimal plan.

    The simplex runs on the masses as integers over L, the lcm of the two
    scales; the value and each plan entry become a Fraction over L at the end.
    """
    _check_support(mu, nu)
    sources = mu.support()
    sinks = nu.support()
    scale, up, down = _pair_scale(mu, nu)
    supply = [mu.num[u] * up for u in sources]
    demand = [nu.num[v] * down for v in sinks]
    if sum(supply) != sum(demand):
        raise MassMismatch(f"total masses differ: {mu.total()} vs {nu.total()}")
    for v in (*sources, *sinks):
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"measure references vertex {v} outside the graph")
    if not sources:
        return Fraction(0), TransportPlan({})

    costs = [[graph.distance(u, v) for v in sinks] for u in sources]
    value, cells = _transportation_simplex(costs, supply, demand)
    plan = TransportPlan({(sources[i], sinks[j]): Fraction(x, scale)
                          for (i, j), x in cells.items() if x})
    return Fraction(value, scale), plan


def _transportation_simplex(
    costs: list[list[int]], supply: list[int], demand: list[int]
) -> tuple[int, dict[tuple[int, int], int]]:
    """Primal simplex on the transportation polytope, exact over the integers.

    Supplies and demands are integers with equal totals. The constraint matrix
    is totally unimodular, so every basic solution is integral, and the duals
    are integers because the costs are. Returns the optimal value and the
    allocation of every basic cell, zero-valued ones included.

    The basis is a spanning tree of the bipartite supply/demand graph (rows
    are nodes 0..m-1, columns m..m+n-1), kept rooted at row 0 with its
    parent, depth and dual price across pivots. A pivot closes the entering
    cell's cycle by climbing from both of its ends to their common ancestor.
    The leaving cell cuts off the subtree under it; the entering cell's end
    inside that subtree is hung from its other end, and only that subtree is
    re-priced. Bland's rule (lexicographically smallest entering cell with
    negative reduced cost, smallest leaving cell among ties) rules out
    cycling.
    """
    m, n = len(supply), len(demand)

    # Northwest-corner start: a staircase spanning tree with m+n-1 cells.
    alloc: dict[tuple[int, int], int] = {}
    adjacency: list[set[int]] = [set() for _ in range(m + n)]
    ra = list(supply)
    cb = list(demand)
    i = j = 0
    while True:
        x = min(ra[i], cb[j])
        alloc[(i, j)] = x
        adjacency[i].add(m + j)
        adjacency[m + j].add(i)
        ra[i] -= x
        cb[j] -= x
        if i == m - 1 and j == n - 1:
            break
        if ra[i] == 0 and i < m - 1:
            i += 1
        else:
            j += 1

    # Row 0 is the root, priced 0; u = price[:m] and v = price[m:].
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    price = [0] * (m + n)
    _hang(costs, m, adjacency, parent, depth, price, 0)

    max_pivots = 50 * (m + n + 1) ** 2
    for _ in range(max_pivots):
        # Basic cells price to exactly 0, so the first negative one is nonbasic.
        v = price[m:]
        entering = None
        for ii in range(m):
            row, ui = costs[ii], price[ii]
            if min(map(sub, row, v)) < ui:
                entering = (ii, next(jj for jj in range(n) if row[jj] - v[jj] < ui))
                break
        if entering is None:
            return sum(costs[ii][jj] * x for (ii, jj), x in alloc.items()), alloc

        # The basis path from the entering cell's row end to its column end:
        # each climbed node stands for the cell to its parent. A tree path has
        # at most m + n - 1 cells, so a longer climb means parent and depth disagree.
        i0, j0 = entering
        a, b = i0, m + j0
        left: list[int] = []
        right: list[int] = []
        for _ in range(m + n):
            if a == b:
                break
            if depth[a] >= depth[b]:
                left.append(a)
                a = parent[a]
            else:
                right.append(b)
                b = parent[b]
        else:
            raise RuntimeError("transportation simplex basis tree is inconsistent")
        nodes = left + right[::-1]
        path = [(x, parent[x] - m) if x < m else (parent[x], x - m) for x in nodes]
        minus = path[0::2]  # cells whose allocation decreases
        plus = path[1::2]
        theta = min(alloc[c] for c in minus)
        leaving = min(c for c in minus if alloc[c] == theta)
        for c in minus:
            alloc[c] -= theta
        for c in plus:
            alloc[c] += theta
        alloc[entering] = theta
        del alloc[leaving]

        # Cut the leaving cell, then hang the cut-off side from the entering cell.
        k = path.index(leaving)
        low = nodes[k]
        adjacency[low].discard(parent[low])
        adjacency[parent[low]].discard(low)
        adjacency[i0].add(m + j0)
        adjacency[m + j0].add(i0)
        top, other = (i0, m + j0) if k < len(left) else (m + j0, i0)
        parent[top] = other
        depth[top] = depth[other] + 1
        price[top] = costs[i0][j0] - price[other]
        _hang(costs, m, adjacency, parent, depth, price, top)
    raise RuntimeError("transportation simplex failed to terminate")


def _hang(costs, m, adjacency, parent, depth, price, top) -> None:
    """Parent, depth and price of every basis-tree node below ``top``, whose
    own are already set; a cell's two end prices add up to its cost."""
    order = [top]
    for node in order:  # the loop also visits the nodes it appends
        p, d, pn = parent[node], depth[node] + 1, price[node]
        if node < m:
            row = costs[node]
            for w in adjacency[node]:
                if w != p:
                    parent[w], depth[w], price[w] = node, d, row[w - m] - pn
                    order.append(w)
        else:
            col = node - m
            for w in adjacency[node]:
                if w != p:
                    parent[w], depth[w], price[w] = node, d, costs[w][col] - pn
                    order.append(w)


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
    dual = potential_value(assignment_from(mu, nu), phi)
    return DualityReport(primal=primal, dual=dual,
                         optimal_certificate=(primal == dual), plan=plan)


def check_complementary_slackness(graph: FiniteGraph, plan: TransportPlan, phi: Potential) -> bool:
    """Every positive plan entry must descend the potential at full distance."""
    return all(phi.value(u) - phi.value(v) == graph.distance(u, v)
               for (u, v), x in plan.entries.items() if x > 0)
