"""Independent exact oracle for transport distances on small finite graphs.

Solves the primal transportation linear program with an exact simplex over
the integers, and checks an optimal plan against a potential: exact
marginals and complementary slackness. :func:`verify_duality` is the whole
LP route of one tree instance. It refuses supports over :data:`MAX_SUPPORT`
before any graph is built, solves the LP, and returns the optimum with the
plan's verdict. Every hop distance comes from the graph's core about the two
supports (:class:`FiniteGraph`), built from the tree's edge endpoints alone.
The module calls no function of the flow route and never reads the tree's
rooting, so the caller computes the potential's pairing, the dual value.

The masses enter as integers over L, the lcm of the two measures' scales.
The transportation matrix is totally unimodular, so with integer supplies
and demands every basic solution is integral; the costs are hop counts, so
dual prices and reduced costs are integers too. Only the value and the plan
entries become Fractions over L, once, at the end. The basis starts from
the least-cost allocation, which reads only the costs and the masses, and is
one rooted spanning tree kept across pivots: a pivot re-hangs and re-prices
only the subtree that the leaving cell cuts off. Bland's rule and its
tie-break pick the entering and leaving cells, so the pivots and the plan do
not depend on how the tree is stored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, count, islice
from math import lcm
from operator import and_, sub
from typing import Iterable, Mapping, Sequence

from .errors import MassMismatch, TooLarge
from .tree import (Measure, Tree, _adjacency, _hop_distances, _pair_scale, _peel, _ReadOnly,
                   _totals_differ)

#: Supports larger than this are refused; the exact simplex is for desk-scale
#: verification, not production-scale solving.
MAX_SUPPORT = 40


class FiniteGraph(_ReadOnly):
    """Connected simple graph on dense indices, with its core about the
    vertices it keeps: what is left after peeling, over and over, every leaf
    that is not kept (:func:`_peel`). In a tree the core is the Steiner tree
    of the kept vertices. A peeled vertex lies inside no shortest path
    between two vertices left, so hop distances between core vertices are
    read from the core: one BFS of the core per source, on first use, so
    only the rows a caller reads are ever built. ``_core`` maps each core
    vertex to its position in the core, in index order, ``_core_adjacency``
    holds the core's neighbor tuples by position, and ``_rows`` the BFS rows
    built so far. Graphs compare by identity."""

    __slots__ = ("num_vertices", "_core", "_core_adjacency", "_rows", "__weakref__")

    def __init__(self, num_vertices: int, _core: dict,
                 _core_adjacency: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "_core", _core)
        object.__setattr__(self, "_core_adjacency", _core_adjacency)
        object.__setattr__(self, "_rows", {})

    def distance(self, u: int, v: int) -> int:
        """Hop distance between two core vertices. Raises :class:`ValueError`
        for a vertex outside the core, and :class:`RuntimeError` when the
        core leaves ``v`` unreached from ``u``: the peeling dropped a vertex
        that a path between them needs."""
        core = self._core
        try:
            row = self._rows.get(u)
            if row is None:
                row = self._rows[u] = _hop_distances(self._core_adjacency, core[u])
            hops = row[core[v]]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]} is outside the graph's core") from None
        if hops < 0:
            raise RuntimeError(f"vertex {v} is unreached from vertex {u} in the graph's core")
        return hops

    @classmethod
    def _over(cls, n: int, ends: tuple[Sequence[int], Sequence[int]],
              keep: Iterable[int]) -> "FiniteGraph":
        """The connected graph on ``0..n-1`` with edge endpoints ``ends``, and
        its core about ``keep``."""
        kept = bytearray(n)
        for v in keep:
            if not 0 <= v < n:
                raise ValueError(f"kept vertex {v} is outside the graph")
            kept[v] = 1
        core: dict = {}
        edges: list = []
        if any(kept):  # with nothing kept, every vertex peels away
            rooted = _peel(range(n), *ends, kept)
            if rooted is None:
                raise RuntimeError("the peeling emptied a component that holds a kept vertex")
            left = bytes(map((-1).__eq__, rooted[1]))  # 1 at each vertex left
            core = dict(zip(compress(range(n), left), count()))
            us, vs = ends
            at = left.__getitem__
            edges = [(core[u], core[v])
                     for u, v in compress(zip(us, vs), map(and_, map(at, us), map(at, vs)))]
        return cls(num_vertices=n, _core=core,
                   _core_adjacency=_adjacency(len(core), edges))

    @classmethod
    def from_tree(cls, tree: Tree, keep: Iterable[int]) -> "FiniteGraph":
        """The tree as a graph over its edge endpoints; its core spans the
        vertices in ``keep``. Reads no rooting (``parent``, ``order``), so
        the LP stays independent of the flow route."""
        return cls._over(tree.num_vertices, tree._ends, keep)


def _check_support(mu: Measure, nu: Measure) -> None:
    """Raises :class:`TooLarge` when either support passes :data:`MAX_SUPPORT`."""
    if len(mu) > MAX_SUPPORT or len(nu) > MAX_SUPPORT:
        raise TooLarge(f"supports of size {len(mu)}x{len(nu)} exceed the "
                       f"{MAX_SUPPORT}-point oracle cap")


def w1_lp(graph: FiniteGraph, mu: Measure,
          nu: Measure) -> tuple[Fraction, dict[tuple[int, int], Fraction]]:
    """Exact optimum of the transportation LP plus one optimal plan: the
    positive mass moved from u to v at ``plan[(u, v)]``.

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
        raise MassMismatch(_totals_differ(sum(supply), sum(demand), scale))
    for v in (*sources, *sinks):
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"measure references vertex {v} outside the graph")
    if not sources:
        return Fraction(0), {}

    costs = [[graph.distance(u, v) for v in sinks] for u in sources]
    value, cells = _transportation_simplex(costs, supply, demand)
    plan = {(sources[i], sinks[j]): Fraction(x, scale) for (i, j), x in cells.items() if x}
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
    are nodes 0..m-1, columns m..m+n-1). It starts from the least-cost
    allocation, ties broken by row then column, and is kept rooted at row 0
    with its parent, depth and dual price across pivots. A pivot closes the
    entering cell's cycle by climbing from both of its ends to their common
    ancestor. The leaving cell cuts off the subtree under it; the entering
    cell's end inside that subtree is hung from its other end, and only that
    subtree is re-priced. Bland's rule (lexicographically smallest entering
    cell with negative reduced cost, smallest leaving cell among ties) rules
    out cycling.
    """
    m, n = len(supply), len(demand)

    # Least-cost start: take the open cells in (cost, row, column) order; each
    # closes one line, the row once it runs dry unless it is the last open row,
    # else the column. The m+n-1 cells, zeros included, span every line.
    alloc: dict[tuple[int, int], int] = {}
    adjacency: list[set[int]] = [set() for _ in range(m + n)]
    ra = list(supply)
    cb = list(demand)
    row_open = [True] * m
    col_open = [True] * n
    rows_left, cols_left = m, n
    for _, i, j in sorted((costs[i][j], i, j) for i in range(m) for j in range(n)):
        if not (row_open[i] and col_open[j]):
            continue
        x = min(ra[i], cb[j])
        alloc[(i, j)] = x
        adjacency[i].add(m + j)
        adjacency[m + j].add(i)
        ra[i] -= x
        cb[j] -= x
        if rows_left == 1 and cols_left == 1:
            break
        if ra[i] == 0 and rows_left > 1:
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1

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
        # at most m + n - 1 cells, so a longer climb, or one past the root
        # (parent -1), means parent and depth disagree.
        i0, j0 = entering
        a, b = i0, m + j0
        left: list[int] = []
        right: list[int] = []
        for _ in range(m + n):
            if a == b or a < 0 or b < 0:
                break
            if depth[a] >= depth[b]:
                left.append(a)
                a = parent[a]
            else:
                right.append(b)
                b = parent[b]
        if a != b:
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
    own are already set; a cell's two end prices add up to its cost. The tree
    has ``len(parent)`` nodes, so a walk that finds more holds a cycle: the
    basis is no tree, and the walk would never end."""
    order = [top]
    for node in islice(order, len(parent)):  # the loop also visits the nodes it appends
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
    if len(order) > len(parent):
        raise RuntimeError("transportation simplex basis tree is inconsistent")


def verify_duality(tree: Tree, mu: Measure, nu: Measure,
                   phi: Sequence[Fraction | int]) -> tuple[Fraction, bool]:
    """The LP optimum on ``tree``, and whether one optimal plan certifies it
    against the potential ``phi``, one value per vertex: the plan's marginals
    are exactly ``mu`` and ``nu``, and it meets complementary slackness.
    Supports over :data:`MAX_SUPPORT` raise :class:`TooLarge` before any
    graph is built. The caller checks that ``phi`` is 1-Lipschitz and that
    its pairing with ``mu - nu`` equals the optimum: then ``phi`` is an
    optimal dual solution."""
    _check_support(mu, nu)
    graph = FiniteGraph.from_tree(tree, keep=mu.num.keys() | nu.num.keys())
    primal, plan = w1_lp(graph, mu, nu)
    return primal, (satisfies_marginals(plan, mu, nu)
                    and check_complementary_slackness(graph, plan, phi))


def check_complementary_slackness(graph: FiniteGraph, plan: Mapping[tuple[int, int], Fraction],
                                  phi: Sequence[Fraction | int]) -> bool:
    """Every positive plan entry must descend the potential ``phi``, one value
    per vertex, at full distance."""
    return all(phi[u] - phi[v] == graph.distance(u, v)
               for (u, v), x in plan.items() if x > 0)


def satisfies_marginals(plan: Mapping[tuple[int, int], Fraction], mu: Measure,
                        nu: Measure) -> bool:
    """True iff the plan moves out of each vertex its mass under ``mu`` and
    into each vertex its mass under ``nu``. The sums run on integers over L,
    the lcm of both measure scales and every plan denominator, so they are
    exact for any plan."""
    dens = {x.denominator for x in plan.values()}
    scale = lcm(mu.scale, nu.scale, *dens)
    factor = {den: scale // den for den in dens}
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for (u, v), x in plan.items():
        n = x.numerator * factor[x.denominator]
        rows[u] = rows.get(u, 0) + n
        cols[v] = cols.get(v, 0) + n
    mu_factor, nu_factor = scale // mu.scale, scale // nu.scale
    return (rows == {v: x * mu_factor for v, x in mu.num.items()}
            and cols == {v: x * nu_factor for v, x in nu.num.items()})
