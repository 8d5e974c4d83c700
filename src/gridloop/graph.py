"""Graph reachability constraints compiled to CNF.

Two families are provided:

* ``hcp`` — the active directed edges form a single cycle covering exactly
  the in-vertices (distance encoding: the lowest-index in-vertex is the
  start, and every active edge into another vertex steps the label by +1).
* ``scc`` — the in-vertices with their active undirected edges form one
  connected component (tree encoding: the lowest-index in-vertex is the
  root, every other in-vertex picks a parent, and the label steps by +1
  from parent to child).

The step rule alone, overflow banned, bans sub-cycles and detached parts
(Miller, Tucker & Zemlin, JACM 1960): labels that strictly increase cannot
go round a cycle.  So labels carry no bound and the start's label is not
pinned to 0; ``distance_width(n)`` bits leave room for a model's n - 1 steps.

Plus grid variants that synthesize the orthogonal-adjacency edges of a cell
grid, and ``cycle_grid``, whose cycles are cut down to one during the
search by its propagator, ``OneCycle``.

Clauses go in through ``CnfBuilder.add_trusted``, unchecked, so every vertex
and edge literal given to these functions must be over a variable of its own.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .cnf import BitVec, CnfBuilder, Lit, UnaryCount, distance_width, lit_value
from .solver import Propagator

Cell = tuple[int, int]


@dataclass
class VertexSpec:
    term: Hashable
    in_lit: Lit


@dataclass
class EdgeSpec:
    src: Hashable
    dst: Hashable
    lit: Lit


@dataclass
class GridVars:
    """The cells of a rows x cols board that can be in, and only those: a
    cell missing from ``cells`` gets no vertex and no edge."""

    rows: int
    cols: int
    cells: dict[tuple[int, int], Lit]  # 1-based (row, col) -> literal, row-major

    def cell(self, r: int, c: int) -> Lit:
        """Cell literal at 1-based (row, col)."""
        return self.cells[(r, c)]

    def read(self, assignment: Mapping[int, bool]) -> list[list[int]]:
        """0/1 per cell, row by row; a cell that cannot be in reads 0."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), lit in self.cells.items():
            if assignment[lit]:
                grid[r - 1][c - 1] = 1
        return grid


def make_grid(builder: CnfBuilder, rows: int, cols: int, prefix: str = "cell") -> GridVars:
    """A grid in which every cell can be in."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    cells = {
        (r, c): builder.new_var(f"{prefix}_{r}_{c}")
        for r in range(1, rows + 1)
        for c in range(1, cols + 1)
    }
    return GridVars(rows, cols, cells)


def _check_vertices_edges(vs, es, directed: bool):
    if not vs:
        raise ValueError("need at least one vertex")
    index = {}
    for i, v in enumerate(vs):
        if v.term in index:
            raise ValueError(f"duplicate vertex term {v.term!r}")
        index[v.term] = i
    seen = set()
    for e in es:
        if e.src == e.dst:
            raise ValueError(f"self-loop on {e.src!r}")
        if e.src not in index or e.dst not in index:
            raise ValueError(f"edge ({e.src!r}, {e.dst!r}) references undeclared vertex")
        key = (e.src, e.dst) if directed else frozenset((e.src, e.dst))
        if key in seen:
            raise ValueError(f"duplicate edge ({e.src!r}, {e.dst!r})")
        seen.add(key)
    return index


def _start_chain(builder: CnfBuilder, in_lits: Sequence[Lit]) -> tuple[list[Lit], list[Lit]]:
    """Literals per vertex i: (start_i, seen_i).  start_i is true iff i is the
    lowest-index in-vertex; seen_i iff some vertex among 0..i is in.

    Prefix-occupancy chain: seen_i <-> seen_{i-1} or in_i; start_i <-> in_i
    and not seen_{i-1}.
    """
    starts = [in_lits[0]]
    seen = [in_lits[0]]
    for in_i in in_lits[1:]:
        starts.append(builder.gate_and([in_i, -seen[-1]]))
        seen.append(builder.gate_or([seen[-1], in_i]))
    return starts, seen


def _distance_labels(builder: CnfBuilder, vs: Sequence[VertexSpec], prefix: str) -> list[BitVec]:
    """One free label per vertex, wide enough for n - 1 steps; only the
    caller's step clauses constrain it."""
    width = distance_width(len(vs))
    return [builder.new_bitvec(width, f"{prefix}_{v.term}") for v in vs]


def hcp(builder: CnfBuilder, vs: Sequence[VertexSpec], es: Sequence[EdgeSpec]) -> None:
    """Constrain the active edges to form a single directed cycle covering
    exactly the in-vertices.

    A single in-vertex with no active edges counts as a (degenerate) cycle.
    The empty subgraph is forbidden.  No counter over the in-literals is
    built.

    Every in-vertex but the start has exactly one active out-edge and one
    active in-edge; the start has at most one of each and no degree clause.
    Counting edges then gives the start as many out-edges as in-edges.  If
    it had none, the other in-vertices would form cycles that avoid the
    start, and the step rule ``d_j = d_i + 1`` (for every active edge into a
    non-start j, overflow banned) admits no cycle.  So the start lies on the
    one cycle, which covers every in-vertex, or is alone.
    """
    index = _check_vertices_edges(vs, es, directed=True)
    n = len(vs)
    in_lits = [v.in_lit for v in vs]

    # active edge -> both endpoints are in
    for e in es:
        builder.add_trusted([-e.lit, in_lits[index[e.src]]])
        builder.add_trusted([-e.lit, in_lits[index[e.dst]]])

    starts, seen = _start_chain(builder, in_lits)
    builder.add_trusted([seen[-1]])

    # every in-vertex but the start: exactly one out-edge and one in-edge
    outgoing: list[list[Lit]] = [[] for _ in range(n)]
    incoming: list[list[Lit]] = [[] for _ in range(n)]
    for e in es:
        outgoing[index[e.src]].append(e.lit)
        incoming[index[e.dst]].append(e.lit)
    for i in range(n):
        for lits in (outgoing[i], incoming[i]):
            if i:  # vertex 0 is the start whenever it is in: a tautology
                builder.add_trusted([starts[i], -in_lits[i]] + lits)
            if not lits:
                break  # [start_i, -in_i] subsumes the other direction's clause
            if len(lits) > 1:
                builder.at_most_one(lits)

    dist = _distance_labels(builder, vs, "dist")

    # active edge (i, j), j not the start -> d_j = d_i + 1
    for e in es:
        i, j = index[e.src], index[e.dst]
        builder.bitvec_successor(dist[i], dist[j], e.lit, -starts[j])


def grid_graph_edges(builder: CnfBuilder, grid: GridVars) -> list[EdgeSpec]:
    """Directed edges between orthogonally adjacent cells, in row-major,
    direction-stable order (per cell: up, down, left, right)."""
    edges = []
    for r, c in grid.cells:
        for r2, c2 in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (r2, c2) in grid.cells:
                lit = builder.new_var(f"edge_{r}_{c}_{r2}_{c2}")
                edges.append(EdgeSpec((r, c), (r2, c2), lit))
    return edges


def _grid_vertices(grid: GridVars) -> list[VertexSpec]:
    return [VertexSpec(rc, lit) for rc, lit in grid.cells.items()]


def hcp_grid(builder: CnfBuilder, grid: GridVars) -> list[EdgeSpec]:
    """Apply hcp over the grid's cells; returns the edge list."""
    edges = grid_graph_edges(builder, grid)
    hcp(builder, _grid_vertices(grid), edges)
    return edges


def scc(
    builder: CnfBuilder,
    vs: Sequence[VertexSpec],
    es: Sequence[EdgeSpec],
) -> None:
    """Constrain the in-vertices with active undirected edges to form one
    connected component.  Each EdgeSpec is one undirected edge; the reverse
    orientation shares its literal.  The empty subgraph is accepted.  No
    counter over the in-literals is built.

    Every in-vertex but the root selects a parent over an active edge, and
    its label is its parent's plus one (overflow banned).  Labels strictly
    fall along a chain of parents, so the chain cannot repeat a vertex and
    ends at the only vertex that needs no parent: the root.  No label bound
    is needed.
    """
    index = _check_vertices_edges(vs, es, directed=False)
    n = len(vs)
    in_lits = [v.in_lit for v in vs]

    for e in es:
        builder.add_trusted([-e.lit, in_lits[index[e.src]]])
        builder.add_trusted([-e.lit, in_lits[index[e.dst]]])

    roots, _ = _start_chain(builder, in_lits)
    dist = _distance_labels(builder, vs, "sdist")

    # parent selection per vertex over its incident edges
    incident: list[list[tuple[Lit, int]]] = [[] for _ in range(n)]
    for e in es:
        i, j = index[e.src], index[e.dst]
        incident[i].append((e.lit, j))
        incident[j].append((e.lit, i))

    # selected parent j of i -> d_i = d_j + 1
    for i in range(n):
        parents = []
        for elit, j in incident[i]:
            p = builder.new_var()
            builder.add_trusted([-p, elit])
            parents.append(p)
            builder.bitvec_successor(dist[j], dist[i], p)
        if i:  # vertex 0 is the root whenever it is in: a tautology
            builder.add_trusted([roots[i], -in_lits[i]] + parents)
        if len(parents) > 1:
            builder.at_most_one(parents)


def scc_grid(builder: CnfBuilder, grid: GridVars) -> None:
    """scc over the grid cells, with one undirected edge literal per
    orthogonally adjacent pair, defined as the conjunction of the two cells."""
    es = []
    for (r, c), a in grid.cells.items():
        for r2, c2 in ((r + 1, c), (r, c + 1)):
            if (r2, c2) in grid.cells:
                g = builder.new_var(f"uedge_{r}_{c}_{r2}_{c2}")
                # scc's endpoint clauses give g -> a and g -> b
                builder.add_trusted([g, -a, -grid.cells[(r2, c2)]])
                es.append(EdgeSpec((r, c), (r2, c2), g))
    scc(builder, _grid_vertices(grid), es)


def cycle_grid(
    builder: CnfBuilder, grid: GridVars, anchors: Sequence[Cell] = (), count: UnaryCount | None = None
) -> tuple[list[EdgeSpec], OneCycle]:
    """The lazy twin of ``hcp_grid``: one literal per undirected edge, an
    active edge puts both of its cells in, and every in-cell has exactly two
    active edges, so the active edges form disjoint cycles.  No distance
    label bans a second cycle; the returned propagator (see ``OneCycle``)
    does that during the search.  The caller puts a cell in: ``anchors`` are
    cells that every model has in (a circle, say).

    ``count``, a counter over the cell literals, lets a cycle have one or two
    cells, as in ``hcp``: an in-cell needs an active edge only if the count
    is at least 2, and two only if it is at least 3.  Returns the edges,
    row-major as (up or left cell, other), and the propagator.
    """
    edges: list[EdgeSpec] = []
    incident: dict[Cell, list[Lit]] = {rc: [] for rc in grid.cells}
    for (r, c), a in grid.cells.items():
        for b in ((r + 1, c), (r, c + 1)):
            if b in grid.cells:
                e = builder.new_var(f"edge_{r}_{c}_{b[0]}_{b[1]}")
                edges.append(EdgeSpec((r, c), b, e))
                incident[(r, c)].append(e)
                incident[b].append(e)
                builder.add_trusted([-e, a])
                builder.add_trusted([-e, grid.cells[b]])
    # a counter over fewer than three cells lacks an output, which is false
    at_least_2, at_least_3 = (count.outputs + [builder.FALSE] * 2)[1:3] if count else (None, None)
    for rc, lits in incident.items():
        guard = [-grid.cells[rc]] + ([-at_least_3] if count else [])
        for trio in itertools.combinations(lits, 3):
            builder.add_trusted([-e for e in trio])
        if count:
            builder.add_trusted([-grid.cells[rc], -at_least_2] + lits)
        # in -> some other edge besides each one: at least two edges
        for i in range(len(lits)):
            builder.add_trusted(guard + lits[:i] + lits[i + 1 :])
        if not lits:
            builder.add_trusted(guard)
    return edges, OneCycle(grid, edges, anchors, at_least_3)


class OneCycle(Propagator):
    """The propagator of ``cycle_grid``: it bans a model of two or more
    cycles with the generalized subtour elimination constraint (Balas, "The
    prize collecting traveling salesman problem", Networks 1989).  For a
    cycle S, a cell u in S and a cell v outside it, the cut is ``¬in_u ∨
    ¬in_v ∨ OR(edges with one end in S)``: one cycle through u and v leaves
    S.  u is the first anchor in S, else S's first cell in row-major order.
    Where u and v are anchors it is the boundary cut of Dantzig, Fulkerson &
    Johnson (1954).

    ``check`` reads the true edge literals of the trail in order and keeps,
    for each end of a path of them, the path's other end (``end``, indexed
    by cell), with an undo log keyed by trail position, so each new true
    edge costs O(1).  When an edge joins the two ends of one path, it closes
    a cycle S.  If a cell outside S is in, v is the first such anchor, else
    the first such cell in row-major order, where a cell is in if its
    literal is true on the trail, and ``check`` returns the cut.  The cut is
    false there: its cells are in, and the degree clauses have turned off
    every other edge of S's cells.

    ``final`` cuts every cycle of a total model with two or more, in
    row-major order.  There v is the first anchor outside S, else the next
    cycle's first cell, so the cut is false in the model.  With a counter
    (``at_least_3``), a model of fewer than three in-cells has one cycle by
    the degree clauses, and gets no cut."""

    def __init__(
        self, grid: GridVars, edges: Sequence[EdgeSpec], anchors: Sequence[Cell], at_least_3: Lit | None
    ):
        self.grid = grid
        self.edges = edges
        self.at_least_3 = at_least_3
        cells = list(grid.cells)  # row-major: a cell's index orders it
        self.index = {rc: i for i, rc in enumerate(cells)}
        self.in_lits = list(grid.cells.values())
        self.anchors = [self.index[a] for a in anchors]
        # edge variable -> its two cells; cell -> [(edge literal, other cell)]
        top = max((e.lit for e in edges), default=0)
        self.ends_of: list[tuple[int, int] | None] = [None] * (top + 1)
        self.incident: list[list[tuple[Lit, int]]] = [[] for _ in cells]
        for e in edges:
            a, b = self.index[e.src], self.index[e.dst]
            self.ends_of[e.lit] = (a, b)
            self.incident[a].append((e.lit, b))
            self.incident[b].append((e.lit, a))
        # end[c]: the other end of the path that ends at c, c itself if c has
        # no true edge; stale at a cell inside a path, which no edge reaches
        self.end = list(range(len(cells)))
        self.log: list[tuple[int, int, int]] = []  # (trail position, cell, old end)
        self.head = 0  # the trail entries before head have been read

    def check(self, solver) -> list[Lit] | None:
        trail = solver.trail
        ends_of, end, log = self.ends_of, self.end, self.log
        top = len(ends_of)
        pos, stop = self.head, len(trail)
        while pos < stop:
            lit = trail[pos]
            pos += 1
            if not 0 < lit < top or ends_of[lit] is None:
                continue
            a, b = ends_of[lit]
            ea, eb = end[a], end[b]
            if ea == b:
                cut = self._closed(solver, a, b)
                if cut is not None:
                    self.head = pos
                    return cut
                continue
            log.append((pos - 1, ea, end[ea]))
            log.append((pos - 1, eb, end[eb]))
            end[ea], end[eb] = eb, ea
        self.head = pos
        return None

    def undo(self, trail_len: int) -> None:
        end, log = self.end, self.log
        while log and log[-1][0] >= trail_len:
            _, cell, old = log.pop()
            end[cell] = old
        self.head = min(self.head, trail_len)

    def _closed(self, solver, a: int, b: int) -> list[Lit] | None:
        """The cut for the cycle that the true edge (a, b) closes, or None
        if no cell outside it is in."""
        n, val = solver.nvars, solver.val
        incident, in_lits = self.incident, self.in_lits
        cycle, prev, cur = [a], b, a
        while cur != b:
            # cur has two true edges, and the one that goes on is not to prev
            prev, cur = cur, next(o for e, o in incident[cur] if o != prev and val[e + n] == 1)
            cycle.append(cur)
        inside = set(cycle)
        outside_in = (c for c in itertools.chain(self.anchors, range(len(in_lits)))
                      if c not in inside and val[in_lits[c] + n] == 1)
        v = next(outside_in, None)
        return None if v is None else self._cut(inside, v)

    def _cut(self, inside: set[int], v: int) -> list[Lit]:
        u = next((c for c in self.anchors if c in inside), min(inside))
        leaving = sorted(e for c in inside for e, o in self.incident[c] if o not in inside)
        return [-self.in_lits[u], -self.in_lits[v]] + leaving

    def final(self, assignment: dict[int, bool]) -> list[list[Lit]]:
        if self.at_least_3 is not None and not lit_value(self.at_least_3, assignment):
            return []  # one or two in-cells: one cycle by the degree clauses
        cycles = grid_cycles(assignment, self.grid, self.edges)
        if len(cycles) < 2:
            return []
        index = self.index
        sets = [{index[rc] for rc in cycle} for cycle in cycles]
        out = []
        for i, inside in enumerate(sets):
            v = next((a for a in self.anchors if a not in inside), min(sets[(i + 1) % len(sets)]))
            out.append(self._cut(inside, v))
        return out


def grid_cycles(
    assignment: dict[int, bool], grid: GridVars, edges: Sequence[EdgeSpec]
) -> list[list[Cell]]:
    """The cycles of the active edges, read without their direction: each is
    walked from its first cell in row-major order along that cell's first
    active edge, and they are listed in that order.  Raises RuntimeError
    unless every cell has none or two active edges; a directed 2-cycle, one
    active edge each way, counts as two."""
    nbrs: dict[Cell, list[Cell]] = {}
    for e in edges:
        if assignment[e.lit]:
            nbrs.setdefault(e.src, []).append(e.dst)
            nbrs.setdefault(e.dst, []).append(e.src)
    for cell, ns in nbrs.items():
        if len(ns) != 2:
            raise RuntimeError(f"active-edge degree {len(ns)} at {cell}, not 0 or 2")
    cycles = []
    seen: set[Cell] = set()
    for start in grid.cells:
        if start not in nbrs or start in seen:
            continue
        cycle = [start]
        prev, cur = start, nbrs[start][0]
        while cur != start:
            cycle.append(cur)
            x, y = nbrs[cur]
            prev, cur = cur, y if x == prev else x
        seen.update(cycle)
        cycles.append(cycle)
    return cycles
