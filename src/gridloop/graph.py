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
grid.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from .cnf import BitVec, CnfBuilder, Lit, distance_width


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
        builder.add_clause([-e.lit, in_lits[index[e.src]]])
        builder.add_clause([-e.lit, in_lits[index[e.dst]]])

    starts, seen = _start_chain(builder, in_lits)
    builder.add_clause([seen[-1]])

    # every in-vertex but the start: exactly one out-edge and one in-edge
    outgoing: list[list[Lit]] = [[] for _ in range(n)]
    incoming: list[list[Lit]] = [[] for _ in range(n)]
    for e in es:
        outgoing[index[e.src]].append(e.lit)
        incoming[index[e.dst]].append(e.lit)
    for i in range(n):
        for lits in (outgoing[i], incoming[i]):
            builder.add_clause([starts[i], -in_lits[i]] + lits)
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
        builder.add_clause([-e.lit, in_lits[index[e.src]]])
        builder.add_clause([-e.lit, in_lits[index[e.dst]]])

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
            builder.add_clause([-p, elit])
            parents.append(p)
            builder.bitvec_successor(dist[j], dist[i], p)
        builder.add_clause([roots[i], -in_lits[i]] + parents)
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
                builder.add_clause([g, -a, -grid.cells[(r2, c2)]])
                es.append(EdgeSpec((r, c), (r2, c2), g))
    scc(builder, _grid_vertices(grid), es)
