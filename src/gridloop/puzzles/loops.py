"""Shared machinery for loop puzzles: the one loop-puzzle encoding (a loop
through circles, each passed along one of its path shapes) in an eager and a
lazy model, edge maps, path-shape constraints, and ``decode_loop``, which
reads a model of either model back into a closed cell cycle."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from ..cnf import CnfBuilder, Lit
from ..graph import EdgeSpec, GridVars, hcp_grid, make_grid
from ..solver import Cuts

Cell = tuple[int, int]


def edge_map(edges: Sequence[EdgeSpec]) -> dict[tuple[int, int, int, int], Lit]:
    """Index grid edges by (r1, c1, r2, c2).  An edge whose reverse is not
    listed is undirected: both directions share its literal."""
    emap = {(*e.src, *e.dst): e.lit for e in edges}
    for e in edges:
        emap.setdefault((*e.dst, *e.src), e.lit)
    return emap


def constrain_paths(
    builder: CnfBuilder,
    emap: dict[tuple[int, int, int, int], Lit],
    rows: int,
    cols: int,
    shapes: Sequence[Sequence[Cell]],
) -> None:
    """Require that at least one of the given path shapes occurs in the loop.

    Each shape is a cell sequence; it and its reverse each contribute a
    conjunction over the consecutive edge literals, one per distinct set of
    literals: where ``emap`` gives both directions of an edge one literal, a
    shape and its reverse share one conjunction.  Shapes with off-grid cells
    are dropped.  If nothing survives, the empty disjunction makes the
    formula unsatisfiable (the circled cell cannot be traversed legally).
    """
    choices: list[Lit] = []
    seen: set[frozenset[Lit]] = set()
    for shape in shapes:
        if any(not (1 <= r <= rows and 1 <= c <= cols) for r, c in shape):
            continue
        for path in (shape, shape[::-1]):
            lits = [
                emap[(path[i][0], path[i][1], path[i + 1][0], path[i + 1][1])]
                for i in range(len(path) - 1)
            ]
            key = frozenset(lits)
            if key in seen:
                continue
            seen.add(key)
            choices.append(builder.gate_and(lits))
    builder.add_clause(choices)


def build_loop(
    builder: CnfBuilder,
    n: int,
    circles: Sequence[tuple[int, int, Sequence[Sequence[Cell]]]],
    lazy: bool = False,
) -> tuple[Callable[[dict[int, bool]], LoopSolution], None, Cuts | None]:
    """One closed loop on the n x n grid through every circle ``(r, c,
    shapes)``, passing it along one of its path shapes.  Returns (decode,
    None, cuts): ``decode(assignment)`` reads the loop back with
    ``decode_loop``, and there is no objective.

    The eager model (``hcp`` over directed edges) is complete on its own, and
    ``cuts`` is None.  With ``lazy`` and at least one circle, the lazy model
    is built instead (see ``_lazy_loop``): it admits every set of disjoint
    cycles, and ``cuts(assignment)`` gives the clauses that exclude a model
    of two or more cycles, or no clause for a model of one cycle.  This is
    the only place that decides which model a loop puzzle gets."""
    grid = make_grid(builder, n, n)
    if lazy and circles:
        edges, cuts = _lazy_loop(builder, grid, circles)
    else:
        edges, cuts = hcp_grid(builder, grid), None
    emap = edge_map(edges)
    for r, c, shapes in circles:
        builder.add_clause([grid.cell(r, c)])
        constrain_paths(builder, emap, n, n, shapes)
    return (lambda assignment: decode_loop(assignment, grid, edges)), None, cuts


def _lazy_loop(
    builder: CnfBuilder,
    grid: GridVars,
    circles: Sequence[tuple[int, int, Sequence[Sequence[Cell]]]],
) -> tuple[list[EdgeSpec], Cuts]:
    """The lazy model: one literal per undirected edge, an active edge puts
    both of its cells in, and every in-cell has exactly two active edges, so
    the active edges form disjoint cycles.  No distance label bans a second
    cycle; ``cuts`` does that on demand (subtour elimination, Dantzig,
    Fulkerson & Johnson 1954).  For each cycle S of a model with two or
    more, in row-major order:

    * S holds a circle and some circle lies outside S: some edge that
      crosses S's boundary is on, since the one loop passes both circles;
    * S holds no circle: not all of S's active edges are on, since the one
      loop would then be S, which misses the circles.

    Both cuts keep every solution only because the board has a circle.
    Every model of two or more cycles gets at least one cut, and the cut is
    false in that model.  Returns the edges, row-major as (up or left cell,
    other), and the cuts.
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
                builder.add_clause([-e, a])
                builder.add_clause([-e, grid.cells[b]])
    for rc, lits in incident.items():
        for trio in itertools.combinations(lits, 3):
            builder.add_clause([-e for e in trio])
        # in -> some other edge besides each one: at least two edges
        for i in range(len(lits)):
            builder.add_clause([-grid.cells[rc]] + lits[:i] + lits[i + 1 :])
        if not lits:
            builder.add_clause([-grid.cells[rc]])
    circle_cells = {(r, c) for r, c, _ in circles}

    def cuts(assignment: dict[int, bool]) -> list[list[Lit]]:
        cycles = _cycles(assignment, grid, edges)
        if len(cycles) == 1:
            return []
        out = []
        for cycle in cycles:
            inside = set(cycle)
            if not inside & circle_cells:
                out.append([-e.lit for e in edges if e.src in inside and assignment[e.lit]])
            elif not circle_cells <= inside:
                out.append([e.lit for e in edges if (e.src in inside) != (e.dst in inside)])
        return out

    return edges, cuts


def _cycles(
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


@dataclass
class LoopSolution:
    in_cells: set[Cell]
    cycle: list[Cell]  # closed: cycle[-1] is adjacent to cycle[0]

    @property
    def k(self) -> int:
        return len(self.cycle)


def decode_loop(
    assignment: dict[int, bool],
    grid: GridVars,
    edges: Sequence[EdgeSpec],
) -> LoopSolution:
    """The one loop of a model of either loop model: the cycle of active
    edges (see ``_cycles``), which must pass exactly the in-cells, or a lone
    in-cell with no active edge.  Raises RuntimeError otherwise."""
    in_cells = {rc for rc, lit in grid.cells.items() if assignment[lit]}
    cycles = _cycles(assignment, grid, edges)
    if not cycles and len(in_cells) == 1:
        cycles = [list(in_cells)]
    if len(cycles) != 1:
        raise RuntimeError(f"active edges form {len(cycles)} cycles, not one")
    if set(cycles[0]) != in_cells:
        raise RuntimeError("decoded cycle does not pass exactly the in-cells")
    return LoopSolution(in_cells, cycles[0])


def check_cycle_shape(sol: LoopSolution, rows: int, cols: int) -> str | None:
    """Structural validity of a LoopSolution; returns a reason code or None."""
    if not sol.cycle:
        return "empty-cycle"
    for r, c in sol.cycle:
        if not (1 <= r <= rows and 1 <= c <= cols):
            return "cell-out-of-bounds"
    if len(set(sol.cycle)) != len(sol.cycle):
        return "repeated-cell"
    if set(sol.cycle) != sol.in_cells:
        return "cycle-incell-mismatch"
    if len(sol.cycle) == 1:
        return None
    if len(sol.cycle) == 2:
        (r1, c1), (r2, c2) = sol.cycle
        return None if abs(r1 - r2) + abs(c1 - c2) == 1 else "not-adjacent"
    for i in range(len(sol.cycle)):
        r1, c1 = sol.cycle[i]
        r2, c2 = sol.cycle[(i + 1) % len(sol.cycle)]
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            return "not-adjacent"
    return None


def loop_neighbors(sol: LoopSolution) -> dict[Cell, tuple[Cell, Cell]]:
    """(previous, next) loop neighbors of every cell on the cycle."""
    n = len(sol.cycle)
    out = {}
    for i, cell in enumerate(sol.cycle):
        out[cell] = (sol.cycle[(i - 1) % n], sol.cycle[(i + 1) % n])
    return out


def straight_at(prev: Cell, cell: Cell, nxt: Cell) -> bool:
    return (prev[0] - cell[0], prev[1] - cell[1]) == (cell[0] - nxt[0], cell[1] - nxt[1])


def arm_length(sol: LoopSolution, cell: Cell, first: Cell) -> int:
    """Edges traversed from ``cell`` toward loop-neighbor ``first`` while the
    walk continues in a straight line."""
    idx = {c: i for i, c in enumerate(sol.cycle)}
    n = len(sol.cycle)
    step = 1 if sol.cycle[(idx[cell] + 1) % n] == first else -1
    direction = (first[0] - cell[0], first[1] - cell[1])
    length = 1
    prev = first
    while True:
        nxt = sol.cycle[(idx[prev] + step) % n]
        if (nxt[0] - prev[0], nxt[1] - prev[1]) != direction:
            return length
        length += 1
        prev = nxt
