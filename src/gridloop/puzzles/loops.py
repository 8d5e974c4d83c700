"""Shared machinery for loop puzzles: the one loop-puzzle encoding (a loop
through circles, each held to its puzzle's rule) in an eager and a lazy
model, edge maps, path-shape constraints, and ``decode_loop``, which reads a
model of either model back into a closed cell cycle."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..cnf import CnfBuilder, Lit
from ..graph import Cell, EdgeSpec, GridVars, cycle_grid, grid_cycles, hcp_grid, make_grid
from ..solver import Cuts


EdgeMap = dict[tuple[int, int, int, int], Lit]


def edge_map(edges: Sequence[EdgeSpec]) -> EdgeMap:
    """Index grid edges by (r1, c1, r2, c2).  An edge whose reverse is not
    listed is undirected: both directions share its literal."""
    emap = {(*e.src, *e.dst): e.lit for e in edges}
    for e in edges:
        emap.setdefault((*e.dst, *e.src), e.lit)
    return emap


def constrain_paths(
    builder: CnfBuilder,
    emap: EdgeMap,
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
    builder.add_trusted(choices)


def build_loop(
    builder: CnfBuilder,
    n: int,
    circles: Sequence[Cell],
    constrain: Callable[[Cell, EdgeMap], None],
    lazy: bool = False,
) -> tuple[Callable[[dict[int, bool]], LoopSolution], None, Cuts | None]:
    """One closed loop on the n x n grid through every circle, each of which
    ``constrain(circle, emap)`` holds to the puzzle's rule, reading the edge
    literals from ``emap`` (see ``edge_map``).  Returns (decode, None, cuts):
    ``decode(assignment)`` reads the loop back with ``decode_loop``, and
    there is no objective.

    The eager model (``hcp`` over directed edges) is complete on its own, and
    ``cuts`` is None.  With ``lazy`` and at least one circle, the lazy model
    ``cycle_grid`` is built instead, with the circles as its anchors: it
    admits every set of disjoint cycles, and ``cuts(assignment)`` gives the
    clauses that exclude a model of two or more cycles.  A board without a
    circle, where nothing puts a cell in, keeps the eager model.  This is the
    only place that decides which model a loop puzzle gets."""
    grid = make_grid(builder, n, n)
    if lazy and circles:
        edges, cuts = cycle_grid(builder, grid, circles)
    else:
        edges, cuts = hcp_grid(builder, grid), None
    emap = edge_map(edges)
    for cell in circles:
        builder.add_trusted([grid.cell(*cell)])
        constrain(cell, emap)
    return (lambda assignment: decode_loop(assignment, grid, edges)), None, cuts


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
    edges (see ``grid_cycles``), which must pass exactly the in-cells, or a lone
    in-cell with no active edge.  Raises RuntimeError otherwise."""
    in_cells = {rc for rc, lit in grid.cells.items() if assignment[lit]}
    cycles = grid_cycles(assignment, grid, edges)
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
