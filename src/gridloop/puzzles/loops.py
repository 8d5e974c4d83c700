"""Shared machinery for loop puzzles: the one loop-puzzle encoding (a loop
through circles, each passed along one of its path shapes), edge maps,
path-shape constraints, and model decoding into a closed cell cycle."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..cnf import CnfBuilder, Lit
from ..graph import EdgeSpec, GridVars, hcp_grid, make_grid

Cell = tuple[int, int]


def edge_map(edges: Sequence[EdgeSpec]) -> dict[tuple[int, int, int, int], Lit]:
    """Index directed grid edges by (r1, c1, r2, c2)."""
    return {(e.src[0], e.src[1], e.dst[0], e.dst[1]): e.lit for e in edges}


def constrain_paths(
    builder: CnfBuilder,
    emap: dict[tuple[int, int, int, int], Lit],
    rows: int,
    cols: int,
    shapes: Sequence[Sequence[Cell]],
) -> None:
    """Require that at least one of the given path shapes occurs in the loop.

    Each shape is a cell sequence; it and its reverse each contribute a
    conjunction over the consecutive edge literals.  Shapes with off-grid
    cells are dropped.  If nothing survives, the empty disjunction makes the
    formula unsatisfiable (the circled cell cannot be traversed legally).
    """
    choices: list[Lit] = []
    seen: set[tuple[Cell, ...]] = set()
    for shape in shapes:
        if any(not (1 <= r <= rows and 1 <= c <= cols) for r, c in shape):
            continue
        for path in (tuple(shape), tuple(reversed(shape))):
            if path in seen:
                continue
            seen.add(path)
            lits = [
                emap[(path[i][0], path[i][1], path[i + 1][0], path[i + 1][1])]
                for i in range(len(path) - 1)
            ]
            choices.append(builder.gate_and(lits))
    builder.add_clause(choices)


def build_loop(
    builder: CnfBuilder,
    n: int,
    circles: Iterable[tuple[int, int, Sequence[Sequence[Cell]]]],
) -> tuple[Callable[[dict[int, bool]], LoopSolution], None]:
    """One closed loop on the n x n grid through every circle ``(r, c,
    shapes)``, passing it along one of its path shapes.  Returns (decode,
    None): ``decode(assignment)`` reads the loop back; there is no objective."""
    grid = make_grid(builder, n, n)
    edges = hcp_grid(builder, grid)
    emap = edge_map(edges)
    for r, c, shapes in circles:
        builder.add_clause([grid.cell(r, c)])
        constrain_paths(builder, emap, n, n, shapes)
    return (lambda assignment: decode_loop(assignment, grid, edges)), None


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
    """Follow active successor edges from the first in-cell; the walk must
    close after visiting every in-cell exactly once."""
    in_cells = {rc for rc, lit in grid.cells.items() if assignment[lit]}
    if not in_cells:
        raise RuntimeError("no in-cells to decode")
    succ: dict[Cell, Cell] = {}
    for e in edges:
        if assignment[e.lit]:
            if e.src in succ:
                raise RuntimeError(f"two active outgoing edges at {e.src}")
            succ[e.src] = e.dst
    start = min(in_cells)
    if len(in_cells) == 1:
        if succ:
            raise RuntimeError("singleton solution has active edges")
        return LoopSolution(in_cells, [start])
    cycle = [start]
    cur = succ.get(start)
    while cur is not None and cur != start:
        if cur in cycle and cur != start:
            raise RuntimeError("decoded walk revisits a cell")
        cycle.append(cur)
        cur = succ.get(cur)
    if cur != start:
        raise RuntimeError("decoded walk does not close")
    if set(cycle) != in_cells:
        raise RuntimeError("decoded cycle does not cover all in-cells")
    return LoopSolution(in_cells, cycle)


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
