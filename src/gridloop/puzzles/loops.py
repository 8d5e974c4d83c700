"""Shared machinery for loop puzzles: the one loop-puzzle encoding (a loop
through circles, each held to its puzzle's rule) in an eager and a lazy
model, the arm ladders that every circle's rule is written over, and
``decode_loop``, which reads a model of either model back into a closed cell
cycle."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..cnf import CnfBuilder, Lit
from ..graph import Cell, EdgeSpec, GridVars, cycle_grid, grid_cycles, hcp_grid, make_grid
from ..solver import Propagator


EdgeReader = Callable[[Cell, Cell], Lit]
AddOnce = Callable[[list[Lit]], None]

# The steps from a circle: up, down, left, right.  A white circle is passed
# along an opposite pair of them, a black one along a perpendicular pair.
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))
PAIRS = {"w": ((0, 1), (2, 3)), "b": ((0, 2), (0, 3), (1, 2), (1, 3))}


def reaches(n: int, cell: Cell) -> tuple[int, int, int, int]:
    """The edges from ``cell`` to the border of the n x n board, per step."""
    r, c = cell
    return (r - 1, n - r, c - 1, n - c)


def arm_ladders(
    builder: CnfBuilder,
    edge: EdgeReader,
    add_once: AddOnce,
    n: int,
    cell: Cell,
    pairs: Sequence[tuple[int, int]],
    depth: int,
) -> dict[int, list[Lit]]:
    """The loop passes the circle at ``cell`` on the n x n board along one of
    ``pairs``, pairs of directions (indices into ``STEPS``) whose first edges
    are on the board.  ``edge(a, b)`` is the literal of the edge between
    cells a and b being on, and ``add_once`` adds a clause unless it was
    added before: two circles can force one edge off alike, or both be unmet.

    Returns the arm ladders, the order encoding of each arm's length
    (Tamura et al., "Compiling finite linear CSP into SAT", Constraints
    2009): over the edges e_d(1), e_d(2), ... from the circle toward d,
    a_d(1) = e_d(1) and a_d(L) <-> a_d(L-1) and e_d(L), up to the border or
    to L = ``depth``, so ``ladder[d][L - 1]`` is a_d(L), true iff the arm is
    at least L long.  Only directions in some pair get a ladder.  The
    clauses:

    * colour: two first edges that are not a pair are not both on;
    * partner: an on first edge has an on partner, and some first edge is
      on, so exactly one pair is on whatever the loop model allows (the
      eager model's lone in-cell and directed 2-cycle among it).

    With no pair the clause is empty.
    """
    if not pairs:
        add_once([])
        return {}
    r, c = cell
    reach = reaches(n, cell)
    first = {d: edge(cell, (r + dr, c + dc)) for d, (dr, dc) in enumerate(STEPS) if reach[d]}
    partners = {d: [q for pair in pairs if d in pair for q in pair if q != d] for d in first}
    live = [d for d in first if partners[d]]
    # implied where a cell has at most two on edges, but without them, or
    # the forced-off units below, the lazy masyu_30x30 took 123 s, not 7 s
    for i, d in enumerate(live):
        for p in live[i + 1 :]:
            if p not in partners[d]:
                builder.add_trusted([-first[d], -first[p]])
    for d in first:
        add_once([-first[d]] + [first[q] for q in partners[d]])
    builder.add_trusted([first[d] for d in live])

    ladder = {}
    for d in live:
        (dr, dc), arm = STEPS[d], [first[d]]
        for i in range(1, min(depth, reach[d])):
            a, b = (r + i * dr, c + i * dc), (r + (i + 1) * dr, c + (i + 1) * dc)
            arm.append(builder.gate_and([arm[-1], edge(a, b)]))
        ladder[d] = arm
    return ladder


def build_loop(
    builder: CnfBuilder,
    n: int,
    circles: Sequence[Cell],
    constrain: Callable[[Cell, EdgeReader, AddOnce], None],
    lazy: bool = False,
) -> tuple[Callable[[dict[int, bool]], LoopSolution], None, Propagator | None]:
    """One closed loop on the n x n grid through every circle, each of which
    ``constrain(circle, edge, add_once)`` holds to the puzzle's rule (see
    ``arm_ladders`` for the two readers).  Returns (decode, None,
    propagator): ``decode(assignment)`` reads the loop back with
    ``decode_loop``, and there is no objective.

    The eager model (``hcp`` over directed edges) is complete on its own, and
    the propagator is None; ``edge(a, b)`` there is one ``gate_or`` of the
    two directions, built the first time a rule reads the edge.  With
    ``lazy`` and at least one circle, the lazy model ``cycle_grid`` is built
    instead, with the circles as its anchors: its edge literals are
    undirected, its clauses admit every set of disjoint cycles, and its
    propagator cuts a second cycle off during the search.  A board without a
    circle, where nothing puts a cell in, keeps the eager model, whose lone
    in-cell is a loop.  This is the only place that decides which model a
    loop puzzle gets."""
    grid = make_grid(builder, n, n)
    if lazy and circles:
        edges, propagator = cycle_grid(builder, grid, circles)
    else:
        edges, propagator = hcp_grid(builder, grid), None
    directed = {(e.src, e.dst): e.lit for e in edges}
    # keyed (up or left cell, other), as the lazy model lists its edges
    undirected = dict(directed) if propagator is not None else {}
    added: set[tuple[Lit, ...]] = set()

    def edge(a: Cell, b: Cell) -> Lit:
        key = (a, b) if a < b else (b, a)
        if key not in undirected:
            undirected[key] = builder.gate_or([directed[(a, b)], directed[(b, a)]])
        return undirected[key]

    def add_once(clause: list[Lit]) -> None:
        if tuple(clause) not in added:
            added.add(tuple(clause))
            builder.add_trusted(clause)

    for cell in circles:
        builder.add_trusted([grid.cell(*cell)])
        constrain(cell, edge, add_once)
    return (lambda assignment: decode_loop(assignment, grid, edges)), None, propagator


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
