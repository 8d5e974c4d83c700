"""Shared machinery for loop puzzles: the one loop-puzzle encoding (a loop
through circles, each held to its puzzle's rule) in an eager and a lazy
model, the arm ladders that every circle's rule is written over,
``decode_loop``, which reads a model of either model back into a closed cell
cycle, and, apart from the encoding, the checks that the loop verifiers
share (``check_cycle_shape``, ``check_circles``)."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Container, Sequence

from ..cnf import CnfBuilder, Lit
from ..graph import Cell, EdgeSpec, GridVars, cycle_grid, grid_cycles, hcp_grid, make_grid
from ..solver import Propagator


EdgeReader = Callable[[Cell, Cell], Lit]
AddOnce = Callable[[list[Lit]], None]

# The steps from a circle: up, down, left, right.  A white circle is passed
# along an opposite pair of them, a black one along a perpendicular pair.
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))
PAIRS = {"w": ((0, 1), (2, 3)), "b": ((0, 2), (0, 3), (1, 2), (1, 3))}


def reaches(n: int, cell: Cell, black: Container[Cell], depth: int) -> tuple[int, int, int, int]:
    """The edges from ``cell`` toward the border of the n x n board, per
    step, cut at the first cell of ``black`` closer than ``depth``: the loop
    turns at every black circle, so no arm passes one, though an arm may end
    on it.  Only the cells closer than ``depth`` are scanned, since no caller
    reads a reach beyond it, and a white circle, passed straight, never
    cuts.  A reach is cut to 1 at least, so a first edge on the board
    stays."""
    r, c = cell
    out = [r - 1, n - r, c - 1, n - c]
    if black:
        for d, (dr, dc) in enumerate(STEPS):
            for i in range(1, min(out[d], depth)):
                if (r + i * dr, c + i * dc) in black:
                    out[d] = i
                    break
    return tuple(out)


def arm_ladders(
    builder: CnfBuilder,
    edge: EdgeReader,
    add_once: AddOnce,
    reach: Sequence[int],
    cell: Cell,
    pairs: Sequence[tuple[int, int]],
    depth: int,
) -> dict[int, list[Lit]]:
    """The loop passes the circle at ``cell`` along one of ``pairs``, pairs
    of directions (indices into ``STEPS``) whose first edges are on the
    board; ``reach`` is the circle's ``reaches``.  ``edge(a, b)`` is the
    literal of the edge between cells a and b being on, read once per edge.
    ``add_once`` adds a clause unless it was added before, and takes only
    the clauses that two circles can both write: the unit that forces an
    edge off, and the empty clause of an unmet circle.  Every other clause
    goes straight into ``builder.clauses``.

    Returns the arm ladders, the order encoding of each arm's length
    (Tamura et al., "Compiling finite linear CSP into SAT", Constraints
    2009): over the edges e_d(1), e_d(2), ... from the circle toward d,
    a_d(1) = e_d(1) and a_d(L) <-> a_d(L-1) and e_d(L), up to the border or
    a black circle (``reach[d]``) or to L = ``depth``, so
    ``ladder[d][L - 1]`` is a_d(L), true iff the arm is at least L long.
    Only directions in some pair get a ladder.  The clauses:

    * colour: two first edges that are not a pair are not both on;
    * partner: an on first edge has an on partner, and some first edge is
      on, so exactly one pair is on whatever the loop model allows (the
      eager model's lone in-cell and directed 2-cycle among it).

    With no pair the clause is empty.
    """
    if not pairs:
        add_once([])
        return {}
    dirs, live, colour, partners = _arm_shape(tuple(pairs), (reach[0] > 0, reach[1] > 0, reach[2] > 0, reach[3] > 0))
    r, c = cell
    nbrs = ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
    first = [0] * len(STEPS)
    for d in dirs:
        first[d] = edge(cell, nbrs[d])
    clauses = builder.clauses
    add = clauses.append
    # implied where a cell has at most two on edges, but without them, or
    # the forced-off units below, the lazy masyu_30x30 took 123 s, not 7 s
    for d, p in colour:
        add([-first[d], -first[p]])
    for d, qs in partners:
        if len(qs) == 1:
            add([-first[d], first[qs[0]]])
        elif qs:
            add([-first[d]] + [first[q] for q in qs])
        else:
            add_once([-first[d]])
    add([first[d] for d in live])

    ladder = {}
    for d in live:
        (dr, dc), arm, a = STEPS[d], [first[d]], nbrs[d]
        for i in range(2, min(depth, reach[d]) + 1):
            b = (r + i * dr, c + i * dc)
            e = edge(a, b)  # in the eager model, a first read makes a gate
            # g <-> the arm so far and e: an AND gate's three clauses
            g = builder.var_count = builder.var_count + 1
            prev = arm[-1]
            clauses += ([-g, prev], [-g, e], [g, -prev, -e])
            arm.append(g)
            a = b
        ladder[d] = arm
    return ladder


@functools.cache
def _arm_shape(
    pairs: tuple[tuple[int, int], ...], on_board: tuple[bool, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int], ...], tuple[tuple[int, tuple[int, ...]], ...]]:
    """What ``arm_ladders`` writes for ``pairs`` at a circle whose first
    edge toward each direction of ``STEPS`` is on the board or not, in
    direction indices: the directions on the board, those in some pair
    (live), the live pairs that are not a pair (colour), and each on-board
    direction with its partners."""
    dirs = tuple(d for d in range(len(STEPS)) if on_board[d])
    partners = {d: tuple(q for pair in pairs if d in pair for q in pair if q != d) for d in dirs}
    live = tuple(d for d in dirs if partners[d])
    colour = tuple((d, p) for i, d in enumerate(live) for p in live[i + 1 :] if p not in partners[d])
    return dirs, live, colour, tuple(partners.items())


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

    The eager model (``hcp`` over directed edges, started at the first
    circle) is complete on its own, and the propagator is None;
    ``edge(a, b)`` there is one ``gate_or`` of the two directions, built the
    first time a rule reads the edge.  With
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
        edges, propagator = hcp_grid(builder, grid, circles[0] if circles else None), None
    clauses = builder.clauses
    directed, undirected = _edge_maps(edges, propagator is not None)
    added: set[tuple[Lit, ...]] = set()

    def edge(a: Cell, b: Cell) -> Lit:
        try:
            return undirected[a, b]
        except KeyError:
            g = undirected[a, b] = undirected[b, a] = builder.gate_or([directed[a, b], directed[b, a]])
            return g

    def add_once(clause: list[Lit]) -> None:
        key = tuple(clause)
        if key not in added:
            added.add(key)
            clauses.append(clause)

    for cell in circles:
        clauses.append([grid.cells[cell]])
        constrain(cell, edge, add_once)
    return (lambda assignment: decode_loop(assignment, grid, edges)), None, propagator


# The edge maps of the last loop grid, with its first EdgeSpec: the grid
# encoders hand out the same EdgeSpecs for every board stamped from one
# template, so the maps hold while they come back.
_last_maps: tuple[EdgeSpec | None, dict, dict] = (None, {}, {})


def _edge_maps(
    edges: Sequence[EdgeSpec], lazy: bool
) -> tuple[dict[tuple[Cell, Cell], Lit], dict[tuple[Cell, Cell], Lit]]:
    """``build_loop``'s maps over ``edges``: each directed edge's literal,
    and the literal of each edge under both of its orientations, which is
    the lazy model's own and shared, while the eager model's starts empty
    for each board and gets a gate as a rule first reads the edge."""
    global _last_maps
    first, directed, undirected = _last_maps
    if not edges or edges[0] is not first:
        directed = {(e.src, e.dst): e.lit for e in edges}
        undirected = {**directed, **{(b, a): lit for (a, b), lit in directed.items()}} if lazy else {}
        _last_maps = (edges[0] if edges else None, directed, undirected)
    return directed, undirected if lazy else {}


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


def check_cycle_shape(cycle: list[Cell], cells: set[Cell], rows: int, cols: int) -> str | None:
    """The one check of a circuit's order: ``cycle`` must be a closed walk of
    orthogonal steps on the rows x cols board that visits every cell of
    ``cells`` exactly once and steps back to its start.  One cell is a loop,
    and two adjacent cells are one; a caller that needs more says so.
    Returns a reason code, or None."""
    if not cycle:
        return "empty-cycle"
    for r, c in cycle:
        if not (1 <= r <= rows and 1 <= c <= cols):
            return "cell-out-of-bounds"
    visited = set(cycle)
    if len(visited) != len(cycle):
        return "repeated-cell"
    if visited != cells:
        return "cycle-incell-mismatch"
    if len(cycle) == 1:
        return None
    for (r1, c1), (r2, c2) in zip(cycle, cycle[1:] + cycle[:1]):
        if abs(r1 - r2) + abs(c1 - c2) != 1:
            return "not-adjacent"
    return None


def check_circles(
    sol: LoopSolution, n: int, marks: dict[Cell, str], rule: Callable[[dict[Cell, tuple[Cell, Cell]], Cell], str | None]
) -> str | None:
    """The rules that Masyu and Shingoki share, then the kind's own.  ``sol``
    must be a loop on the n x n board (``check_cycle_shape``), and each
    circle of ``marks``, its colour ("w" or "b") by cell in row-major
    order, must be on the loop, the loop must have three cells or more, a
    white circle must be passed straight and a black one turned upon; then
    ``rule(neighbors, cell)``, over the loop's ``loop_neighbors``, returns
    the circle's reason code or None.  Returns the first reason code, or
    None."""
    reason = check_cycle_shape(sol.cycle, sol.in_cells, n, n)
    if reason:
        return reason
    neighbors = loop_neighbors(sol)
    for cell, color in marks.items():
        if cell not in sol.in_cells:
            return "circle-not-on-loop"
        if len(sol.cycle) < 3:
            return "degenerate-loop-at-circle"
        prev, nxt = neighbors[cell]
        if straight_at(prev, cell, nxt) != (color == "w"):
            return "white-not-straight" if color == "w" else "black-not-turned"
        reason = rule(neighbors, cell)
        if reason:
            return reason
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


def arm_length(neighbors: dict[Cell, tuple[Cell, Cell]], cell: Cell, first: Cell) -> int:
    """Edges traversed from ``cell`` toward its loop-neighbor ``first`` while
    the walk continues in a straight line; ``neighbors`` is the loop's
    ``loop_neighbors``, which must have at least three cells."""
    direction = (first[0] - cell[0], first[1] - cell[1])
    length = 1
    prev, cur = cell, first
    while True:
        a, b = neighbors[cur]
        nxt = b if a == prev else a
        if (nxt[0] - cur[0], nxt[1] - cur[1]) != direction:
            return length
        length += 1
        prev, cur = cur, nxt
