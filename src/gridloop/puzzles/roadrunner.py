"""Smarty Road Runner: place lasers on white cells (no two see each other,
hill clues count adjacent lasers) so that the safe cells form one closed
circuit, maximizing the circuit length.

Coordinates are (x, y) with x the 1-based column and y the 1-based row.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from ..cnf import CnfBuilder, Lit, NameRule, UnaryCount
from ..graph import EdgeSpec, GridVars, cycle_grid, hcp_grid
from ..solver import Propagator
from .loops import check_cycle_shape, decode_loop

Pos = tuple[int, int]  # (x, y)


@dataclass
class RoadrunnerInstance:
    max_x: int  # columns
    max_y: int  # rows
    hill: list[list[int]]  # hill[y-1][x-1], 0/1
    clues: list[tuple[int, int, int]]  # (x, y, num)

    def is_hill(self, x: int, y: int) -> bool:
        return bool(self.hill[y - 1][x - 1])

    def in_bounds(self, x: int, y: int) -> bool:
        return 1 <= x <= self.max_x and 1 <= y <= self.max_y

    def white_cells(self) -> list[Pos]:
        """The cells that are not hills, row by row."""
        return [(x, y) for y, row in enumerate(self.hill, 1) for x, h in enumerate(row, 1) if not h]


def parse_roadrunner(text: str) -> RoadrunnerInstance:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("expected header 'maxX maxY'")
    max_x, max_y = int(head[0]), int(head[1])
    if max_x < 1 or max_y < 1:
        raise ValueError("grid must be at least 1x1")
    rows = lines[1:]
    if len(rows) != max_y:
        raise ValueError(f"expected {max_y} board rows, found {len(rows)}")
    hill = []
    clues = []
    for y, ln in enumerate(rows, start=1):
        row = ln.strip()
        if len(row) != max_x:
            raise ValueError(f"row {row!r} has length {len(row)}, expected {max_x}")
        hrow = []
        for x, ch in enumerate(row, start=1):
            if ch == ".":
                hrow.append(0)
            elif ch == "#":
                hrow.append(1)
            elif ch.isdigit() and 0 <= int(ch) <= 4:
                hrow.append(1)
                clues.append((x, y, int(ch)))
            else:
                raise ValueError(f"bad cell {ch!r}")
        hill.append(hrow)
    return RoadrunnerInstance(max_x, max_y, hill, clues)


def _sight_runs(inst: RoadrunnerInstance) -> list[list[Pos]]:
    """The runs of white cells between hills (or the edge) along each row,
    then along each column, in order: a laser beams along its row run and
    its column run."""
    white = set(inst.white_cells())
    lines = [[(x, y) for x in range(1, inst.max_x + 1)] for y in range(1, inst.max_y + 1)]
    lines += [[(x, y) for y in range(1, inst.max_y + 1)] for x in range(1, inst.max_x + 1)]
    return [list(run) for line in lines for is_white, run in itertools.groupby(line, key=white.__contains__) if is_white]


def quadrantal_neighbors(inst: RoadrunnerInstance, x: int, y: int) -> list[Pos]:
    return [
        (x1, y1)
        for x1, y1 in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
        if inst.in_bounds(x1, y1)
    ]


def build_roadrunner(
    builder: CnfBuilder, inst: RoadrunnerInstance, lazy: bool = False
) -> tuple[Callable[[dict[int, bool]], RoadrunnerSolution], UnaryCount, Propagator | None]:
    """Returns (decode, road counter, propagator): ``decode(assignment)``
    reads lasers and road back; the counter is the objective to maximize.

    Clues and sight are clauses over lasers and road, with no auxiliary
    variable.  Road cells are the exact complement of laser-covered cells
    (full biconditional), and they must form a cycle of length >= 1:
    ``hcp`` (no propagator), or with ``lazy`` ``cycle_grid`` and its
    propagator.  The counter defines an output both ways only where a
    clause reads it as false (see ``CnfBuilder.unary_count``): outputs 1
    to 3 in the lazy model, whose ``cycle_grid`` guards read outputs 2 and
    3, and none in the eager one, where ``hcp`` requires a road cell by
    itself.  The others only imply their bound, which is all
    ``maximize``'s assumptions read.
    """
    for x, y, num in inst.clues:
        if not inst.in_bounds(x, y) or not inst.is_hill(x, y):
            raise ValueError(f"clue at ({x}, {y}) is not on a hill")
        if not 0 <= num <= 4:
            raise ValueError(f"clue value {num} out of range")

    # only white cells can be on the road: hills get no road literal
    white = inst.white_cells()
    road_at = dict(zip(white, builder.named_vars(NameRule("road_%d_%d", [(y, x) for x, y in white]))))
    road = GridVars(inst.max_y, inst.max_x, {(y, x): rd for (x, y), rd in road_at.items()})
    laser = dict(zip(white, builder.named_vars(NameRule("laser_%d_%d", white))))
    clauses = builder.clauses

    # a clue of num over n lasers: no num + 1 of them on, no n - num + 1 off
    for x, y, num in inst.clues:
        near = [laser[p] for p in quadrantal_neighbors(inst, x, y) if p in laser]
        if num > len(near):
            clauses.append([])  # clue cannot be met
            continue
        clauses += [[-l for l in ls] for ls in itertools.combinations(near, num + 1)]
        clauses += [list(ls) for ls in itertools.combinations(near, len(near) - num + 1)]

    # Sight, run by run of ``_sight_runs``: no two lasers in a run, and no
    # road at another cell of a laser's run; then per cell, no road on a
    # laser, and a road unless a laser is on it or on one of its two runs.
    others: dict[Pos, list[Lit]] = {p: [] for p in white}
    for run in _sight_runs(inst):
        lasers, roads = [laser[p] for p in run], [road_at[p] for p in run]
        clauses += [[-a, -b] for a, b in itertools.combinations(lasers, 2)]
        for i, (p, lz) in enumerate(zip(run, lasers)):
            clauses += [[-lz, -q] for q in roads[:i] + roads[i + 1 :]]
            others[p] += lasers[:i] + lasers[i + 1 :]
    for p, lz in laser.items():
        clauses += ([-road_at[p], -lz], [road_at[p], lz] + others[p])

    # an all-hill board still gets a counter to bound, over constant false
    cells = list(road.cells.values()) or [builder.FALSE]
    propagator, edges = None, []
    if lazy:
        # the counter comes first: cycle_grid's degree clauses read it
        count = builder.unary_count(cells, exact=3)
        clauses.append([count.outputs[0]])  # K >= 1
        edges, propagator = cycle_grid(builder, road, count=count)
    else:
        if road.cells:
            edges = hcp_grid(builder, road)  # hcp itself requires K >= 1
        else:
            clauses.append([])  # all hills: no road
        count = builder.unary_count(cells, exact=0)
    return (lambda assignment: decode_roadrunner(assignment, inst, laser, road, edges)), count, propagator


@dataclass
class RoadrunnerSolution:
    laser: list[list[int]]  # laser[y-1][x-1]
    road: list[list[int]]
    k: int
    # the circuit's road cells in walk order, or None where a library
    # caller has no order, which ``verify_roadrunner`` then searches for
    cycle: list[Pos] | None = None

    def laser_at(self, x: int, y: int) -> bool:
        return bool(self.laser[y - 1][x - 1])

    def road_at(self, x: int, y: int) -> bool:
        return bool(self.road[y - 1][x - 1])


def decode_roadrunner(
    assignment: dict[int, bool],
    inst: RoadrunnerInstance,
    laser: dict[Pos, Lit],
    road: GridVars,
    edges: list[EdgeSpec],
) -> RoadrunnerSolution:
    """Lasers and road, and the circuit's order: the one cycle of active
    edges, read by ``decode_loop``, which must pass every road cell, or the
    road cells in row-major order where there are at most two, which need
    no edge.  Raises RuntimeError otherwise."""
    laser_grid = [[0] * inst.max_x for _ in range(inst.max_y)]
    for (x, y), lit in laser.items():
        if assignment[lit]:
            laser_grid[y - 1][x - 1] = 1
    road_grid = road.read(assignment)
    cycle = [(x, y) for (y, x), lit in road.cells.items() if assignment[lit]]
    if len(cycle) > 2:
        cycle = [(x, y) for y, x in decode_loop(assignment, road, edges).cycle]
    return RoadrunnerSolution(laser_grid, road_grid, sum(map(sum, road_grid)), cycle)


def _segment_groups(inst: RoadrunnerInstance):
    """Maximal hill-free runs of each row and column (laser sight lines).
    It repeats the encoder's ``_sight_runs`` on purpose: a verifier shares
    no code with the encoding it checks."""
    groups = []
    for y in range(1, inst.max_y + 1):
        run = []
        for x in range(1, inst.max_x + 2):
            if inst.in_bounds(x, y) and not inst.is_hill(x, y):
                run.append((x, y))
            elif run:
                groups.append(run)
                run = []
    for x in range(1, inst.max_x + 1):
        run = []
        for y in range(1, inst.max_y + 2):
            if inst.in_bounds(x, y) and not inst.is_hill(x, y):
                run.append((x, y))
            elif run:
                groups.append(run)
                run = []
    return groups


def verify_roadrunner(inst: RoadrunnerInstance, sol: RoadrunnerSolution) -> str | None:
    """Re-check the game rules directly: laser mutual visibility, clue sums,
    road = safe cells (set equality), and the single-circuit property: the
    solution's cycle order must pass ``check_cycle_shape`` over the road
    cells on the max_x x max_y board, in linear time.  A solution with no
    order (``cycle`` None, which only a library caller passes) is searched
    with ``has_grid_cycle`` instead."""
    if len(sol.laser) != inst.max_y or len(sol.road) != inst.max_y or any(len(row) != inst.max_x for row in sol.laser + sol.road):
        return "wrong-grid-size"
    if any(bit not in (0, 1) for row in sol.laser + sol.road for bit in row):
        return "bad-cell-value"
    for y in range(1, inst.max_y + 1):
        for x in range(1, inst.max_x + 1):
            if inst.is_hill(x, y) and (sol.laser_at(x, y) or sol.road_at(x, y)):
                return "hill-cell-used"
            if sol.laser_at(x, y) and sol.road_at(x, y):
                return "laser-on-road"
    segments = _segment_groups(inst)
    for seg in segments:
        if sum(1 for p in seg if sol.laser_at(*p)) > 1:
            return "lasers-see-each-other"
    for x, y, num in inst.clues:
        got = sum(
            inst.in_bounds(x1, y1) and sol.laser_at(x1, y1)
            for x1, y1 in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
        )
        if got != num:
            return "clue-sum-mismatch"
    # safe cells: white, not a laser, not covered by any laser in its segments
    covered = set()
    for seg in segments:
        if any(sol.laser_at(*p) for p in seg):
            covered.update(seg)
    safe = {p for p in inst.white_cells() if p not in covered}
    roads = {p for p in inst.white_cells() if sol.road_at(*p)}
    if roads != safe:
        return "road-not-safe-set"
    if sol.k != len(roads):
        return "k-mismatch"
    if not roads:
        return "no-road-cell"
    if sol.cycle is None:
        return None if has_grid_cycle(roads) else "road-not-a-circuit"
    return "road-not-a-circuit" if check_cycle_shape(sol.cycle, roads, inst.max_x, inst.max_y) else None


def has_grid_cycle(cells: set[Pos]) -> bool:
    """True iff a closed walk visits every cell exactly once (orthogonal
    steps).  A single cell counts; two adjacent cells form a 2-cycle.  Only
    for library callers that pass ``verify_roadrunner`` no circuit order,
    such as the benchmark's checker: the search is exponential in the worst
    case, since Hamiltonian cycle on grid graphs is NP-complete, so the CLI
    requires the order."""
    if not cells:
        return False
    if len(cells) == 1:
        return True
    # each step changes the checkerboard colour, so a closed walk over two
    # or more cells has as many of one colour as of the other
    if 2 * sum((x + y) % 2 for x, y in cells) != len(cells):
        return False
    adj = {
        (x, y): [
            p
            for p in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
            if p in cells
        ]
        for (x, y) in cells
    }
    if any(len(v) < 2 for v in adj.values()) and len(cells) > 2:
        return False
    # a circuit is connected and leaves no cut cell: check both first, since
    # the search below would try every path through a part it cannot leave
    start = min(cells)
    if not _two_connected(adj, start):
        return False
    visited = {start}

    def bt(cur):
        if len(visited) == len(cells):
            return start in adj[cur]
        # visit forced cells (one unvisited neighbor) first to prune
        nxts = sorted(
            (p for p in adj[cur] if p not in visited),
            key=lambda p: sum(1 for q in adj[p] if q not in visited),
        )
        for p in nxts:
            visited.add(p)
            if bt(p):
                return True
            visited.remove(p)
        return False

    return bt(start)


def _two_connected(adj: dict[Pos, list[Pos]], start: Pos) -> bool:
    """True iff one depth-first search from ``start`` reaches every cell of
    ``adj`` and finds no cut cell, a cell whose removal splits the others
    (Hopcroft & Tarjan, CACM 1973).  ``low[v]`` is the least visit order
    that v's subtree reaches by one non-tree step; a child v whose ``low``
    does not reach above its parent u makes u a cut cell, or, for u the
    start, leaves cells that v's subtree did not reach.  Only
    ``has_grid_cycle`` calls it, ahead of its search."""
    order = {start: 0}
    low = {start: 0}
    stack = [(start, iter(adj[start]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if w not in order:
                order[w] = low[w] = len(order)
                stack.append((w, iter(adj[w])))
                break
            low[v] = min(low[v], order[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                if low[v] >= order[u] and (u != start or len(order) < len(adj)):
                    return False
                low[u] = min(low[u], low[v])
    return len(order) == len(adj)
