"""Seeded puzzle generator for the benchmark.

Every instance is built backward from a witness, so its answer is known by
construction: Masyu and Shingoki clues are read off a random simple loop,
Tapa clues off a random connected black region with no 2x2 block, and each
Road Runner board is laid out around a random loop that is exactly its set
of safe cells.  Nothing here calls gridloop: the benchmark must not use the
program under test to make its own inputs.  The same seed gives
byte-identical instance texts.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

Cell = tuple[int, int]  # (row, col), 1-based
_STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))


@dataclass(frozen=True)
class Instance:
    """One generated puzzle with the answer known by construction.

    ``witness`` is a solution in the JSON form ``gridloop verify`` reads,
    so every instance is solvable; ``known_k`` is the Road Runner circuit
    length of the witness (None for other kinds).
    """

    name: str
    kind: str
    text: str
    witness: dict
    known_k: int | None = None

    @property
    def extension(self) -> str:
        return "." + self.kind


# -- loops ----------------------------------------------------------------

def random_loop(rows: int, cols: int, rng: random.Random, fill: float) -> list[Cell]:
    """A random simple cycle of grid cells covering about ``fill`` of the grid.

    Starts from a 2x2 square and repeatedly replaces a cycle edge a->b by the
    detour a->a'->b'->b through two free cells beside it.
    """
    r0, c0 = rng.randint(1, rows - 1), rng.randint(1, cols - 1)
    cycle = [(r0, c0), (r0, c0 + 1), (r0 + 1, c0 + 1), (r0 + 1, c0)]
    on = set(cycle)
    target = max(4, int(fill * rows * cols))
    stalls = 0
    while len(cycle) < target and stalls < 200:
        i = rng.randrange(len(cycle))
        (ra, ca), (rb, cb) = cycle[i], cycle[(i + 1) % len(cycle)]
        dr, dc = rb - ra, cb - ca
        pr, pc = rng.choice(((dc, dr), (-dc, -dr)))  # perpendicular side
        a2, b2 = (ra + pr, ca + pc), (rb + pr, cb + pc)
        if all(1 <= r <= rows and 1 <= c <= cols and (r, c) not in on for r, c in (a2, b2)):
            cycle[i + 1 : i + 1] = [a2, b2]
            on.update((a2, b2))
            stalls = 0
        else:
            stalls += 1
    start = cycle.index(min(cycle))
    return cycle[start:] + cycle[:start]


def is_cycle(cells: list[Cell]) -> bool:
    """True iff ``cells`` lists distinct cells, each orthogonally adjacent
    to the next and the last to the first."""
    if len(cells) < 4 or len(set(cells)) != len(cells):
        return False
    return all(
        abs(r1 - r2) + abs(c1 - c2) == 1
        for (r1, c1), (r2, c2) in zip(cells, cells[1:] + cells[:1])
    )


def _turns(cycle: list[Cell]) -> list[bool]:
    n = len(cycle)
    out = []
    for i, (r, c) in enumerate(cycle):
        (pr, pc), (nr, nc) = cycle[i - 1], cycle[(i + 1) % n]
        out.append((r - pr, c - pc) != (nr - r, nc - c))
    return out


def _arm(cycle: list[Cell], i: int, step: int) -> int:
    """Straight run length from cycle[i] toward cycle[i + step]."""
    n = len(cycle)
    r, c = cycle[i]
    nr, nc = cycle[(i + step) % n]
    d = (nr - r, nc - c)
    length, j = 1, (i + step) % n
    while True:
        k = (j + step) % n
        if (cycle[k][0] - cycle[j][0], cycle[k][1] - cycle[j][1]) != d:
            return length
        length, j = length + 1, k


def serpentine(n: int) -> list[Cell]:
    """The Hamiltonian cycle of an n x n grid (n even) that the bundled
    ``masyu_30x30`` was drawn from: row 1 rightward, rows 2..n snaking
    through columns 2..n, column 1 back up."""
    cycle = [(1, c) for c in range(1, n + 1)]
    for r in range(2, n + 1):
        cols = range(n, 1, -1) if r % 2 == 0 else range(2, n + 1)
        cycle.extend((r, c) for c in cols)
    cycle.extend((r, 1) for r in range(n, 1, -1))
    return cycle


def loop_witness(kind: str, n: int, cycle: list[Cell]) -> dict:
    return {"kind": kind, "n": n, "cycle": [list(c) for c in cycle], "k": len(cycle)}


def masyu(name: str, n: int, rng: random.Random, density: float, fill: float = 0.6) -> Instance:
    """Circles on a random fraction ``density`` of the loop cells that
    qualify: white where the loop goes straight with a turn next to it,
    black where it turns with straight arms on both sides."""
    cycle = random_loop(n, n, rng, fill)
    turn = _turns(cycle)
    m = len(cycle)
    board = [["."] * n for _ in range(n)]
    for i, (r, c) in enumerate(cycle):
        prev, nxt = turn[i - 1], turn[(i + 1) % m]
        if not turn[i] and (prev or nxt):
            mark = "w"
        elif turn[i] and not prev and not nxt:
            mark = "b"
        else:
            continue
        if rng.random() < density:
            board[r - 1][c - 1] = mark
    text = f"{n}\n" + "".join("".join(row) + "\n" for row in board)
    return Instance(name, "masyu", text, loop_witness("masyu", n, cycle))


def shingoki(name: str, n: int, rng: random.Random, density: float, fill: float = 0.6) -> Instance:
    """Circles on a random fraction ``density`` of the loop cells, white on
    straights and black on turns, each labelled with its two arm lengths."""
    cycle = random_loop(n, n, rng, fill)
    turn = _turns(cycle)
    board = [["."] * n for _ in range(n)]
    for i, (r, c) in enumerate(cycle):
        if rng.random() < density:
            clue = _arm(cycle, i, -1) + _arm(cycle, i, 1)
            board[r - 1][c - 1] = ("b" if turn[i] else "w") + str(clue)
    text = f"{n}\n" + "".join(" ".join(row) + "\n" for row in board)
    return Instance(name, "shingoki", text, loop_witness("shingoki", n, cycle))


# -- tapa -----------------------------------------------------------------

def _makes_2x2(black: set[Cell], r: int, c: int) -> bool:
    for dr in (-1, 0):
        for dc in (-1, 0):
            square = [(r + dr + i, c + dc + j) for i in (0, 1) for j in (0, 1)]
            if all(cell == (r, c) or cell in black for cell in square):
                return True
    return False


def random_region(n: int, rng: random.Random, fill: float) -> set[Cell]:
    """A random connected set of about ``fill`` * n * n cells with no 2x2
    block, grown one frontier cell at a time.  A cell that would close a 2x2
    block is dropped for good: the region only grows, so it stays barred."""
    start = (rng.randint(1, n), rng.randint(1, n))
    black = {start}
    seen = {start}  # cells ever queued: black, barred or in the frontier
    frontier: list[Cell] = []

    def push_neighbours(r: int, c: int) -> None:
        for dr, dc in _STEPS:
            cell = (r + dr, c + dc)
            if 1 <= cell[0] <= n and 1 <= cell[1] <= n and cell not in seen:
                seen.add(cell)
                frontier.append(cell)

    push_neighbours(*start)
    target = max(1, int(fill * n * n))
    while len(black) < target and frontier:
        i = rng.randrange(len(frontier))
        frontier[i], frontier[-1] = frontier[-1], frontier[i]
        cell = frontier.pop()
        if _makes_2x2(black, *cell):
            continue
        black.add(cell)
        push_neighbours(*cell)
    return black


def _ring(n: int, r: int, c: int) -> tuple[list[Cell], bool]:
    ring = [
        (r + dr, c + dc)
        for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
        if 1 <= r + dr <= n and 1 <= c + dc <= n
    ]
    return ring, len(ring) == 8


def _runs(bits: list[int], circular: bool) -> list[int]:
    if circular and all(bits):
        return [len(bits)]
    runs, cur = [], 0
    for bit in bits:
        if bit:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    if circular and len(runs) > 1 and bits[0] and bits[-1]:
        runs[0] += runs.pop()
    return runs


def tapa(name: str, n: int, rng: random.Random, density: float, fill: float = 0.5) -> Instance:
    """Clues on a random fraction ``density`` of the white cells, each the
    black run lengths of its neighbour ring (0 for an all-white ring)."""
    black = random_region(n, rng, fill)
    board = [["."] * n for _ in range(n)]

    def put_clue(r: int, c: int) -> None:
        ring, circular = _ring(n, r, c)
        runs = sorted(_runs([int(cell in black) for cell in ring], circular))
        board[r - 1][c - 1] = "".join(map(str, runs)) or "0"

    for r in range(1, n + 1):
        for c in range(1, n + 1):
            if (r, c) not in black and rng.random() < density:
                put_clue(r, c)
    if all(tok == "." for row in board for tok in row):  # keep one clue at least
        put_clue(*next((r, c) for r in range(1, n + 1) for c in range(1, n + 1) if (r, c) not in black))
    text = f"{n}\n" + "".join(" ".join(row) + "\n" for row in board)
    grid = [[int((r, c) in black) for c in range(1, n + 1)] for r in range(1, n + 1)]
    return Instance(name, "tapa", text, {"kind": "tapa", "n": n, "black": grid})


# -- road runner ------------------------------------------------------------

def _segment(white: set[Cell], cell: Cell, dr: int, dc: int) -> list[Cell]:
    out, (r, c) = [], cell
    while (r + dr, c + dc) in white:
        r, c = r + dr, c + dc
        out.append((r, c))
    return out


def _sight(white: set[Cell], cell: Cell) -> list[Cell]:
    """White cells a laser at ``cell`` beams over, up to the first hill."""
    return [p for dr, dc in _STEPS for p in _segment(white, cell, dr, dc)]


def safe_cells(white: set[Cell], lasers: set[Cell]) -> set[Cell]:
    """White cells that hold no laser and lie in no laser's beam."""
    covered = set(lasers)
    for cell in lasers:
        covered.update(_sight(white, cell))
    return white - covered


def roadrunner(name: str, rows: int, cols: int, rng: random.Random, hills: float, clues: float,
               fill: float = 0.55) -> Instance:
    """A board whose safe cells are exactly a random loop.

    Off-loop cells become hills with probability ``hills``; the rest hold
    lasers that see no loop cell and no other laser, or sit in a laser's
    beam.  Off-loop cells that end up neither are turned into hills until
    none is left.  A fraction ``clues`` of the hills carry the count of
    their neighbouring lasers.
    """
    cycle = random_loop(rows, cols, rng, fill)
    loop = set(cycle)
    cells = [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]
    white = set(loop) | {cell for cell in cells if cell not in loop and rng.random() >= hills}
    lasers: set[Cell] = set()
    candidates = sorted(white - loop)
    rng.shuffle(candidates)
    for cell in candidates:
        if not any(p in loop or p in lasers for p in _sight(white, cell)):
            lasers.add(cell)
    # Safe off-loop cells become hills; hills only shorten beams, so repeat
    # until none is left.
    while stray := safe_cells(white, lasers) - loop:
        white -= stray
    if safe_cells(white, lasers) != loop or not is_cycle(cycle):
        raise AssertionError("generated road runner layout is not a single circuit")
    board = [["." if (r, c) in white else "#" for c in range(1, cols + 1)] for r in range(1, rows + 1)]
    for r, c in cells:
        if (r, c) not in white and rng.random() < clues:
            count = sum((r + dr, c + dc) in lasers for dr, dc in _STEPS)
            board[r - 1][c - 1] = str(count)
    text = f"{cols} {rows}\n" + "".join("".join(row) + "\n" for row in board)
    grid = lambda keep: [[int((r, c) in keep) for c in range(1, cols + 1)] for r in range(1, rows + 1)]
    witness = {"kind": "roadrunner", "maxX": cols, "maxY": rows,
               "laser": grid(lasers), "road": grid(loop), "k": len(loop)}
    return Instance(name, "roadrunner", text, witness, known_k=len(loop))
