"""Tapa: color cells black/white so the black cells form one orthogonally
connected group with no 2x2 black area, and every clue cell's neighbor ring
contains black blocks of exactly the given sizes, separated by whites."""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from ..cnf import CnfBuilder, Lit
from ..graph import GridVars, scc_grid
from ..solver import Propagator

Cell = tuple[int, int]


@dataclass
class TapaInstance:
    n: int
    board: list[list[list[int] | None]]  # clue list (1..4 digits) or None

    def at(self, r: int, c: int):
        return self.board[r - 1][c - 1]

    def clue_cells(self):
        for r in range(1, self.n + 1):
            for c in range(1, self.n + 1):
                if self.board[r - 1][c - 1] is not None:
                    yield r, c


@dataclass
class ColoringSolution:
    black: list[list[int]]  # row-major 0/1

    def is_black(self, r: int, c: int) -> bool:
        return bool(self.black[r - 1][c - 1])


def parse_tapa(text: str) -> TapaInstance:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance")
    n = int(lines[0].split()[0])
    if n < 1:
        raise ValueError("grid size must be >= 1")
    rows = lines[1 : n + 1]
    if len(rows) != n:
        raise ValueError(f"expected {n} board rows, found {len(rows)}")
    board: list[list[list[int] | None]] = []
    for ln in rows:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"row has {len(toks)} tokens, expected {n}")
        row: list[list[int] | None] = []
        for tok in toks:
            if tok == ".":
                row.append(None)
            elif tok.isdigit() and 1 <= len(tok) <= 4:
                row.append([int(ch) for ch in tok])
            else:
                raise ValueError(f"bad token {tok!r}")
        board.append(row)
    return TapaInstance(n, board)


def neighbor_ring(n: int, r: int, c: int) -> tuple[list[Cell], bool]:
    """Up-to-8 surrounding cells in clockwise order starting at (r-1, c-1),
    filtered to the grid.  The flag is true iff the ring is full (interior
    cell), in which case block separation wraps around."""
    ring = [
        (r1, c1)
        for r1, c1 in [
            (r - 1, c - 1),
            (r - 1, c),
            (r - 1, c + 1),
            (r, c + 1),
            (r + 1, c + 1),
            (r + 1, c),
            (r + 1, c - 1),
            (r, c - 1),
        ]
        if 1 <= r1 <= n and 1 <= c1 <= n
    ]
    return ring, len(ring) == 8


def findall_layouts(clues: list[int], ring_len: int, circular: bool) -> list[tuple[int, ...]]:
    """All 0/1 layouts over the ring realizing black blocks with the clue
    sizes (order-insensitive), pairwise separated by at least one white.
    Separation applies across the wrap point iff ``circular``."""
    if not clues or any(not 0 <= cl <= 8 for cl in clues):
        raise ValueError(f"bad clue list {clues!r}")
    if ring_len < 1:
        raise ValueError("ring length must be >= 1")
    sizes = [cl for cl in clues if cl > 0]
    if not sizes:
        return [tuple([0] * ring_len)]

    layouts: set[tuple[int, ...]] = set()
    k = len(sizes)
    for perm in set(itertools.permutations(sizes)):
        total = sum(perm)
        if circular:
            if k == 1:
                size = perm[0]
                if size == ring_len:
                    layouts.add(tuple([1] * ring_len))
                elif size < ring_len:
                    for s in range(ring_len):
                        lay = [0] * ring_len
                        for i in range(size):
                            lay[(s + i) % ring_len] = 1
                        layouts.add(tuple(lay))
                continue
            slack = ring_len - total - k  # gaps are 1 + extra slack
            if slack < 0:
                continue
            for s in range(ring_len):
                for extras in _compositions(slack, k):
                    lay = [0] * ring_len
                    pos = s
                    for bi, size in enumerate(perm):
                        for i in range(size):
                            lay[(pos + i) % ring_len] = 1
                        pos += size + 1 + extras[bi]
                    layouts.add(tuple(lay))
        else:
            slack = ring_len - total - (k - 1)
            if slack < 0:
                continue
            # slack distributed over k+1 gaps (leading/trailing may be 0)
            for extras in _compositions(slack, k + 1):
                lay = [0] * ring_len
                pos = extras[0]
                for bi, size in enumerate(perm):
                    for i in range(size):
                        lay[pos + i] = 1
                    pos += size + (1 + extras[bi + 1] if bi < k - 1 else 0)
                layouts.add(tuple(lay))
    return sorted(layouts)


def _compositions(total: int, parts: int):
    """All nonnegative integer tuples of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def build_tapa(
    builder: CnfBuilder, inst: TapaInstance, lazy: bool = False
) -> tuple[Callable[[dict[int, bool]], ColoringSolution], None, Propagator | None]:
    """Returns (decode, None, propagator): ``decode(assignment)`` reads the
    coloring back, and there is no objective.

    The eager model (``scc_grid`` over the non-clue cells, the 2x2 windows
    and the clue layouts) is complete on its own, and the propagator is
    None.  With ``lazy`` the lazy model is built instead: the same formula
    without ``scc_grid``, so its black cells may fall apart, and the
    propagator's final check gives the clauses that exclude a model whose
    black cells do (see ``Connectivity``), or no clause for a connected
    one."""
    # clue cells are white: only the other cells get a literal
    grid = GridVars(
        inst.n,
        inst.n,
        {
            (r, c): builder.new_var(f"cell_{r}_{c}")
            for r in range(1, inst.n + 1)
            for c in range(1, inst.n + 1)
            if inst.at(r, c) is None
        },
    )
    propagator = None
    if lazy:
        propagator = Connectivity(grid)
    elif grid.cells:  # an all-clue board has no black cell to connect
        scc_grid(builder, grid)
    for r in range(1, inst.n):
        for c in range(1, inst.n):
            window = [(r, c), (r, c + 1), (r + 1, c), (r + 1, c + 1)]
            if all(p in grid.cells for p in window):
                builder.add_trusted([-grid.cells[p] for p in window])
    for r, c in inst.clue_cells():
        ring, circular = neighbor_ring(inst.n, r, c)
        if ring:
            layouts = findall_layouts(inst.at(r, c), len(ring), circular)
        else:  # a 1x1 board: the ring is empty, so only an all-zero clue is met
            layouts = [] if any(inst.at(r, c)) else [()]
        choices = []
        for lay in layouts:
            if any(bit and p not in grid.cells for p, bit in zip(ring, lay)):
                continue  # black on a clue cell
            lits = [
                grid.cells[p] if bit else -grid.cells[p]
                for p, bit in zip(ring, lay)
                if p in grid.cells
            ]
            if not lits:
                break  # the clue is met whatever the cells are: no clause
            choices.append(builder.gate_and(lits))
        else:
            builder.add_trusted(choices)  # empty if no layout fits: infeasible
    return (lambda assignment: decode_coloring(assignment, grid)), None, propagator


class Connectivity(Propagator):
    """The propagator of the lazy model, which checks nothing until a model
    is total.  For a model whose black cells form two or more 4-connected
    components, listed by their first cell in row-major order, ``final``
    cuts each component C with

        not b_u  or  not b_v  or  OR(b_w : w a non-clue cell next to C, not in C)

    where u is C's first cell and v the first cell of the next component,
    taken cyclically.  Every solution meets it with no guard: if u and v are
    black and the black cells are connected, a black path from u to v leaves
    C through a black neighbour of C, which is not a clue cell.  In the model
    every neighbour of C is white, so the cut is false there.  This is the
    vertex-separator cut for connected subgraphs (Carvajal, Constantino,
    Goycoolea, Vielma & Weintraub, Operations Research 2013)."""

    def __init__(self, grid: GridVars):
        self.grid = grid

    def final(self, assignment: dict[int, bool]) -> list[list[Lit]]:
        grid = self.grid
        black = dict.fromkeys(rc for rc, lit in grid.cells.items() if assignment[lit])
        comps = []  # (first cell, its non-clue neighbours not in it)
        seen: set[Cell] = set()
        for start in black:  # row-major, so ``start`` is its component's first cell
            if start in seen:
                continue
            border, stack = set(), [start]
            seen.add(start)
            while stack:
                r, c = stack.pop()
                for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if nb in black:
                        if nb not in seen:
                            seen.add(nb)
                            stack.append(nb)
                    elif nb in grid.cells:
                        border.add(nb)
            comps.append((start, border))
        if len(comps) < 2:
            return []
        return [
            [-grid.cells[u], -grid.cells[comps[(i + 1) % len(comps)][0]]]
            + [grid.cells[w] for w in sorted(border)]
            for i, (u, border) in enumerate(comps)
        ]


def decode_coloring(assignment: dict[int, bool], grid: GridVars) -> ColoringSolution:
    return ColoringSolution(grid.read(assignment))


def _ring_runs(pattern: list[int], circular: bool) -> list[int]:
    """Lengths of maximal 1-runs, merging across the wrap point if circular."""
    if not any(pattern):
        return []
    if circular and all(pattern):
        return [len(pattern)]
    runs = []
    cur = 0
    for bit in pattern:
        if bit:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    if circular and pattern[0] and pattern[-1] and len(runs) > 1:
        runs[0] += runs.pop()
    return runs


def verify_tapa(inst: TapaInstance, sol: ColoringSolution) -> str | None:
    """Flood fill for connectivity, 2x2 windows, and per-clue run multisets
    on the neighbor ring.  Returns a reason code on rejection."""
    n = inst.n
    if len(sol.black) != n or any(len(row) != n for row in sol.black):
        return "wrong-grid-size"
    if any(bit not in (0, 1) for row in sol.black for bit in row):
        return "bad-cell-value"
    for r, c in inst.clue_cells():
        if sol.is_black(r, c):
            return "clue-cell-black"
    for r in range(1, n):
        for c in range(1, n):
            if (
                sol.is_black(r, c)
                and sol.is_black(r, c + 1)
                and sol.is_black(r + 1, c)
                and sol.is_black(r + 1, c + 1)
            ):
                return "2x2-black-area"
    blacks = {(r, c) for r in range(1, n + 1) for c in range(1, n + 1) if sol.is_black(r, c)}
    if blacks:
        seen = set()
        stack = [next(iter(blacks))]
        while stack:
            cell = stack.pop()
            if cell in seen:
                continue
            seen.add(cell)
            r, c = cell
            for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if nb in blacks and nb not in seen:
                    stack.append(nb)
        if seen != blacks:
            return "black-not-connected"
    for r, c in inst.clue_cells():
        ring, circular = neighbor_ring(n, r, c)
        pattern = [1 if sol.is_black(r1, c1) else 0 for r1, c1 in ring]
        runs = sorted(_ring_runs(pattern, circular))
        want = sorted(cl for cl in inst.at(r, c) if cl > 0)
        if runs != want:
            return "clue-blocks-mismatch"
    return None
