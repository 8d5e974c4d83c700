"""Tapa: color cells black/white so the black cells form one orthogonally
connected group with no 2x2 black area, and every clue cell's neighbor ring
contains black blocks of exactly the given sizes, separated by whites."""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

from ..cnf import CnfBuilder, Lit, NameRule
from ..graph import GridVars, scc_grid
from ..solver import Propagator
from .board import square_rows

Cell = tuple[int, int]


@dataclass
class TapaInstance:
    n: int
    board: list[list[list[int] | None]]  # clue list (1..4 digits) or None

    def at(self, r: int, c: int):
        return self.board[r - 1][c - 1]

    def clue_cells(self) -> list[tuple[int, int]]:
        """The clue cells, row by row."""
        return [(r, c) for r, row in enumerate(self.board, 1) for c, clue in enumerate(row, 1) if clue is not None]


@dataclass
class ColoringSolution:
    black: list[list[int]]  # row-major 0/1

    def is_black(self, r: int, c: int) -> bool:
        return bool(self.black[r - 1][c - 1])


def parse_tapa(text: str) -> TapaInstance:
    n, rows = square_rows(text)
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
                clue = [int(ch) for ch in tok]
                if max(clue) > 8:  # a ring has eight cells
                    raise ValueError(f"clue {tok!r} has a digit above 8")
                row.append(clue)
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
    sizes (order-insensitive), pairwise separated by at least one white,
    in ascending order.  Separation applies across the wrap point iff
    ``circular``."""
    if not clues or any(not 0 <= cl <= 8 for cl in clues):
        raise ValueError(f"bad clue list {clues!r}")
    if not 1 <= ring_len <= 8:
        raise ValueError(f"ring length {ring_len} is not 1 to 8")
    sizes = tuple(sorted(cl for cl in clues if cl))
    return list(_ring_layouts(ring_len, circular).get(sizes, ()))  # a copy of the cached list


@functools.cache
def _ring_layouts(ring_len: int, circular: bool) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """Every bit pattern of the ring, in ascending order, grouped by its
    sorted block sizes."""
    by_sizes: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for mask in range(1 << ring_len):
        bits = format(mask, f"0{ring_len}b")
        by_sizes.setdefault(_block_sizes(bits, circular), []).append(tuple(map(int, bits)))
    return by_sizes


# 2^i, the bit of ring position i in a mask of positions
_POSITION_BITS = tuple(1 << i for i in range(8))


@functools.cache
def _layout_signs(clue: tuple[int, ...], ring_len: int, circular: bool) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The layouts of ``findall_layouts``, in ascending order, each as the
    mask of its black positions and the signs (1 black, -1 white) of all
    its positions.  A ring of no cells (a 1x1 board) has the one empty
    layout, which meets only a clue of zeros."""
    layouts = findall_layouts(clue, ring_len, circular) if ring_len else [()] * (not any(clue))
    return tuple((sum(itertools.compress(_POSITION_BITS, lay)), tuple(2 * bit - 1 for bit in lay)) for lay in layouts)


def _block_sizes(bits: str, circular: bool) -> tuple[int, ...]:
    """Sorted lengths of the black blocks ("1" runs) of a layout.  On a
    circular ring the layout is first turned to start at a white cell, so
    that no block wraps; an all-black ring is one block."""
    if circular and "0" in bits:
        i = bits.index("0")
        bits = bits[i:] + bits[:i]
    return tuple(sorted(len(run) for run in bits.split("0") if run))


def build_tapa(
    builder: CnfBuilder, inst: TapaInstance, lazy: bool = False
) -> tuple[Callable[[dict[int, bool]], ColoringSolution], None, Propagator | None]:
    """Returns (decode, None, propagator): ``decode(assignment)`` reads the
    coloring back, and there is no objective.

    The eager model (``scc_grid`` over the non-clue cells, the 2x2 windows
    and the clue layouts) is complete on its own, and the propagator is
    None.  With ``lazy`` the lazy model is built instead: the same formula
    without ``scc_grid``, so its black cells may fall apart, and the
    propagator's check on a total trail gives the clauses that exclude a
    model whose black cells do (see ``Connectivity``), or no clause for a
    connected one."""
    n = inst.n
    # clue cells are white: only the other cells get a literal, and a 0 in
    # the row-major table ``lit``
    free = [(r, c) for r, row in enumerate(inst.board, 1) for c, clue in enumerate(row, 1) if clue is None]
    grid = GridVars(n, n, dict(zip(free, builder.named_vars(NameRule("cell_%d_%d", free)))))
    cells = grid.cells
    lit = [[cells.get((r, c), 0) for c in range(1, n + 1)] for r in range(1, n + 1)]
    propagator = None
    if lazy:
        propagator = Connectivity(grid)
    elif cells:  # an all-clue board has no black cell to connect
        scc_grid(builder, grid)
    clauses = builder.clauses
    # no 2x2 window of four non-clue cells is all black
    clauses += [
        [-a, -b, -c, -d]
        for top, bottom in zip(lit, lit[1:])
        for a, b, c, d in zip(top, top[1:], bottom, bottom[1:])
        if a and b and c and d
    ]
    for r, c in inst.clue_cells():
        ring, circular = neighbor_ring(n, r, c)
        ring_lits = [lit[r1 - 1][c1 - 1] for r1, c1 in ring]
        # the layouts that leave every clue cell of the ring white, as the
        # signs of its positions; a clue cell's literal is 0
        on = [x for x in ring_lits if x]
        clue_mask = sum(itertools.compress(_POSITION_BITS, map(operator.not_, ring_lits)))
        layouts = [signs for black, signs in _layout_signs(tuple(inst.at(r, c)), len(ring), circular) if not black & clue_mask]
        if not on:
            if not layouts:
                clauses.append([])  # no layout fits: infeasible
            continue  # else the clue is met whatever the cells are: no clause
        if len(on) == 1:  # a choice of one literal is that literal
            k = ring_lits.index(on[0])
            clauses.append([signs[k] * on[0] for signs in layouts])
            continue
        # a choice is read only in OR(choices), so it need only imply its layout
        choices = builder.new_vars(len(layouts))
        clauses += [[-g, s * x] for g, signs in zip(choices, layouts) for s, x in zip(signs, ring_lits) if x]
        clauses.append(choices)  # empty if no layout fits: infeasible
    return (lambda assignment: decode_coloring(assignment, grid)), None, propagator


class Connectivity(Propagator):
    """The propagator of the lazy model, whose ``check`` returns nothing
    until the trail is total.  For a model whose black cells form two or
    more 4-connected components, listed by their first cell in row-major
    order, it cuts each component C with

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

    def check(self, solver) -> list[list[Lit]]:
        n, val = solver.nvars, solver.val
        if len(solver.trail) < n:
            return []
        grid = self.grid
        black = dict.fromkeys(rc for rc, lit in grid.cells.items() if val[lit + n] == 1)
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
        # the cells around the clue that lie on the board, clockwise from
        # the upper left; blocks wrap round only when all eight do
        pattern = [
            int((r + dr, c + dc) in blacks)
            for dr, dc in ((-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1), (0, -1))
            if 1 <= r + dr <= n and 1 <= c + dc <= n
        ]
        runs = sorted(_ring_runs(pattern, len(pattern) == 8))
        want = sorted(cl for cl in inst.at(r, c) if cl > 0)
        if runs != want:
            return "clue-blocks-mismatch"
    return None
