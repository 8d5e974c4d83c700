"""Shingoki: like Masyu, but each circle carries a clue equal to the total
length of the two line segments meeting at the cell (in unit steps)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from ..cnf import CnfBuilder
from ..graph import Cell
from .board import square_rows
from .loops import (
    PAIRS,
    AddOnce,
    EdgeReader,
    LoopSolution,
    arm_ladders,
    arm_length,
    build_loop,
    check_circles,
    reaches,
)


@dataclass
class ShingokiInstance:
    n: int
    board: list[list[tuple[str, int] | None]]  # ("w"|"b", clue) or None

    def at(self, r: int, c: int):
        return self.board[r - 1][c - 1]


def parse_shingoki(text: str) -> ShingokiInstance:
    n, rows = square_rows(text)
    board: list[list[tuple[str, int] | None]] = []
    for ln in rows:
        toks = ln.split()
        if len(toks) != n:
            raise ValueError(f"row has {len(toks)} tokens, expected {n}")
        row: list[tuple[str, int] | None] = []
        for tok in toks:
            if tok == ".":
                row.append(None)
            elif tok[0] in ("w", "b") and tok[1:].isdigit():
                clue = int(tok[1:])
                if clue < 2:
                    raise ValueError(f"clue {clue} too small (two segments need >= 2)")
                row.append((tok[0], clue))
            else:
                raise ValueError(f"bad token {tok!r}")
        board.append(row)
    return ShingokiInstance(n, board)


def constrain_arms(
    builder: CnfBuilder,
    edge: EdgeReader,
    add_once: AddOnce,
    n: int,
    black: Container[Cell],
    cell: Cell,
    color: str,
    clue: int,
) -> None:
    """The clue of the circle at ``cell`` on the n x n board whose black
    circles are ``black``: the loop passes it along one pair of directions
    of ``PAIRS[color]``, and the two arms, the runs of on-edges straight out
    of the circle in those directions, sum to ``clue``.  Over the ladders of
    ``arm_ladders`` to depth ``clue``, per pair (d, p): ``¬a_d(L) ∨
    ¬a_p(clue+1-L)`` (at most clue) and ``¬e_d(1) ∨ ¬e_p(1) ∨ a_d(L) ∨
    a_p(clue+1-L)`` (at least clue).

    A pair with a first edge off the board, or whose arms cannot reach
    ``clue`` before the border or a black circle (see ``reaches``), is
    dropped before any clause is written, so no literal is a constant and
    the work depends on the board, not on the clue.
    """
    reach = reaches(n, cell, black, clue)
    pairs = [(d, p) for d, p in PAIRS[color] if reach[d] and reach[p] and reach[d] + reach[p] >= clue]
    ladder = arm_ladders(builder, edge, add_once, reach, cell, pairs, clue)
    add = builder.clauses.append
    for d, p in pairs:
        a, b = ladder[d], ladder[p]
        # L from lo up to len(a): a_d(L) against a_p(clue+1-L), downward
        lo = max(1, clue + 1 - len(b))
        for x, y in zip(a[lo - 1 :], b[clue - lo :: -1]):
            add([-x, -y])
        # L = 1 and L = clue hold by the guard; a slice past an arm's end
        # is empty, and one side is on the board, since the arms reach
        # clue in sum
        guard = [-a[0], -b[0]]
        for L in range(2, clue):
            add(guard + a[L - 1 : L] + b[clue - L : clue - L + 1])


def build_shingoki(builder: CnfBuilder, inst: ShingokiInstance, lazy: bool = False):
    """Returns (decode, None, propagator); see ``build_loop``, which ``lazy`` is
    passed to.  Each circle gets the arm rule of ``constrain_arms``."""
    marks = {(r, c): mark for r, row in enumerate(inst.board, 1) for c, mark in enumerate(row, 1) if mark is not None}
    circles = list(marks)
    black = {cell for cell, (color, _) in marks.items() if color == "b"}

    def constrain(cell: Cell, edge: EdgeReader, add_once: AddOnce) -> None:
        constrain_arms(builder, edge, add_once, inst.n, black, cell, *marks[cell])

    return build_loop(builder, inst.n, circles, constrain, lazy)


def verify_shingoki(inst: ShingokiInstance, sol: LoopSolution) -> str | None:
    """Check a solution directly against the puzzle rules (no shared
    constraint code): ``check_circles``, then both arm lengths of each
    circle, recomputed on the loop, sum to its clue.  Returns a reason code
    on rejection, None on accept."""
    marks = {(r, c): mark[0] for r, row in enumerate(inst.board, 1) for c, mark in enumerate(row, 1) if mark is not None}

    def rule(neighbors: dict[Cell, tuple[Cell, Cell]], cell: Cell) -> str | None:
        prev, nxt = neighbors[cell]
        total = arm_length(neighbors, cell, prev) + arm_length(neighbors, cell, nxt)
        return None if total == inst.at(*cell)[1] else "clue-length-mismatch"

    return check_circles(sol, inst.n, marks, rule)
