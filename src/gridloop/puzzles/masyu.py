"""Masyu: single loop through all circles; white circles are passed straight
with a turn in the previous and/or next cell, black circles are turned upon
with straight travel through both neighbors."""
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
    build_loop,
    check_cycle_shape,
    loop_neighbors,
    reaches,
    straight_at,
)

EMPTY, WHITE, BLACK = ".", "w", "b"


@dataclass
class MasyuInstance:
    n: int
    board: list[list[str]]  # ".", "w", "b"; board[r-1][c-1]

    def at(self, r: int, c: int) -> str:
        return self.board[r - 1][c - 1]


def parse_masyu(text: str) -> MasyuInstance:
    n, rows = square_rows(text)
    board = []
    for ln in rows:
        toks = ln.split()
        if len(toks) != 1:
            raise ValueError(f"row {ln.strip()!r} has {len(toks)} tokens, expected 1")
        row = toks[0]
        if len(row) != n:
            raise ValueError(f"row {row!r} has length {len(row)}, expected {n}")
        for ch in row:
            if ch not in (EMPTY, WHITE, BLACK):
                raise ValueError(f"bad cell {ch!r}")
        board.append(list(row))
    return MasyuInstance(n, board)


def constrain_circle(
    builder: CnfBuilder,
    edge: EdgeReader,
    add_once: AddOnce,
    n: int,
    black: Container[Cell],
    cell: Cell,
    color: str,
) -> None:
    """The circle at ``cell`` on the n x n board whose black circles are
    ``black``, over the ladders of ``arm_ladders`` to depth 2, which stop
    before the border or a black circle (see ``reaches``).  A white circle
    is passed along an opposite pair, and per pair ``¬a_d(2) ∨ ¬a_p(2)``:
    the loop turns next to it.  A black circle is passed along a
    perpendicular pair whose arms both reach 2, and per direction ``e_d(1)
    → a_d(2)``: both arms run straight through the neighbour."""
    reach = reaches(n, cell, black, 2)
    least = 1 if color == WHITE else 2
    pairs = [(d, p) for d, p in PAIRS[color] if min(reach[d], reach[p]) >= least]
    ladder = arm_ladders(builder, edge, add_once, reach, cell, pairs, 2)
    if color == WHITE:
        builder.clauses += [
            [-ladder[d][1], -ladder[p][1]] for d, p in pairs if len(ladder[d]) == len(ladder[p]) == 2
        ]
    else:
        builder.clauses += [[-arm[0], arm[1]] for arm in ladder.values()]


def build_masyu(builder: CnfBuilder, inst: MasyuInstance, lazy: bool = False):
    """Returns (decode, None, propagator); see ``build_loop``, which ``lazy`` is
    passed to.  Each circle gets the rule of ``constrain_circle``."""
    marks = {(r, c): mark for r, row in enumerate(inst.board, 1) for c, mark in enumerate(row, 1) if mark != EMPTY}
    circles = list(marks)
    black = {cell for cell, mark in marks.items() if mark == BLACK}

    def constrain(cell: Cell, edge: EdgeReader, add_once: AddOnce) -> None:
        constrain_circle(builder, edge, add_once, inst.n, black, cell, marks[cell])

    return build_loop(builder, inst.n, circles, constrain, lazy)


def verify_masyu(inst: MasyuInstance, sol: LoopSolution) -> str | None:
    """Check a solution directly against the puzzle rules (no shared
    constraint code).  Returns a reason code on rejection, None on accept."""
    reason = check_cycle_shape(sol, inst.n, inst.n)
    if reason:
        return reason
    neighbors = loop_neighbors(sol)
    for r in range(1, inst.n + 1):
        for c in range(1, inst.n + 1):
            mark = inst.at(r, c)
            if mark == EMPTY:
                continue
            if (r, c) not in sol.in_cells:
                return "circle-not-on-loop"
            if len(sol.cycle) < 3:
                return "degenerate-loop-at-circle"
            prev, nxt = neighbors[(r, c)]
            if mark == WHITE:
                if not straight_at(prev, (r, c), nxt):
                    return "white-not-straight"
                turns = 0
                for side in (prev, nxt):
                    if side in neighbors:
                        p2, n2 = neighbors[side]
                        if not straight_at(p2, side, n2):
                            turns += 1
                if turns == 0:
                    return "white-no-adjacent-turn"
            else:
                if straight_at(prev, (r, c), nxt):
                    return "black-not-turned"
                for side in (prev, nxt):
                    p2, n2 = neighbors[side]
                    if not straight_at(p2, side, n2):
                        return "black-arm-not-straight"
    return None
