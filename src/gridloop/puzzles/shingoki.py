"""Shingoki: like Masyu, but each circle carries a clue equal to the total
length of the two line segments meeting at the cell (in unit steps)."""
from __future__ import annotations

from dataclasses import dataclass

from ..cnf import CnfBuilder
from ..graph import Cell
from .loops import (
    PAIRS,
    AddOnce,
    EdgeReader,
    LoopSolution,
    arm_ladders,
    arm_length,
    build_loop,
    check_cycle_shape,
    loop_neighbors,
    reaches,
    straight_at,
)


@dataclass
class ShingokiInstance:
    n: int
    board: list[list[tuple[str, int] | None]]  # ("w"|"b", clue) or None

    def at(self, r: int, c: int):
        return self.board[r - 1][c - 1]


def parse_shingoki(text: str) -> ShingokiInstance:
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance")
    n = int(lines[0].split()[0])
    if n < 1:
        raise ValueError("grid size must be >= 1")
    rows = lines[1 : n + 1]
    if len(rows) != n:
        raise ValueError(f"expected {n} board rows, found {len(rows)}")
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
    cell: Cell,
    color: str,
    clue: int,
) -> None:
    """The clue of the circle at ``cell`` on the n x n board: the loop passes
    it along one pair of directions of ``PAIRS[color]``, and the two arms,
    the runs of on-edges straight out of the circle in those directions, sum
    to ``clue``.  Over the ladders of ``arm_ladders`` to depth ``clue``, per
    pair (d, p): ``¬a_d(L) ∨ ¬a_p(clue+1-L)`` (at most clue) and
    ``¬e_d(1) ∨ ¬e_p(1) ∨ a_d(L) ∨ a_p(clue+1-L)`` (at least clue).

    A pair with a first edge off the board, or whose arms cannot reach
    ``clue`` before the border, is dropped before any clause is written, so
    no literal is a constant and the work depends on the board, not on the
    clue.
    """
    reach = reaches(n, cell)
    pairs = [(d, p) for d, p in PAIRS[color] if reach[d] and reach[p] and reach[d] + reach[p] >= clue]
    ladder = arm_ladders(builder, edge, add_once, n, cell, pairs, clue)
    for d, p in pairs:
        a, b = ladder[d], ladder[p]
        for L in range(max(1, clue + 1 - len(b)), len(a) + 1):
            builder.add_trusted([-a[L - 1], -b[clue - L]])
        # L = 1 and L = clue hold by the guard; one side is on the board,
        # since the arms reach clue in sum
        for L in range(2, clue):
            longer = [a[L - 1]] if L <= len(a) else []
            longer += [b[clue - L]] if clue - L < len(b) else []
            builder.add_trusted([-a[0], -b[0]] + longer)


def build_shingoki(builder: CnfBuilder, inst: ShingokiInstance, lazy: bool = False):
    """Returns (decode, None, propagator); see ``build_loop``, which ``lazy`` is
    passed to.  Each circle gets the arm rule of ``constrain_arms``."""
    circles = [
        (r, c)
        for r in range(1, inst.n + 1)
        for c in range(1, inst.n + 1)
        if inst.at(r, c) is not None
    ]

    def constrain(cell: Cell, edge: EdgeReader, add_once: AddOnce) -> None:
        constrain_arms(builder, edge, add_once, inst.n, cell, *inst.at(*cell))

    return build_loop(builder, inst.n, circles, constrain, lazy)


def verify_shingoki(inst: ShingokiInstance, sol: LoopSolution) -> str | None:
    """Recompute both arm lengths per circle on the decoded loop."""
    reason = check_cycle_shape(sol, inst.n, inst.n)
    if reason:
        return reason
    neighbors = loop_neighbors(sol)
    for r in range(1, inst.n + 1):
        for c in range(1, inst.n + 1):
            mark = inst.at(r, c)
            if mark is None:
                continue
            if (r, c) not in sol.in_cells:
                return "circle-not-on-loop"
            if len(sol.cycle) < 3:
                return "degenerate-loop-at-circle"
            color, clue = mark
            prev, nxt = neighbors[(r, c)]
            straight = straight_at(prev, (r, c), nxt)
            if color == "w" and not straight:
                return "white-not-straight"
            if color == "b" and straight:
                return "black-not-turned"
            total = arm_length(sol, (r, c), prev) + arm_length(sol, (r, c), nxt)
            if total != clue:
                return "clue-length-mismatch"
    return None
