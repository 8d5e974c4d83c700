"""Shingoki: like Masyu, but each circle carries a clue equal to the total
length of the two line segments meeting at the cell (in unit steps)."""
from __future__ import annotations

from dataclasses import dataclass

from ..cnf import CnfBuilder
from .loops import (
    LoopSolution,
    arm_length,
    build_loop,
    check_cycle_shape,
    loop_neighbors,
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


def white_shingoki_shapes(r: int, c: int, clue: int) -> list[list[tuple[int, int]]]:
    """Straight line of total length ``clue`` through (r, c), split D1 + D2,
    vertical or horizontal, with a turn witnessed at both ends."""
    shapes = []
    for d1 in range(1, clue):
        d2 = clue - d1
        v = [(r1, c) for r1 in range(r - d1, r + d2 + 1)]
        for e1 in (c - 1, c + 1):
            for e2 in (c - 1, c + 1):
                shapes.append([(r - d1, e1)] + v + [(r + d2, e2)])
        h = [(r, c1) for c1 in range(c - d1, c + d2 + 1)]
        for e1 in (r - 1, r + 1):
            for e2 in (r - 1, r + 1):
                shapes.append([(e1, c - d1)] + h + [(e2, c + d2)])
    return shapes


def black_shingoki_shapes(r: int, c: int, clue: int) -> list[list[tuple[int, int]]]:
    """Two perpendicular straight arms of lengths D1 + D2 = clue joined at
    (r, c); 4 corner orientations, each arm end extended by a turn cell."""
    shapes = []
    for d1 in range(1, clue):
        d2 = clue - d1
        for dv in (-1, 1):  # vertical arm direction, length d1
            for dh in (-1, 1):  # horizontal arm direction, length d2
                v_end = (r + dv * d1, c)
                h_end = (r, c + dh * d2)
                v_cells = [(r + dv * i, c) for i in range(d1, 0, -1)]
                h_cells = [(r, c + dh * i) for i in range(1, d2 + 1)]
                for e1 in (c - 1, c + 1):  # turn beyond the vertical arm end
                    for e2 in (r - 1, r + 1):  # turn beyond the horizontal end
                        shapes.append(
                            [(v_end[0], e1)]
                            + v_cells
                            + [(r, c)]
                            + h_cells
                            + [(e2, h_end[1])]
                        )
    return shapes


def build_shingoki(builder: CnfBuilder, inst: ShingokiInstance, lazy: bool = False):
    """Returns (decode, None, cuts); see ``build_loop``, which ``lazy`` is
    passed to."""
    shapes = {"w": white_shingoki_shapes, "b": black_shingoki_shapes}
    circles = [
        (r, c, shapes[mark[0]](r, c, mark[1]))
        for r in range(1, inst.n + 1)
        for c in range(1, inst.n + 1)
        if (mark := inst.at(r, c)) is not None
    ]
    return build_loop(builder, inst.n, circles, lazy)


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
