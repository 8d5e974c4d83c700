"""Shingoki: like Masyu, but each circle carries a clue equal to the total
length of the two line segments meeting at the cell (in unit steps)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cnf import CnfBuilder, Lit
from ..graph import Cell
from .loops import (
    EdgeMap,
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


# The steps from a circle: up, down, left, right.  A white circle is passed
# along an opposite pair of them, a black one along a perpendicular pair.
STEPS = ((-1, 0), (1, 0), (0, -1), (0, 1))
PAIRS = {"w": ((0, 1), (2, 3)), "b": ((0, 2), (0, 3), (1, 2), (1, 3))}


def constrain_arms(
    builder: CnfBuilder,
    edge: Callable[[Cell, Cell], Lit],
    add_once: Callable[[list[Lit]], None],
    n: int,
    cell: Cell,
    color: str,
    clue: int,
) -> None:
    """The clue of the circle at ``cell`` on the n x n board: the loop passes
    it along one pair of directions of ``PAIRS[color]``, and the two arms,
    the runs of on-edges straight out of the circle in those directions, sum
    to ``clue``.  ``edge(a, b)`` is the literal of the edge between cells a
    and b being on, and ``add_once`` adds a clause unless it was added
    before: two circles can force one edge off alike, or both be unmet.

    Arm d is a ladder, the order encoding of its length (Tamura et al.,
    "Compiling finite linear CSP into SAT", Constraints 2009): over the
    edges e_d(1), e_d(2), ... from the circle toward d, a_d(1) = e_d(1) and
    a_d(L) <-> a_d(L-1) and e_d(L), up to the border or to L = clue.  The arm
    is at least L long iff a_d(L).  The clauses:

    * colour: two first edges that are not a pair are not both on;
    * partner: an on first edge has an on partner, and some first edge is
      on, so exactly one pair is on whatever the loop model allows (the
      eager model's lone in-cell and directed 2-cycle among it);
    * sum, per pair (d, p): ``¬a_d(L) ∨ ¬a_p(clue+1-L)`` (at most clue) and
      ``¬e_d(1) ∨ ¬e_p(1) ∨ a_d(L) ∨ a_p(clue+1-L)`` (at least clue).

    A pair with a first edge off the board, or whose arms cannot reach
    ``clue`` before the border, is dropped before any clause is written, so
    no literal is a constant and the work depends on the board, not on the
    clue.  With no pair left the clause is empty.
    """
    r, c = cell
    reach = (r - 1, n - r, c - 1, n - c)
    pairs = [(d, p) for d, p in PAIRS[color] if reach[d] and reach[p] and reach[d] + reach[p] >= clue]
    if not pairs:
        add_once([])
        return
    first = {d: edge(cell, (r + dr, c + dc)) for d, (dr, dc) in enumerate(STEPS) if reach[d]}
    partners = {d: [q for pair in pairs if d in pair for q in pair if q != d] for d in first}
    live = [d for d in first if partners[d]]
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
        for i in range(1, min(clue, reach[d])):
            a, b = (r + i * dr, c + i * dc), (r + (i + 1) * dr, c + (i + 1) * dc)
            arm.append(builder.gate_and([arm[-1], edge(a, b)]))
        ladder[d] = arm  # arm[L - 1] is a_d(L)
    for d, p in pairs:
        a, b = ladder[d], ladder[p]
        for L in range(max(1, clue + 1 - len(b)), len(a) + 1):
            builder.add_trusted([-a[L - 1], -b[clue - L]])
        # L = 1 and L = clue hold by the guard; one side is on the board,
        # since the arms reach clue in sum
        for L in range(2, clue):
            longer = [a[L - 1]] if L <= len(a) else []
            longer += [b[clue - L]] if clue - L < len(b) else []
            builder.add_trusted([-first[d], -first[p]] + longer)


def build_shingoki(builder: CnfBuilder, inst: ShingokiInstance, lazy: bool = False):
    """Returns (decode, None, cuts); see ``build_loop``, which ``lazy`` is
    passed to.  Each circle gets the arm rule of ``constrain_arms``, over
    undirected edge literals: the lazy model's own, and on the eager model
    one ``gate_or`` of the two directions per edge that an arm reads."""
    circles = [
        (r, c)
        for r in range(1, inst.n + 1)
        for c in range(1, inst.n + 1)
        if inst.at(r, c) is not None
    ]
    either: dict[tuple[Cell, Cell], Lit] = {}
    added: set[tuple[Lit, ...]] = set()

    def add_once(clause: list[Lit]) -> None:
        if tuple(clause) not in added:
            added.add(tuple(clause))
            builder.add_trusted(clause)

    def constrain(cell: Cell, emap: EdgeMap) -> None:
        def edge(a: Cell, b: Cell) -> Lit:
            one, other = emap[(*a, *b)], emap[(*b, *a)]
            if one == other:
                return one
            key = (a, b) if a < b else (b, a)
            if key not in either:
                either[key] = builder.gate_or([one, other])
            return either[key]

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
