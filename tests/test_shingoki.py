"""Shingoki: parsing, the arm rule of the clues (and of Masyu's circles,
which share its ladders), solve + arm-length verification."""
import itertools

import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.solver import open_internal
from gridloop.puzzles import (
    LoopSolution,
    build_shingoki,
    parse_shingoki,
    verify_shingoki,
)
from gridloop.puzzles.loops import STEPS, reaches
from gridloop.puzzles.masyu import constrain_circle
from gridloop.puzzles.shingoki import constrain_arms


def test_parse_shingoki():
    inst = parse_shingoki("3\n. w2 .\nb3 . .\n. . .\n")
    assert inst.n == 3
    assert inst.at(1, 2) == ("w", 2)
    assert inst.at(2, 1) == ("b", 3)
    assert inst.at(3, 3) is None


def test_parse_shingoki_errors():
    with pytest.raises(ValueError):
        parse_shingoki("2\n. w1\n. .\n")  # clue < 2
    with pytest.raises(ValueError):
        parse_shingoki("2\n. x2\n. .\n")
    with pytest.raises(ValueError):
        parse_shingoki("2\n. .\n")


def test_solve_and_verify_small():
    # satisfied by the 4x4 border loop: w3 mid-edge, b6 corner
    inst = parse_shingoki("4\n. w3 . .\n. . . .\n. . . .\n. . . b6\n")
    b = CnfBuilder()
    decode, _, _ = build_shingoki(b, inst)
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    sol = decode(out.model.assignment)
    assert verify_shingoki(inst, sol) is None


def test_impossible_clue_unsat():
    # clue larger than any line that fits on the board
    inst = parse_shingoki("3\nw9 . .\n. . .\n. . .\n")
    b = CnfBuilder()
    build_shingoki(b, inst)
    assert solve_internal(b.clauses, b.var_count).is_unsat


class Looked(set):
    """A set of cells that records every cell looked up in it."""

    def __init__(self, cells):
        super().__init__(cells)
        self.looked = []

    def __contains__(self, cell):
        self.looked.append(cell)
        return super().__contains__(cell)


@pytest.mark.parametrize("d", range(4))
@pytest.mark.parametrize("distance", [1, 2, 3, 4])
def test_reaches_stop_at_the_first_black_circle_closer_than_depth(d, distance):
    # from the centre of 9x9 the border is 4 edges away each way; a black
    # circle 1 or 2 cells away cuts the reach to it, one at depth 3 or
    # beyond does not, and the circle itself, black too, never cuts
    (dr, dc), cell = STEPS[d], (5, 5)
    black = Looked({cell, (5 + distance * dr, 5 + distance * dc), (4, 4), (6, 7)})
    want = [4] * 4
    want[d] = distance if distance < 3 else 4
    assert reaches(9, cell, black, 3) == tuple(want)
    # only the cells closer than depth are scanned, and not the circle
    assert all(0 < abs(r - 5) + abs(c - 5) < 3 for r, c in black.looked)
    assert reaches(9, cell, black, 1) == (4, 4, 4, 4)


def test_reaches_the_border_and_the_nearest_black_circle():
    # (1, 2) on 4x4: 0 up and 1 left whatever is black; a black circle at
    # (1, 3) is the first of two on the right, and the border at (4, 2) is
    # 3 away when depth only reaches it
    assert reaches(4, (1, 2), set(), 9) == (0, 3, 1, 2)
    assert reaches(4, (1, 2), {(1, 2), (1, 3), (1, 4), (1, 1)}, 9) == (0, 3, 1, 1)
    assert reaches(4, (1, 2), {(1, 4), (4, 2)}, 9) == (0, 3, 1, 2)
    assert reaches(4, (1, 2), {(3, 2), (1, 3)}, 3) == (0, 2, 1, 1)
    assert reaches(4, (1, 2), {(3, 2)}, 2) == (0, 3, 1, 2)


@pytest.mark.parametrize(
    "text,status",
    [
        # the border loop passes (1, 3) straight: 1 + 2 and 2 + 1 edges
        ("4\n. w3 w3 .\n. . . .\n. . . .\n. . . .\n", "sat"),
        # a black (1, 3) stops the arm of (1, 2) there: 1 + 1 is not 3
        ("4\n. w3 b3 .\n. . . .\n. . . .\n. . . .\n", "unsat"),
        # but an arm may end on it: 1 + 1 is 2
        ("4\n. w2 b4 .\n. . . .\n. . . .\n. . . .\n", "sat"),
    ],
    ids=["white-passed", "black-stops", "black-ends"],
)
@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
def test_an_arm_passes_a_white_circle_and_ends_at_a_black_one(text, status, lazy):
    inst = parse_shingoki(text)
    b = CnfBuilder()
    decode, _, propagator = build_shingoki(b, inst, lazy=lazy)
    out = open_internal(b.clauses, b.var_count, propagator)()
    assert out.status == status
    if out.is_sat:
        assert verify_shingoki(inst, decode(out.model.assignment)) is None


@pytest.mark.parametrize("color", ["w", "b"])
@pytest.mark.parametrize("cell", [(3, 3), (1, 3), (1, 1), (2, 4)])
@pytest.mark.parametrize("clue", [2, 3, 5, 7, None])
def test_arm_rule_alone_puts_exactly_one_pair_on(color, cell, clue):
    # over free edge literals, with no loop model to bound a cell's degree,
    # the rule admits exactly the sets of first edges that are one pair of
    # the colour whose arms can reach the clue on the 5x5 board; a clue of
    # None is a Masyu circle, whose black arms reach 2 each
    n = 5
    b = CnfBuilder()
    lits = {}

    def edge(x, y):
        key = frozenset([x, y])
        if key not in lits:
            lits[key] = b.new_var()
        return lits[key]

    if clue is None:
        constrain_circle(b, edge, b.add_clause, n, set(), cell, color)
    else:
        constrain_arms(b, edge, b.add_clause, n, set(), cell, color, clue)
    r, c = cell
    first = {
        (dr, dc): edge(cell, (r + dr, c + dc))
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
        if 1 <= r + dr <= n and 1 <= c + dc <= n
    }

    def reach(dr, dc):
        steps = 0
        while 1 <= r + (steps + 1) * dr <= n and 1 <= c + (steps + 1) * dc <= n:
            steps += 1
        return steps

    def one_pair(on):
        if len(on) != 2:
            return False
        (d1, d2) = on
        straight = d1[0] == -d2[0] and d1[1] == -d2[1]
        if straight != (color == "w"):
            return False
        if clue is None:
            return straight or min(reach(*d1), reach(*d2)) >= 2
        return reach(*d1) + reach(*d2) >= clue

    for bits in itertools.product([False, True], repeat=len(first)):
        on = [d for d, bit in zip(first, bits) if bit]
        units = [lit if bit else -lit for lit, bit in zip(first.values(), bits)]
        got = solve_internal(b.clauses + [[u] for u in units], b.var_count).is_sat
        assert got == one_pair(on), on


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize(
    "text",
    [
        "4\nb4 w3 . b6\nw3 . . .\n. . . .\nb6 . . b6\n",  # corners and sides
        "4\n. w3 . .\n. b4 . .\n. . . .\n. . . .\n",  # both force edge (1,2)-(2,2) off
        "3\nw2 . b2\n. . .\nb2 w2 w5\n",  # white corners: two empty clauses
    ],
    ids=["corners-and-sides", "one-edge-forced-off-twice", "infeasible-corners"],
)
def test_arm_clauses_hold_no_constant_and_no_repeat(text, lazy):
    # an edge off the board drops out of the arm rule: no clause but the
    # first one holds the constant literal, and no clause comes twice
    b = CnfBuilder()
    build_shingoki(b, parse_shingoki(text), lazy=lazy)
    assert b.clauses[0] == [b.TRUE]
    assert not any(lit in (b.TRUE, b.FALSE) for cl in b.clauses[1:] for lit in cl)
    assert len({frozenset(cl) for cl in b.clauses}) == len(b.clauses)


def border_loop(n):
    cycle = [(1, c) for c in range(1, n + 1)]
    cycle += [(r, n) for r in range(2, n + 1)]
    cycle += [(n, c) for c in range(n - 1, 0, -1)]
    cycle += [(r, 1) for r in range(n - 1, 1, -1)]
    return LoopSolution(set(cycle), cycle)


def test_verify_shingoki_rules():
    sol = border_loop(4)
    # white mid-edge cell: both arms run to the corners, total 1 + 2 = 3
    assert verify_shingoki(parse_shingoki("4\n. w3 . .\n. . . .\n. . . .\n. . . .\n"), sol) is None
    assert (
        verify_shingoki(parse_shingoki("4\n. w4 . .\n. . . .\n. . . .\n. . . .\n"), sol)
        == "clue-length-mismatch"
    )
    # black corner: two 3-cell arms
    assert verify_shingoki(parse_shingoki("4\nb6 . . .\n. . . .\n. . . .\n. . . .\n"), sol) is None
    # color mismatches
    assert (
        verify_shingoki(parse_shingoki("4\nw6 . . .\n. . . .\n. . . .\n. . . .\n"), sol)
        == "white-not-straight"
    )
    assert (
        verify_shingoki(parse_shingoki("4\n. b3 . .\n. . . .\n. . . .\n. . . .\n"), sol)
        == "black-not-turned"
    )
    assert (
        verify_shingoki(parse_shingoki("4\n. . . .\n. w2 . .\n. . . .\n. . . .\n"), sol)
        == "circle-not-on-loop"
    )
