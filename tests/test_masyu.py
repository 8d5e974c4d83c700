"""Masyu: parsing, end-to-end solve, verifier rules.  The circle rule itself
is pinned beside Shingoki's, whose arm ladders it shares (test_shingoki.py)."""
import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.puzzles import (
    LoopSolution,
    build_masyu,
    parse_masyu,
    verify_masyu,
)
from gridloop.puzzles.loops import check_cycle_shape


def test_parse_masyu():
    inst = parse_masyu("3\n.w.\n..b\n...\n")
    assert inst.n == 3
    assert inst.at(1, 2) == "w"
    assert inst.at(2, 3) == "b"
    assert inst.at(3, 3) == "."


def test_parse_masyu_errors():
    with pytest.raises(ValueError):
        parse_masyu("")
    with pytest.raises(ValueError):
        parse_masyu("2\n..\n")  # missing row
    with pytest.raises(ValueError):
        parse_masyu("2\n.x\n..\n")  # bad cell
    with pytest.raises(ValueError):
        parse_masyu("2\n...\n..\n")  # wrong length


def test_single_cell_white_infeasible():
    b = CnfBuilder()
    build_masyu(b, parse_masyu("1\nw\n"))
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_border_loop_instance():
    # circles compatible with the 4x4 border loop: black corners turn with
    # straight 2-arms, white border cells run straight past a turning corner
    text = "4\nb.w.\n....\n....\n.w.b\n"
    inst = parse_masyu(text)
    b = CnfBuilder()
    decode, _, _ = build_masyu(b, inst)
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    sol = decode(out.model.assignment)
    assert verify_masyu(inst, sol) is None


def border_loop(n):
    cycle = [(1, c) for c in range(1, n + 1)]
    cycle += [(r, n) for r in range(2, n + 1)]
    cycle += [(n, c) for c in range(n - 1, 0, -1)]
    cycle += [(r, 1) for r in range(n - 1, 1, -1)]
    return LoopSolution(set(cycle), cycle)


def test_verify_masyu_accepts_border_loop():
    inst = parse_masyu("4\nb.w.\n....\n....\n.w.b\n")
    assert verify_masyu(inst, border_loop(4)) is None


def test_verify_masyu_reject_reasons():
    sol = border_loop(4)
    # circle off the loop
    assert verify_masyu(parse_masyu("4\n....\n.w..\n....\n....\n"), sol) == "circle-not-on-loop"
    # white circle on a corner travels turned, not straight
    assert verify_masyu(parse_masyu("4\nw...\n....\n....\n....\n"), sol) == "white-not-straight"
    # white circle with straight neighbors on both sides
    assert verify_masyu(parse_masyu("4\n..w.\n....\n....\n....\n"), sol) is None
    inst = parse_masyu("5\n..w..\n.....\n.....\n.....\n.....\n")
    assert verify_masyu(inst, border_loop(5)) == "white-no-adjacent-turn"
    # black circle mid-edge is not turned upon
    assert verify_masyu(parse_masyu("4\n.b..\n....\n....\n....\n"), sol) == "black-not-turned"
    # black whose arm turns after one cell: 2x3 rectangle loop, circle (1,1)
    rect = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 2), (2, 1)]
    assert (
        verify_masyu(parse_masyu("4\nb...\n....\n....\n....\n"), LoopSolution(set(rect), rect))
        == "black-arm-not-straight"
    )
    # a circle on a 2-cell loop is degenerate
    two = LoopSolution({(1, 1), (1, 2)}, [(1, 1), (1, 2)])
    assert (
        verify_masyu(parse_masyu("4\nw...\n....\n....\n....\n"), two)
        == "degenerate-loop-at-circle"
    )


def test_verify_masyu_broken_cycles():
    inst = parse_masyu("4\n....\n....\n....\n....\n")
    bad = LoopSolution({(1, 1), (1, 3)}, [(1, 1), (1, 3)])
    assert verify_masyu(inst, bad) == "not-adjacent"
    bad2 = LoopSolution({(1, 1), (1, 2)}, [(1, 1), (1, 2), (1, 1)])
    assert verify_masyu(inst, bad2) == "repeated-cell"
    bad3 = LoopSolution({(1, 1)}, [(1, 1), (1, 2)])
    assert verify_masyu(inst, bad3) == "cycle-incell-mismatch"


def test_check_cycle_shape_bounds():
    assert check_cycle_shape([(0, 1)], {(0, 1)}, 4, 4) == "cell-out-of-bounds"
    assert check_cycle_shape([], set(), 4, 4) == "empty-cycle"


def test_decode_loop_roundtrip():
    b = CnfBuilder()
    inst = parse_masyu("4\n.w..\n....\n....\n....\n")
    decode, _, _ = build_masyu(b, inst)
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    sol = decode(out.model.assignment)
    assert check_cycle_shape(sol.cycle, sol.in_cells, 4, 4) is None
    assert sol.k == len(sol.cycle) == len(sol.in_cells)
