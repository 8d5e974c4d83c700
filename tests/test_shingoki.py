"""Shingoki: clue splits, shape generation, solve + arm-length verification."""
import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.puzzles import (
    LoopSolution,
    build_shingoki,
    parse_shingoki,
    verify_shingoki,
)
from gridloop.puzzles.shingoki import black_shingoki_shapes, white_shingoki_shapes


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


def test_white_shapes_clue2():
    # single split (1, 1): 4 vertical + 4 horizontal end-turn combinations
    shapes = white_shingoki_shapes(3, 3, 2)
    assert len(shapes) == 8
    # the straight run spans clue+1 cells plus the two witness turn cells
    for shape in shapes:
        assert len(shape) == 5
        assert (3, 3) in shape


def test_white_shape_counts_scale_with_splits():
    assert len(white_shingoki_shapes(5, 5, 4)) == 3 * 8


def test_black_shapes_structure():
    # per split: 4 corner orientations x 4 end-turn pairs
    shapes = black_shingoki_shapes(4, 4, 2)
    assert len(shapes) == 16
    shapes4 = black_shingoki_shapes(5, 5, 4)
    assert len(shapes4) == 3 * 16
    # the paper's 3+1 split exists: horizontal arm 3, vertical arm 1
    arm31 = [s for s in shapes4 if (5, 8) in s and (6, 5) in s]
    assert arm31


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
