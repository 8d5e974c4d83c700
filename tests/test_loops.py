"""The lazy loop model (Masyu and Shingoki on the internal solver) against
the eager ``hcp`` model: the same status on every board, and every lazy
answer accepted by the puzzle's verifier."""
import glob
import os
import random

import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.puzzles import (
    build_masyu,
    build_shingoki,
    parse_masyu,
    parse_shingoki,
    verify_masyu,
    verify_shingoki,
)
from gridloop.solver import internal_solve_fn

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")
KINDS = {
    "masyu": (parse_masyu, build_masyu, verify_masyu),
    "shingoki": (parse_shingoki, build_shingoki, verify_shingoki),
}


def statuses(kind, text):
    """(eager status, lazy status) of one board; a lazy answer must verify."""
    parse, build, verify = KINDS[kind]
    inst = parse(text)
    b = CnfBuilder()
    build(b, inst)
    eager = solve_internal(b.clauses, b.var_count).status
    b = CnfBuilder()
    decode, _, cuts = build(b, inst, lazy=True)
    out = internal_solve_fn()(b.clauses, b.var_count, cuts)()
    if out.is_sat:
        assert verify(inst, decode(out.model.assignment)) is None, text
    return eager, out.status


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(INSTANCES, "masyu_[4-7]x*.masyu")))
    + sorted(glob.glob(os.path.join(INSTANCES, "shingoki_*.shingoki"))),
    ids=os.path.basename,
)
def test_lazy_agrees_with_eager_on_bundled_boards(path):
    with open(path) as f:
        text = f.read()
    assert statuses(os.path.splitext(path)[1][1:], text) == ("sat", "sat")


@pytest.mark.parametrize(
    "kind,text",
    [
        ("masyu", "1\nw\n"),
        ("masyu", "2\nww\n..\n"),
        ("shingoki", "3\nw9 . .\n. . .\n. . .\n"),
    ],
)
def test_lazy_agrees_with_eager_on_infeasible_boards(kind, text):
    assert statuses(kind, text) == ("unsat", "unsat")


def random_board(kind, rng):
    """An n x n board, 2 <= n <= 5, with at least one circle."""
    n = rng.randint(2, 5)
    density = rng.choice([0.1, 0.2, 0.3])
    cells = [["."] * n for _ in range(n)]
    for r, c in [(rng.randrange(n), rng.randrange(n))] + [
        (r, c) for r in range(n) for c in range(n) if rng.random() < density
    ]:
        clue = "" if kind == "masyu" else str(rng.randint(2, 5))
        cells[r][c] = rng.choice("wb") + clue
    sep = "" if kind == "masyu" else " "
    return f"{n}\n" + "".join(sep.join(row) + "\n" for row in cells)


@pytest.mark.parametrize("kind", ["masyu", "shingoki"])
def test_lazy_agrees_with_eager_on_random_boards(kind):
    rng = random.Random(20150125)
    seen = set()
    for _ in range(80):
        text = random_board(kind, rng)
        eager, lazy = statuses(kind, text)
        assert eager == lazy, text
        seen.add(lazy)
    assert seen == {"sat", "unsat"}


def test_board_with_no_circle_builds_the_eager_model():
    # the cuts are valid only when a circle is on the loop
    inst = parse_masyu("3\n...\n...\n...\n")
    eager, lazy = CnfBuilder(), CnfBuilder()
    build_masyu(eager, inst)
    _, _, cuts = build_masyu(lazy, inst, lazy=True)
    assert cuts is None and lazy.clauses == eager.clauses


def two_squares(b):
    """An assignment with the cycles around the 2x2 squares at (1, 1) and
    (3, 3) of a 4x4 board: every edge literal false but theirs."""
    on = {
        "edge_1_1_2_1", "edge_1_1_1_2", "edge_1_2_2_2", "edge_2_1_2_2",
        "edge_3_3_4_3", "edge_3_3_3_4", "edge_3_4_4_4", "edge_4_3_4_4",
    }
    return {v: v == 1 or b.names.get(v) in on for v in range(1, b.var_count + 1)}


def edges(b, *names):
    lit = {name: v for v, name in b.names.items()}
    return [lit[name] for name in names]


def test_cut_rules():
    # a cycle holding every circle gets no cut, one holding none gets
    # "not all of its active edges", in row-major edge order
    b = CnfBuilder()
    decode, _, cuts = build_masyu(b, parse_masyu("4\nb...\n....\n....\n....\n"), lazy=True)
    assignment = two_squares(b)
    square = edges(b, "edge_3_3_4_3", "edge_3_3_3_4", "edge_3_4_4_4", "edge_4_3_4_4")
    assert cuts(assignment) == [[-e for e in square]]
    with pytest.raises(RuntimeError, match="2 cycles"):
        decode(assignment)
    # with a circle in each cycle, each gets "some edge across my boundary"
    b = CnfBuilder()
    _, _, cuts = build_masyu(b, parse_masyu("4\nb...\n....\n....\n...b\n"), lazy=True)
    assert cuts(two_squares(b)) == [
        edges(b, "edge_1_2_1_3", "edge_2_1_3_1", "edge_2_2_3_2", "edge_2_2_2_3"),
        edges(b, "edge_2_3_3_3", "edge_2_4_3_4", "edge_3_2_3_3", "edge_4_2_4_3"),
    ]


def test_a_shape_and_its_reverse_share_one_gate():
    # one white circle in the middle of 5x5: 8 shapes, each one undirected
    # edge set, so 8 gates besides the 25 cells, the 40 edges and constant true
    b = CnfBuilder()
    build_masyu(b, parse_masyu("5\n.....\n.....\n..w..\n.....\n.....\n"), lazy=True)
    assert b.var_count == 1 + 25 + 40 + 8
