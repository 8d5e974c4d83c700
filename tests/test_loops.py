"""The lazy loop model (Masyu and Shingoki on the internal solver) against
the eager ``hcp`` model: the same status on every board, and every lazy
answer accepted by the puzzle's verifier; how ``decode_loop`` reads a loop
back, and how ``check_cycle_shape`` checks one."""
import glob
import os
import random

import pytest

from gridloop import CnfBuilder, make_grid, solve_internal
from gridloop.graph import grid_graph_edges
from gridloop.puzzles.loops import check_cycle_shape
from gridloop.puzzles import (
    build_masyu,
    build_shingoki,
    decode_loop,
    parse_masyu,
    parse_shingoki,
    verify_masyu,
    verify_shingoki,
)
from gridloop.solver import open_internal

from oracles import check_on

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
    decode, _, propagator = build(b, inst, lazy=True)
    out = open_internal(b.clauses, b.var_count, propagator)()
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
    # the lazy model's cuts are valid only when a circle is on the loop
    inst = parse_masyu("3\n...\n...\n...\n")
    eager, lazy = CnfBuilder(), CnfBuilder()
    build_masyu(eager, inst)
    _, _, propagator = build_masyu(lazy, inst, lazy=True)
    assert propagator is None and lazy.clauses == eager.clauses


def two_squares(b):
    """An assignment with the cycles around the 2x2 squares at (1, 1) and
    (3, 3) of a 4x4 board: every cell and edge literal false but theirs."""
    on = {
        "edge_1_1_2_1", "edge_1_1_1_2", "edge_1_2_2_2", "edge_2_1_2_2",
        "edge_3_3_4_3", "edge_3_3_3_4", "edge_3_4_4_4", "edge_4_3_4_4",
    } | {f"cell_{r}_{c}" for r, c in ((1, 1), (1, 2), (2, 1), (2, 2))} | {
        f"cell_{r}_{c}" for r, c in ((3, 3), (3, 4), (4, 3), (4, 4))
    }
    names = b.names
    return {v: v == 1 or names.get(v) in on for v in range(1, b.var_count + 1)}


def edges(b, *names):
    lit = {name: v for v, name in b.names.items()}
    return [lit[name] for name in names]


def test_cut_rules():
    # one rule: the cycle S that closes first on the trail gets "not u, not
    # v, or some edge across S's boundary", u the first circle in S (else
    # S's first cell) and v the first circle outside S (else the first
    # in-cell outside S); the boundary edges in row-major edge order.  The
    # variables in increasing order close the square at (1, 1) first, in
    # decreasing order the one at (3, 3)
    b = CnfBuilder()
    decode, _, propagator = build_masyu(b, parse_masyu("4\nb...\n....\n....\n....\n"), lazy=True)
    assignment = two_squares(b)
    up, down = sorted(assignment), sorted(assignment, reverse=True)
    c11, c33, c44 = edges(b, "cell_1_1", "cell_3_3", "cell_4_4")
    first = edges(b, "edge_1_2_1_3", "edge_2_1_3_1", "edge_2_2_3_2", "edge_2_2_2_3")
    second = edges(b, "edge_2_3_3_3", "edge_2_4_3_4", "edge_3_2_3_3", "edge_4_2_4_3")
    out = check_on(propagator, assignment, up) + check_on(propagator, assignment, down)
    assert out == [[-c11, -c33] + first, [-c33, -c11] + second]
    with pytest.raises(RuntimeError, match="2 cycles"):
        decode(assignment)
    # with a circle in each cycle, u and v are the circles, which are in at
    # level 0: the cut is "some edge across S's boundary"
    b = CnfBuilder()
    _, _, propagator = build_masyu(b, parse_masyu("4\nb...\n....\n....\n...b\n"), lazy=True)
    assignment = two_squares(b)
    cuts = check_on(propagator, assignment, up) + check_on(propagator, assignment, down)
    assert cuts == [[-c11, -c44] + first, [-c44, -c11] + second]
    out += cuts
    # every cut is false in the model that it cuts off
    assert not any(assignment[abs(lit)] == (lit > 0) for cut in out for lit in cut)
    assert check_on(propagator, {v: v == 1 for v in assignment}, up) == []  # no cycle at all


def test_a_white_circle_adds_four_ladder_gates():
    # one white circle in the middle of 5x5: a depth-2 ladder toward each
    # side, so 4 gates besides the 25 cells, the 40 edges and constant true
    b = CnfBuilder()
    build_masyu(b, parse_masyu("5\n.....\n.....\n..w..\n.....\n.....\n"), lazy=True)
    assert b.var_count == 1 + 25 + 40 + 4


@pytest.mark.parametrize("row,gates", [("..wb.", 3 + 3), ("..ww.", 4 + 3)])
def test_a_black_neighbour_stops_the_ladder(row, gates):
    # the white circle at (3, 3) gets no rung toward a black circle at
    # (3, 4), where the loop turns; a white one is passed straight.  The
    # circle at (3, 4) has ladders up, down and left (the border is 1 away)
    b = CnfBuilder()
    build_masyu(b, parse_masyu(f"5\n.....\n.....\n{row}\n.....\n.....\n"), lazy=True)
    assert b.var_count == 1 + 25 + 40 + gates


def test_adjacent_circles_share_one_gate_per_edge():
    # on the eager model each edge a rule reads gets one gate_or of its two
    # directions; white circles at (3, 2) and (3, 3) both read the edges
    # (3, 1)-(3, 2), (3, 2)-(3, 3) and (3, 3)-(3, 4), which get one gate each.
    # Every board has the black circle at (5, 5), whose arms read none of
    # those edges: a board with a circle builds no start chain, so each
    # board is held against one that has a circle too
    def eager_vars(row):
        b = CnfBuilder()
        build_masyu(b, parse_masyu(f"5\n.....\n.....\n{row}\n.....\n....b\n"))
        return b.var_count

    base = eager_vars(".....")
    left, right, both = (eager_vars(row) - base for row in (".w...", "..w..", ".ww.."))
    assert (left, right) == (7 + 3, 8 + 4)  # the edges read, the ladder gates
    assert both == left + right - 3


# -- decode_loop: the one walk that reads both models -----------------------

def test_eager_decode_walks_along_the_directed_edges():
    # each step of the cycle, as the JSON output lists it, is an active edge
    b = CnfBuilder()
    decode, _, _ = build_masyu(b, parse_masyu("4\n.w..\n....\n....\n....\n"))
    out = solve_internal(b.clauses, b.var_count)
    cycle = decode(out.model.assignment).cycle
    lit = {name: v for v, name in b.names.items()}
    assert len(cycle) > 2
    for (r1, c1), (r2, c2) in zip(cycle, cycle[1:] + cycle[:1]):
        assert out.model[lit[f"edge_{r1}_{c1}_{r2}_{c2}"]], cycle


def walk(rows, cols, cells, steps):
    """decode_loop on a rows x cols grid with an edge each way between
    neighbours, where exactly ``cells`` are in and the directed ``steps``
    are on."""
    b = CnfBuilder()
    grid = make_grid(b, rows, cols)
    es = grid_graph_edges(b, grid)
    assignment = {v: False for v in range(1, b.var_count + 1)}
    for rc in cells:
        assignment[grid.cell(*rc)] = True
    for e in es:
        assignment[e.lit] = (e.src, e.dst) in steps
    return decode_loop(assignment, grid, es)


def test_decode_a_directed_two_cycle():
    sol = walk(2, 2, {(1, 2), (2, 2)}, {((2, 2), (1, 2)), ((1, 2), (2, 2))})
    assert sol.cycle == [(1, 2), (2, 2)] and sol.in_cells == {(1, 2), (2, 2)}


def test_decode_a_lone_in_cell():
    sol = walk(2, 2, {(2, 1)}, set())
    assert sol.cycle == [(2, 1)] and sol.in_cells == {(2, 1)}


SQUARE = {((1, 1), (1, 2)), ((1, 2), (2, 2)), ((2, 2), (2, 1)), ((2, 1), (1, 1))}


@pytest.mark.parametrize(
    "rows,cols,cells,steps,message",
    [
        (
            1, 5, {(1, 1), (1, 2), (1, 4), (1, 5)},
            {((1, 1), (1, 2)), ((1, 2), (1, 1)), ((1, 4), (1, 5)), ((1, 5), (1, 4))},
            "2 cycles",
        ),
        (2, 2, {(1, 1), (1, 2), (2, 1), (2, 2)}, SQUARE | {((1, 2), (1, 1))}, "degree 3"),
        (1, 3, {(1, 1), (1, 2), (1, 3)}, {((1, 1), (1, 2)), ((1, 2), (1, 3))}, "degree 1"),
    ],
    ids=["two-disjoint-cycles", "three-edges-at-a-cell", "open-path"],
)
def test_decode_rejects_anything_but_one_cycle(rows, cols, cells, steps, message):
    with pytest.raises(RuntimeError, match=message):
        walk(rows, cols, cells, steps)


RING = [(1, 1), (2, 1), (2, 2), (1, 2)]
OPEN_PATH = [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1), (3, 2)]


@pytest.mark.parametrize(
    "cells,cycle,reason",
    [
        ({(1, 1)}, [(1, 1)], None),
        ({(1, 1), (1, 2)}, [(1, 2), (1, 1)], None),
        (set(RING), RING, None),
        ({(1, 1)}, [], "empty-cycle"),
        ({(0, 1)}, [(0, 1)], "cell-out-of-bounds"),
        ({(1, 1), (1, 4)}, [(1, 1), (1, 4)], "cell-out-of-bounds"),
        # every step is orthogonal, but the walk repeats two cells
        (set(RING), RING + RING[:2], "repeated-cell"),
        (set(RING), RING[:3], "cycle-incell-mismatch"),
        (set(RING[:3]), RING, "cycle-incell-mismatch"),
        ({(1, 1), (1, 3)}, [(1, 1), (1, 3)], "not-adjacent"),
        (set(RING), [(1, 1), (2, 2), (2, 1), (1, 2)], "not-adjacent"),
        # a path over every cell whose last cell does not step back to its first
        (set(OPEN_PATH), OPEN_PATH, "not-adjacent"),
    ],
    ids=["one-cell", "two-cells", "ring", "empty", "row-0", "column-past-the-board", "repeated-cell",
         "missed-cell", "extra-cell", "a-step-of-two", "diagonal-steps", "open-path"],
)
def test_check_cycle_shape(cells, cycle, reason):
    # the one circuit-order check, on a 3x3 board
    assert check_cycle_shape(cycle, cells, 3, 3) == reason
