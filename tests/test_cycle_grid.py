"""The lazy cycle model ``cycle_grid`` (Masyu, Shingoki and Road Runner on
the internal solver): the same answers as a Hamiltonian-cycle oracle, cuts
that every solution meets and that the model they came from breaks, and lazy
Road Runner optima equal to exhaustive search."""
import functools
import random

import pytest

from gridloop import CnfBuilder, GridVars, maximize
from gridloop.cnf import lit_value
from gridloop.graph import cycle_grid
from gridloop.puzzles import (
    build_masyu,
    build_roadrunner,
    parse_masyu,
    parse_roadrunner,
    verify_roadrunner,
)
from gridloop.solver import _Solver, internal_solve_fn

from oracles import has_ham_cycle_grid, rr_optimum


def grid_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def lazy_is_sat(b, cuts, units):
    return internal_solve_fn()(b.clauses + units, b.var_count, cuts)().is_sat


def check_every_in_subset(b, grid, cuts, subsets, oracle):
    for subset in subsets:
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        assert lazy_is_sat(b, cuts, units) == oracle(subset), (sorted(grid.cells), subset)


def test_with_a_count_every_cycle_counts_as_in_hcp():
    # a counter with "at least 1" asserted: one cell, two adjacent cells and
    # every longer cycle, on every set of present cells of a 2x3 grid (the
    # others are holes with no literal), and on the full 3x3 and 2x5 grids,
    # where two squares need a cut
    shapes = [
        [cell for i, cell in enumerate(grid_cells(2, 3)) if mask >> i & 1]
        for mask in range(1, 1 << 6)
    ] + [grid_cells(3, 3), grid_cells(2, 5)]
    for present in shapes:
        b = CnfBuilder()
        grid = GridVars(3, 5, {cell: b.new_var() for cell in present})
        count = b.unary_count(list(grid.cells.values()))
        b.add_clause([count.outputs[0]])
        _, cuts = cycle_grid(b, grid, count=count)
        subsets = [
            {cell for i, cell in enumerate(present) if mask >> i & 1}
            for mask in range(1 << len(present))
        ]
        check_every_in_subset(b, grid, cuts, subsets, has_ham_cycle_grid)


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 5)])
def test_with_anchors_only_a_cycle_through_them_is_left(rows, cols):
    # without a count an in-cell has two active edges, so no cycle is
    # shorter than four cells; two anchors in opposite corners, both in
    anchors = [(1, 1), (rows, cols)]
    b = CnfBuilder()
    grid = GridVars(rows, cols, {cell: b.new_var() for cell in grid_cells(rows, cols)})
    _, cuts = cycle_grid(b, grid, anchors)
    others = [cell for cell in grid.cells if cell not in anchors]
    subsets = [
        set(anchors) | {cell for i, cell in enumerate(others) if mask >> i & 1}
        for mask in range(1 << len(others))
    ]
    check_every_in_subset(
        b, grid, cuts, subsets, lambda s: len(s) > 2 and has_ham_cycle_grid(s)
    )


def test_without_anchors_each_cycle_pairs_with_the_next():
    # three squares on a 2x8 grid, every other cell out: u is a square's
    # first cell and v the next square's, cyclically
    b = CnfBuilder()
    grid = GridVars(2, 8, {cell: b.new_var() for cell in grid_cells(2, 8)})
    edges, cuts = cycle_grid(b, grid)
    squares = [{(r, c) for r in (1, 2) for c in (c0, c0 + 1)} for c0 in (1, 4, 7)]
    assignment = {v: v == 1 for v in range(1, b.var_count + 1)}
    for square in squares:
        for cell in square:
            assignment[grid.cells[cell]] = True
        for e in edges:
            assignment[e.lit] |= e.src in square and e.dst in square
    firsts = [grid.cells[(1, c0)] for c0 in (1, 4, 7)]
    assert cuts(assignment) == [
        [-firsts[i], -firsts[(i + 1) % 3]]
        + [e.lit for e in edges if (e.src in square) != (e.dst in square)]
        for i, square in enumerate(squares)
    ]


def undirected_solutions(b):
    """Every model of an eager formula, as the set of names of its true cell,
    road and laser literals and of the lazy model's undirected edges
    ``edge_{up or left cell}_{other}``: on where either direction is on.
    Found by solving again with each model's cells and edges blocked."""
    kept = [v for v, name in b.names.items() if name.startswith(("cell_", "road_", "laser_", "edge_"))]
    solver = _Solver(b.clauses, b.var_count)
    out = []
    while (found := solver.solve()).is_sat:
        a = found.model.assignment
        names = set()
        for v in kept:
            if a[v]:
                kind, *rc = b.names[v].split("_")
                if kind == "edge":
                    r1, c1, r2, c2 = map(int, rc)
                    (r1, c1), (r2, c2) = sorted([(r1, c1), (r2, c2)])
                    names.add(f"edge_{r1}_{c1}_{r2}_{c2}")
                else:
                    names.add(b.names[v])
        out.append(names)
        solver.add_clauses([[-v if a[v] else v for v in kept]])
    return out


def recording(cuts, added):
    """``cuts``, which also checks that each cut is false in the model it
    came from and keeps it in ``added``."""

    def recorded(assignment):
        new = cuts(assignment)
        for cut in new:
            assert not any(lit_value(lit, assignment) for lit in cut), cut
        added.extend(new)
        return new

    return recorded


@pytest.mark.parametrize(
    "kind,text",
    [
        ("masyu", "4\n....\n....\n.b..\n....\n"),
        ("masyu", "4\n....\n.ww.\n....\n....\n"),
        ("masyu", "4\n....\n.w..\n....\n....\n"),
        ("roadrunner", "5 2\n..#..\n..#..\n"),
        ("roadrunner", "5 3\n..#..\n..#..\n..#..\n"),
        ("roadrunner", "5 5\n.....\n.....\n##1##\n.....\n.....\n"),
    ],
    ids=["masyu-b", "masyu-ww", "masyu-w", "roadrunner-5x2", "roadrunner-5x3", "roadrunner-5x5"],
)
def test_every_cut_keeps_every_solution(kind, text):
    # the cuts added while solving (Road Runner: while maximizing) against
    # every solution of the eager formula, whatever its road length
    parse, build = {
        "masyu": (parse_masyu, build_masyu),
        "roadrunner": (parse_roadrunner, build_roadrunner),
    }[kind]
    inst = parse(text)
    eager = CnfBuilder()
    build(eager, inst)
    solutions = undirected_solutions(eager)
    b = CnfBuilder()
    _, count, cuts = build(b, inst, lazy=True)
    added = []
    solve_fn = functools.partial(internal_solve_fn(), cuts=recording(cuts, added))
    if count is None:
        assert solve_fn(b.clauses, b.var_count)().is_sat
    else:
        assert maximize(b.clauses, b.var_count, count, solve_fn=solve_fn, lo=1).certified
    assert added and solutions
    for cut in added:
        for names in solutions:
            assert any((b.names[abs(lit)] in names) == (lit > 0) for lit in cut), (cut, names)


def random_roadrunner_board(rng):
    """A board of 1x1 to 4x4 cells with hills, half of them clued 0-2."""
    cols, rows = rng.randint(1, 4), rng.randint(1, 4)
    hills = rng.choice([0.2, 0.35, 0.5])
    lines = [
        "".join(
            (str(rng.randint(0, 2)) if rng.random() < 0.5 else "#") if rng.random() < hills else "."
            for _ in range(cols)
        )
        for _ in range(rows)
    ]
    return f"{cols} {rows}\n" + "".join(line + "\n" for line in lines)


def test_lazy_optimum_equals_exhaustive_search_on_random_boards():
    rng = random.Random(19890101)
    seen = set()
    for _ in range(200):
        text = random_roadrunner_board(rng)
        inst = parse_roadrunner(text)
        b = CnfBuilder()
        decode, count, cuts = build_roadrunner(b, inst, lazy=True)
        solve_fn = functools.partial(internal_solve_fn(), cuts=cuts)
        res = maximize(b.clauses, b.var_count, count, solve_fn=solve_fn, lo=1)
        want = rr_optimum(inst)
        seen.add(want)
        if want is None:
            assert res.status == "infeasible", text
            continue
        assert (res.status, res.best_value, res.certified) == ("optimal", want, True), text
        assert verify_roadrunner(inst, decode(res.best_model.assignment)) is None, text
    # roads of one and two cells, longer roads and infeasible boards all occur
    assert {None, 1, 2} < seen
