"""The lazy cycle model ``cycle_grid`` (Masyu, Shingoki and Road Runner on
the internal solver): the same answers as a Hamiltonian-cycle oracle, cuts
from the propagator's check and final check that every solution meets and
that the trail or model they came from breaks, path ends that undo restores,
and lazy Road Runner optima equal to exhaustive search."""
import functools
import itertools
import random

import pytest

from gridloop import CnfBuilder, GridVars, maximize
from gridloop.graph import cycle_grid
from gridloop.puzzles import (
    build_masyu,
    build_roadrunner,
    parse_masyu,
    parse_roadrunner,
    verify_roadrunner,
)
from gridloop.solver import _Solver, internal_solve_fn

from oracles import Recording, has_ham_cycle_grid, rr_optimum


def grid_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def one_cycle_models(grid, edges, short):
    """Every assignment of the cell and edge literals that has at most one
    cycle: no cell in, the cells and edges of one cycle (found over every
    subset of the edges), and with ``short`` also one cell with no edge or
    two adjacent cells with their edge, as a count allows."""
    shapes = [(set(), [])]  # (cells in, edges on)
    for mask in range(1, 1 << len(edges)):
        on = [e for i, e in enumerate(edges) if mask >> i & 1]
        degree = {}
        for e in on:
            for cell in (e.src, e.dst):
                degree[cell] = degree.get(cell, 0) + 1
        if set(degree.values()) != {2}:
            continue
        reached, stack = {on[0].src}, [on[0].src]
        while stack:
            cell = stack.pop()
            for e in on:
                for a, b in ((e.src, e.dst), (e.dst, e.src)):
                    if a == cell and b not in reached:
                        reached.add(b)
                        stack.append(b)
        if reached == set(degree):
            shapes.append((reached, on))
    if short:
        shapes += [({cell}, []) for cell in grid.cells] + [({e.src, e.dst}, [e]) for e in edges]
    return [
        {**{lit: cell in cells for cell, lit in grid.cells.items()}, **{e.lit: e in on for e in edges}}
        for cells, on in shapes
    ]


def check_every_in_subset(build, subsets, oracle, short):
    """Solve the formula of ``build()`` once per subset, with exactly the
    subset's cells in, against ``oracle``; every clause that the propagator
    returned holds in every model of ``one_cycle_models``.  Returns the
    number of clauses from ``check``."""
    returned, checked = [], 0
    for subset in subsets:
        b, grid, edges, propagator = build()
        recording = Recording(propagator)
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        out = internal_solve_fn()(b.clauses + units, b.var_count, recording)()
        assert out.is_sat == oracle(subset), (sorted(grid.cells), subset)
        returned += recording.clauses
        checked += len(recording.checked)
    models = one_cycle_models(grid, edges, short)
    for clause in returned:
        for model in models:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause), (clause, model)
    return checked


def test_with_a_count_every_cycle_counts_as_in_hcp():
    # a counter with "at least 1" asserted: one cell, two adjacent cells and
    # every longer cycle, on every set of present cells of a 2x3 grid (the
    # others are holes with no literal), and on the full 3x3 and 2x5 grids,
    # where two squares need a cut
    shapes = [
        [cell for i, cell in enumerate(grid_cells(2, 3)) if mask >> i & 1]
        for mask in range(1, 1 << 6)
    ] + [grid_cells(3, 3), grid_cells(2, 5)]
    checked = 0
    for present in shapes:

        def build():
            b = CnfBuilder()
            grid = GridVars(3, 5, {cell: b.new_var() for cell in present})
            count = b.unary_count(list(grid.cells.values()))
            b.add_clause([count.outputs[0]])
            return (b, grid, *cycle_grid(b, grid, count=count))

        subsets = [
            {cell for i, cell in enumerate(present) if mask >> i & 1}
            for mask in range(1 << len(present))
        ]
        checked += check_every_in_subset(build, subsets, has_ham_cycle_grid, short=True)
    assert checked  # the two squares are cut during the search


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 5)])
def test_with_anchors_only_a_cycle_through_them_is_left(rows, cols):
    # without a count an in-cell has two active edges, so no cycle is
    # shorter than four cells; two anchors in opposite corners, both in
    anchors = [(1, 1), (rows, cols)]

    def build():
        b = CnfBuilder()
        grid = GridVars(rows, cols, {cell: b.new_var() for cell in grid_cells(rows, cols)})
        return (b, grid, *cycle_grid(b, grid, anchors))

    others = [cell for cell in grid_cells(rows, cols) if cell not in anchors]
    subsets = [
        set(anchors) | {cell for i, cell in enumerate(others) if mask >> i & 1}
        for mask in range(1 << len(others))
    ]
    checked = check_every_in_subset(
        build, subsets, lambda s: len(s) > 2 and has_ham_cycle_grid(s), short=False
    )
    # any two 2x2 squares of 3x3 share its centre: only 2x5 has two cycles
    assert bool(checked) == (cols == 5)


def test_without_anchors_each_cycle_pairs_with_the_next():
    # three squares on a 2x8 grid, every other cell out: u is a square's
    # first cell and v the next square's, cyclically
    b = CnfBuilder()
    grid = GridVars(2, 8, {cell: b.new_var() for cell in grid_cells(2, 8)})
    edges, propagator = cycle_grid(b, grid)
    squares = [{(r, c) for r in (1, 2) for c in (c0, c0 + 1)} for c0 in (1, 4, 7)]
    assignment = {v: v == 1 for v in range(1, b.var_count + 1)}
    for square in squares:
        for cell in square:
            assignment[grid.cells[cell]] = True
        for e in edges:
            assignment[e.lit] |= e.src in square and e.dst in square
    firsts = [grid.cells[(1, c0)] for c0 in (1, 4, 7)]
    assert propagator.final(assignment) == [
        [-firsts[i], -firsts[(i + 1) % 3]]
        + [e.lit for e in edges if (e.src in square) != (e.dst in square)]
        for i, square in enumerate(squares)
    ]


def path_ends(pairs, ncells):
    """For each cell with at most one of the edges ``pairs`` (cell index
    pairs): the other end of its path, or the cell itself with none."""
    nbrs = [[] for _ in range(ncells)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    out = {}
    for cell in range(ncells):
        if not nbrs[cell]:
            out[cell] = cell
        elif len(nbrs[cell]) == 1:
            prev, cur = cell, nbrs[cell][0]
            while len(nbrs[cur]) == 2:
                prev, cur = cur, nbrs[cur][1] if nbrs[cur][0] == prev else nbrs[cur][0]
            out[cell] = cur
    return out


@pytest.mark.parametrize("n", [4, 5])
def test_undo_restores_the_path_ends(n):
    # random decisions, propagation, the propagator's check and backjumps to
    # random levels; after each backjump the path ends equal those rebuilt
    # from the true edge literals of the trail that check has read
    rng = random.Random(f"undo/{n}")
    b = CnfBuilder()
    grid = GridVars(n, n, {cell: b.new_var() for cell in grid_cells(n, n)})
    edges, propagator = cycle_grid(b, grid, anchors=[(1, 1)])
    index = {cell: i for i, cell in enumerate(grid.cells)}
    pair = {e.lit: (index[e.src], index[e.dst]) for e in edges}
    solver = _Solver(b.clauses, b.var_count, propagator)
    solver._load()
    undos = cuts = 0
    while undos < 300:
        conflict = solver._propagate()
        if conflict is None:
            conflict = propagator.check(solver)
            cuts += conflict is not None
        free = [v for v in range(1, b.var_count + 1) if solver._value(v) == 0]
        if conflict is not None or not free or (solver.trail_lim and rng.random() < 0.1):
            assert solver.trail_lim  # a conflict at level 0 would be unsat
            solver._backjump(rng.randrange(len(solver.trail_lim)))
            undos += 1
            read = solver.trail[: propagator.head]
            want = path_ends([pair[lit] for lit in read if lit in pair], len(index))
            assert {cell: propagator.end[cell] for cell in want} == want
            continue
        var = rng.choice(free)
        solver.trail_lim.append(len(solver.trail))
        solver._assign(var if rng.random() < 0.6 else -var, None)
    assert cuts > 10


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
    # the clauses that the propagator returned while solving (Road Runner:
    # while maximizing), from its check and its final check, against every
    # solution of the eager formula, whatever its road length
    parse, build = {
        "masyu": (parse_masyu, build_masyu),
        "roadrunner": (parse_roadrunner, build_roadrunner),
    }[kind]
    inst = parse(text)
    eager = CnfBuilder()
    build(eager, inst)
    solutions = undirected_solutions(eager)
    b = CnfBuilder()
    _, count, propagator = build(b, inst, lazy=True)
    recording = Recording(propagator)
    solve_fn = functools.partial(internal_solve_fn(), propagator=recording)
    if count is None:
        assert solve_fn(b.clauses, b.var_count)().is_sat
    else:
        assert maximize(b.clauses, b.var_count, count, solve_fn=solve_fn, lo=1).certified
    assert recording.clauses and solutions
    for cut in recording.clauses:
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
        decode, count, propagator = build_roadrunner(b, inst, lazy=True)
        solve_fn = functools.partial(internal_solve_fn(), propagator=propagator)
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
