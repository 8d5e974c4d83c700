"""The lazy cycle model ``cycle_grid`` (Masyu, Shingoki and Road Runner on
the internal solver): the same answers as a Hamiltonian-cycle oracle, cuts
from the propagator's check that every solution meets and that the trail
they came from breaks, a check that leaves no total trail with two cycles,
path ends that undo restores, and lazy Road Runner optima equal to
exhaustive search."""
import itertools
import random

import pytest

from gridloop import CnfBuilder, GridVars, maximize
from gridloop.graph import cycle_grid, grid_cycles
from gridloop.puzzles import (
    build_masyu,
    build_roadrunner,
    parse_masyu,
    parse_roadrunner,
    verify_roadrunner,
)
from gridloop.solver import _Solver, open_internal

from oracles import Recording, all_kept_models, has_ham_cycle_grid, rr_optimum


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
    number of those clauses."""
    returned = []
    for subset in subsets:
        b, grid, edges, propagator = build()
        recording = Recording(propagator)
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        out = open_internal(b.clauses + units, b.var_count, recording)()
        assert out.is_sat == oracle(subset), (sorted(grid.cells), subset)
        returned += recording.clauses
    models = one_cycle_models(grid, edges, short)
    for clause in returned:
        for model in models:
            assert any(model[abs(lit)] == (lit > 0) for lit in clause), (clause, model)
    return len(returned)


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


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_an_anchor_needs_no_clause_from_its_edges(rows, cols):
    # every choice of one or two anchors, each asserted by a unit as the
    # callers do: the formula lacks exactly the clause [-e, in_a] of each
    # edge e at each anchor a, and has the cell and edge models of the
    # formula that keeps them
    cells = grid_cells(rows, cols)

    def build(anchors, passed):
        b = CnfBuilder()
        grid = GridVars(rows, cols, {cell: b.new_var() for cell in cells})
        edges, _ = cycle_grid(b, grid, passed)
        for cell in anchors:
            b.add_clause([grid.cells[cell]])
        return b, grid, edges

    choices = [[a] for a in cells] + [list(pair) for pair in itertools.combinations(cells, 2)]
    for anchors in choices:
        b, grid, edges = build(anchors, anchors)
        full, _, _ = build(anchors, ())
        dropped = [[-e.lit, grid.cells[end]] for e in edges for end in (e.src, e.dst) if end in anchors]
        pairs = sum(abs(r - r2) + abs(c - c2) == 1 for r, c in anchors for r2, c2 in cells)
        assert len(dropped) == pairs and len(full.clauses) - len(b.clauses) == pairs
        # compared before the solver reorders the literals of the lists; a
        # stamped clause is a tuple, so each one is compared as a list
        assert sorted(map(list, b.clauses + dropped)) == sorted(map(list, full.clauses)), anchors
        kept = list(range(2, b.var_count + 1))  # every cell and edge
        models = {frozenset(m.items()) for m in all_kept_models(b.clauses, b.var_count, kept)}
        assert models == {frozenset(m.items()) for m in all_kept_models(full.clauses, full.var_count, kept)}
        # a cycle through the anchors is among them
        assert any(m[e.lit] for m in map(dict, models) for e in edges), anchors


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
    b.add_clause([grid.cells[(1, 1)]])  # an anchor is in, as cycle_grid's callers assert
    edges, propagator = cycle_grid(b, grid, anchors=[(1, 1)])
    index = {cell: i for i, cell in enumerate(grid.cells)}
    pair = {e.lit: (index[e.src], index[e.dst]) for e in edges}
    solver = _Solver(b.clauses, b.var_count, propagator)
    solver._load()
    undos = cuts = 0
    while undos < 300:
        conflict = solver._propagate() is not None
        if not conflict:
            conflict = bool(propagator.check(solver))
            cuts += conflict
        free = [v for v in range(1, b.var_count + 1) if solver._value(v) == 0]
        if conflict or not free or (solver.trail_lim and rng.random() < 0.1):
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


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", ["anchors", "count"])
def test_check_leaves_no_total_trail_with_two_cycles(kind, n):
    # random decisions, propagation and the propagator's check, as above;
    # at each total trail where check returns nothing, the active edges form
    # at most one cycle, so no check of the total model is needed.  Two
    # anchors in opposite corners, or a count of at least 1 with no anchor
    rng = random.Random(f"complete/{kind}/{n}")
    b = CnfBuilder()
    grid = GridVars(n, n, {cell: b.new_var() for cell in grid_cells(n, n)})
    if kind == "anchors":
        anchors = [(1, 1), (n, n)]
        for cell in anchors:
            b.add_clause([grid.cells[cell]])
        edges, propagator = cycle_grid(b, grid, anchors)
    else:
        count = b.unary_count(list(grid.cells.values()))
        b.add_clause([count.outputs[0]])
        edges, propagator = cycle_grid(b, grid, count=count)
    solver = _Solver(b.clauses, b.var_count, propagator)
    solver._load()
    totals = cuts = 0
    while totals < 200:
        conflict = solver._propagate() is not None
        if not conflict:
            conflict = bool(propagator.check(solver))
            cuts += conflict
        if not conflict and len(solver.trail) == b.var_count:
            a = {v: solver._value(v) == 1 for v in range(1, b.var_count + 1)}
            # one or two in-cells need no edge with a count: no cycle to walk
            if sum(a[lit] for lit in grid.cells.values()) > 2:
                assert len(grid_cycles(a, grid, edges)) <= 1
            totals += 1
            conflict = True
        if conflict:
            assert solver.trail_lim  # a conflict at level 0 would be unsat
            solver._backjump(rng.randrange(len(solver.trail_lim)))
            continue
        free = [v for v in range(1, b.var_count + 1) if solver._value(v) == 0]
        var = rng.choice(free)
        solver.trail_lim.append(len(solver.trail))
        solver._assign(var if rng.random() < 0.6 else -var, None)
    assert cuts > 100  # second cycles were met, and cut during the search


def undirected_solutions(b):
    """Every model of an eager formula, as the set of names of its true cell,
    road and laser literals and of the lazy model's undirected edges
    ``edge_{up or left cell}_{other}``: on where either direction is on."""
    name_of = b.names
    kept = [v for v, name in name_of.items() if name.startswith(("cell_", "road_", "laser_", "edge_"))]
    out = []
    for a in all_kept_models(b.clauses, b.var_count, kept):
        names = set()
        for v in kept:
            if a[v]:
                kind, *rc = name_of[v].split("_")
                if kind == "edge":
                    r1, c1, r2, c2 = map(int, rc)
                    (r1, c1), (r2, c2) = sorted([(r1, c1), (r2, c2)])
                    names.add(f"edge_{r1}_{c1}_{r2}_{c2}")
                else:
                    names.add(name_of[v])
        out.append(names)
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
    # while maximizing) against every solution of the eager formula,
    # whatever its road length
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
    probe = open_internal(b.clauses, b.var_count, recording)
    if count is None:
        assert probe().is_sat
    else:
        assert maximize(probe, count, lo=1).certified
    assert recording.clauses and solutions
    name_of = b.names
    for cut in recording.clauses:
        for names in solutions:
            assert any((name_of[abs(lit)] in names) == (lit > 0) for lit in cut), (cut, names)


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
        res = maximize(open_internal(b.clauses, b.var_count, propagator), count, lo=1)
        want = rr_optimum(inst)
        seen.add(want)
        if want is None:
            assert res.status == "infeasible", text
            continue
        assert (res.status, res.best_value, res.certified) == ("optimal", want, True), text
        assert verify_roadrunner(inst, decode(res.best_model.assignment)) is None, text
    # roads of one and two cells, longer roads and infeasible boards all occur
    assert {None, 1, 2} < seen
