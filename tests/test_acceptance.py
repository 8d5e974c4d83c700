"""Acceptance criteria, one test per criterion.

Each test prints a single "ACCEPTANCE <n>: PASS/FAIL/WARN" line (bypassing
pytest's capture so it shows in the run log).  Criterion 8 is a soft
performance target: missing or failing it logs a warning, not a failure.
"""
import copy
import functools
import glob
import itertools
import os
import random
import sys
import time

import pytest

from gridloop import (
    CnfBuilder,
    EdgeSpec,
    VertexSpec,
    hcp_grid,
    make_grid,
    maximize,
    scc,
    scc_grid,
    solve_internal,
)
from gridloop.cnf import lit_value
from gridloop.solver import DEFAULT_SOLVER_ENV, external_solve_fn, internal_solve_fn
from gridloop.puzzles import (
    LoopSolution,
    build_masyu,
    build_roadrunner,
    build_shingoki,
    build_tapa,
    findall_layouts,
    parse_masyu,
    parse_roadrunner,
    parse_shingoki,
    parse_tapa,
    verify_masyu,
    verify_roadrunner,
    verify_shingoki,
    verify_tapa,
)

from oracles import (
    connected_in_graph,
    grid_loops,
    has_ham_cycle_grid,
    orthogonally_connected,
    rr_optimum,
    sat_under,
    straight_run,
    tapa_layout_patterns,
)

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def report(capsys, line):
    with capsys.disabled():
        print(line)


def grid_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def exhaustive_grid_check(rows, cols, encode, oracle):
    """SAT status of every in-subset against the oracle; returns mismatches."""
    b = CnfBuilder()
    grid = make_grid(b, rows, cols)
    encode(b, grid)
    cells = grid_cells(rows, cols)
    mismatches = 0
    for mask in range(1 << len(cells)):
        subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        units = [
            [grid.cell(r, c)] if (r, c) in subset else [-grid.cell(r, c)]
            for r, c in cells
        ]
        if solve_internal(b.clauses + units, b.var_count).is_sat != oracle(subset):
            mismatches += 1
    return mismatches


def test_criterion_1_hamiltonicity_oracle(capsys):
    start = time.monotonic()
    mismatches = exhaustive_grid_check(
        3, 3, lambda b, g: hcp_grid(b, g), has_ham_cycle_grid
    )
    elapsed = time.monotonic() - start
    ok = mismatches == 0 and elapsed < 300
    report(
        capsys,
        f"ACCEPTANCE 1: {'PASS' if ok else 'FAIL'} — hcp_grid vs brute-force "
        f"Hamiltonicity on all 512 3x3 subsets: {mismatches} mismatches in {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_connectivity_oracle(capsys):
    start = time.monotonic()
    grid_mismatches = exhaustive_grid_check(
        3, 3, lambda b, g: scc_grid(b, g), orthogonally_connected
    )
    graph_mismatches = 0
    rng = random.Random(20240817)
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(20):
            edges = [p for p in pairs if rng.random() < 0.5]
            b = CnfBuilder()
            vs = [VertexSpec(i, b.new_var()) for i in range(n)]
            scc(b, vs, [EdgeSpec(x, y, b.new_var()) for x, y in edges])
            for mask in range(1 << n):
                subset = {i for i in range(n) if mask >> i & 1}
                units = [v.in_lit if v.term in subset else -v.in_lit for v in vs]
                got = sat_under(b.clauses, b.var_count, units).is_sat
                if got != connected_in_graph(subset, edges):
                    graph_mismatches += 1
    elapsed = time.monotonic() - start
    ok = grid_mismatches == 0 and graph_mismatches == 0
    report(
        capsys,
        f"ACCEPTANCE 2: {'PASS' if ok else 'FAIL'} — scc_grid 3x3 flood-fill: "
        f"{grid_mismatches} mismatches; scc on <=5-vertex random graphs: "
        f"{graph_mismatches} mismatches ({elapsed:.1f}s)",
    )
    assert ok


def test_criterion_3_encoding_unit_suites(capsys):
    failures = []

    # gates: full truth tables
    for n in (2, 3):
        b = CnfBuilder()
        xs = b.new_vars(n)
        ga, go = b.gate_and(xs), b.gate_or(xs)
        for bits in itertools.product([False, True], repeat=n):
            units = [x if bit else -x for x, bit in zip(xs, bits)]
            out = sat_under(b.clauses, b.var_count, units)
            m = out.model.assignment
            if lit_value(ga, m) != all(bits) or lit_value(go, m) != any(bits):
                failures.append(f"gate n={n} {bits}")

    # exactly-one up to 8 inputs: accepted input assignments are the unit rows
    for n in range(1, 9):
        b = CnfBuilder()
        xs = b.new_vars(n)
        b.exactly_one(xs)
        for bits in itertools.product([False, True], repeat=n):
            units = [x if bit else -x for x, bit in zip(xs, bits)]
            got = sat_under(b.clauses, b.var_count, units).is_sat
            if got != (sum(bits) == 1):
                failures.append(f"exactly_one n={n} {bits}")

    # unary counters up to 8 inputs: outputs forced to the exact thresholds
    for n in range(1, 9):
        b = CnfBuilder()
        xs = b.new_vars(n)
        count = b.unary_count(xs)
        for bits in itertools.product([False, True], repeat=n):
            units = [x if bit else -x for x, bit in zip(xs, bits)]
            out = sat_under(b.clauses, b.var_count, units)
            if not out.is_sat or count.value(out.model.assignment) != sum(bits):
                failures.append(f"unary_count n={n} {bits}")
                continue
            total = sum(bits)
            for i, o in enumerate(count.outputs, start=1):
                wrong = -o if total >= i else o
                if not sat_under(b.clauses, b.var_count, units + [wrong]).is_unsat:
                    failures.append(f"unary_count n={n} {bits} output {i} unforced")

    # bitvec_successor widths 1..4: y forced to x + 1, overflow banned
    for width in range(1, 5):
        b = CnfBuilder()
        x, y = b.new_bitvec(width), b.new_bitvec(width)
        guard = b.new_var()
        b.bitvec_successor(x, y, guard)
        top = (1 << width) - 1
        for v in range(top + 1):
            units = [guard] + [
                bit if v >> i & 1 else -bit for i, bit in enumerate(x.bits)
            ]
            out = sat_under(b.clauses, b.var_count, units)
            if v == top:
                if not out.is_unsat:
                    failures.append(f"successor width={width} overflow")
                continue
            if not out.is_sat or y.value(out.model.assignment) != v + 1:
                failures.append(f"successor width={width} x={v}")
                continue
            for w in range(1 << width):
                if w == v + 1:
                    continue
                eq = [bit if w >> i & 1 else -bit for i, bit in enumerate(y.bits)]
                if not sat_under(b.clauses, b.var_count, units + eq).is_unsat:
                    failures.append(f"successor width={width} x={v} y={w} allowed")

    ok = not failures
    report(
        capsys,
        f"ACCEPTANCE 3: {'PASS' if ok else 'FAIL'} — exhaustive truth tables for "
        f"gates, exactly-one (<=8), unary counters (<=8), bitvec successor (<=4): "
        f"{len(failures)} failures",
    )
    assert ok, failures[:5]


def test_criterion_4_tapa_layout_oracle(capsys):
    clue_lists = [[0], [1], [4], [8], [1, 1], [1, 4], [2, 2], [1, 1, 1]]
    mismatches = 0
    for clues in clue_lists:
        for ring_len in range(3, 9):
            for circular in (False, True):
                got = set(findall_layouts(clues, ring_len, circular))
                if clues == [0]:
                    want = {tuple([0] * ring_len)}
                else:
                    want = tapa_layout_patterns(clues, ring_len, circular)
                if got != want:
                    mismatches += 1
    paper = (1, 1, 0, 0, 1, 0, 1, 1) in findall_layouts([1, 4], 8, True)
    ok = mismatches == 0 and paper
    report(
        capsys,
        f"ACCEPTANCE 4: {'PASS' if ok else 'FAIL'} — findall_layouts vs bit-pattern "
        f"filtering over 8 clue lists x ring 3..8 x circular/linear: {mismatches} "
        f"mismatches; paper layout for [1,4] present: {paper}",
    )
    assert ok


def corpus(pattern):
    return sorted(glob.glob(os.path.join(INSTANCES, pattern)))


def read(path):
    with open(path) as f:
        return f.read()


def loop_mutations(sol, n):
    """Single-cell membership flips of a loop solution."""
    for cell in grid_cells(n, n):
        if cell in sol.in_cells:
            cycle = [c for c in sol.cycle if c != cell]
            yield LoopSolution(set(cycle), cycle)
        else:
            cycle = sol.cycle + [cell]
            yield LoopSolution(set(cycle), cycle)


def cell_flips(sol, n):
    """Every coloring one cell away from a Tapa solution."""
    for r in range(n):
        for c in range(n):
            mut = copy.deepcopy(sol)
            mut.black[r][c] ^= 1
            yield mut


def test_criterion_5_corpus_regression(capsys):
    solved = 0
    mutation_accepts = 0

    def run_both_models(path, parse, build, verify, mutations):
        # through the eager model, then the lazy one (the internal solver's)
        nonlocal solved, mutation_accepts
        inst = parse(read(path))
        for lazy in (False, True):
            b = CnfBuilder()
            decode, _, propagator = build(b, inst, lazy=lazy)
            out = internal_solve_fn()(b.clauses, b.var_count, propagator)()
            assert out.is_sat, (path, lazy)
            sol = decode(out.model.assignment)
            assert verify(inst, sol) is None, (path, lazy)
            solved += 1
            for mut in mutations(sol, inst.n):
                if verify(inst, mut) is None:
                    mutation_accepts += 1

    for path in corpus("masyu_[4-7]x*.masyu"):
        run_both_models(path, parse_masyu, build_masyu, verify_masyu, loop_mutations)
    for path in corpus("shingoki_*.shingoki"):
        run_both_models(path, parse_shingoki, build_shingoki, verify_shingoki, loop_mutations)
    for path in corpus("tapa_*.tapa"):
        run_both_models(path, parse_tapa, build_tapa, verify_tapa, cell_flips)

    for path in corpus("roadrunner_*.roadrunner"):
        inst = parse_roadrunner(read(path))
        b = CnfBuilder()
        decode, count, _ = build_roadrunner(b, inst)
        res = maximize(b.clauses, b.var_count, count, lo=1)
        assert res.status == "optimal", path
        sol = decode(res.best_model.assignment)
        assert verify_roadrunner(inst, sol) is None, path
        solved += 1
        for y in range(inst.max_y):
            for x in range(inst.max_x):
                for field in ("road", "laser"):
                    mut = copy.deepcopy(sol)
                    getattr(mut, field)[y][x] ^= 1
                    if field == "road":
                        mut.k = sum(sum(row) for row in mut.road)
                    if verify_roadrunner(inst, mut) is None:
                        mutation_accepts += 1

    ok = solved >= 28 and mutation_accepts == 0
    report(
        capsys,
        f"ACCEPTANCE 5: {'PASS' if ok else 'FAIL'} — {solved} corpus solves "
        f"(loop puzzles and Tapa through the eager and the lazy model) verifier-accepted; "
        f"{mutation_accepts} single-cell mutations wrongly accepted",
    )
    assert ok


def test_criterion_6_roadrunner_optimality(capsys):
    # through the eager model, then the lazy one (the internal solver's),
    # whose probes all search with its propagator
    checked = 0
    mismatches = 0
    uncertified = 0
    for path in corpus("roadrunner_*.roadrunner"):
        inst = parse_roadrunner(read(path))
        if inst.max_x > 4 or inst.max_y > 4:
            continue
        want = rr_optimum(inst)
        for lazy in (False, True):
            b = CnfBuilder()
            _, count, propagator = build_roadrunner(b, inst, lazy=lazy)
            solve_fn = functools.partial(internal_solve_fn(), propagator=propagator)
            res = maximize(b.clauses, b.var_count, count, solve_fn=solve_fn, lo=1)
            checked += 1
            if want is None:
                if res.status != "infeasible":
                    mismatches += 1
                continue
            if res.status != "optimal" or res.best_value != want:
                mismatches += 1
            elif not res.certified:
                uncertified += 1
    ok = checked >= 6 and mismatches == 0 and uncertified == 0
    report(
        capsys,
        f"ACCEPTANCE 6: {'PASS' if ok else 'FAIL'} — {checked} runs on instances <=4x4 "
        f"(eager and lazy model): {mismatches} optimum mismatches vs exhaustive search, "
        f"{uncertified} missing UNSAT certificates",
    )
    assert ok


def regression_formulas():
    """The CNFs of every bundled instance plus a few infeasible ones."""
    formulas = []
    for path in corpus("masyu_[4-7]x*.masyu"):
        b = CnfBuilder()
        build_masyu(b, parse_masyu(read(path)))
        formulas.append((os.path.basename(path), b))
    for path in corpus("shingoki_*.shingoki"):
        b = CnfBuilder()
        build_shingoki(b, parse_shingoki(read(path)))
        formulas.append((os.path.basename(path), b))
    for path in corpus("tapa_*.tapa"):
        b = CnfBuilder()
        build_tapa(b, parse_tapa(read(path)))
        formulas.append((os.path.basename(path), b))
    for path in corpus("roadrunner_*.roadrunner"):
        b = CnfBuilder()
        build_roadrunner(b, parse_roadrunner(read(path)))
        formulas.append((os.path.basename(path), b))
    # infeasible members
    b = CnfBuilder()
    build_masyu(b, parse_masyu("2\nww\n..\n"))
    formulas.append(("masyu-unsat", b))
    b = CnfBuilder()
    build_tapa(b, parse_tapa("2\n3 .\n. 3\n"))
    formulas.append(("tapa-unsat", b))
    return formulas


def test_criterion_7_internal_external_agreement(capsys):
    external = external_solve_fn(
        [sys.executable, "-m", "gridloop.dimacs_solver"], timeout=300
    )
    disagreements = 0
    checked = 0
    for name, b in regression_formulas():
        internal_out = solve_internal(b.clauses, b.var_count)
        external_out = external(b.clauses, b.var_count)()
        checked += 1
        if internal_out.status != external_out.status:
            disagreements += 1
        # SAT models are verified inside both drivers before being returned
    ok = checked >= 16 and disagreements == 0
    report(
        capsys,
        f"ACCEPTANCE 7: {'PASS' if ok else 'FAIL'} — internal vs external solver "
        f"on {checked} regression CNFs: {disagreements} status disagreements "
        f"(all SAT models re-verified)",
    )
    assert ok


def test_criterion_8_soft_large_masyu(capsys):
    # an external solver takes the eager model; the internal one, the lazy
    # model in one search with its cycle propagator, as `gridloop solve` does
    cmd = os.environ.get(DEFAULT_SOLVER_ENV)
    path = os.path.join(INSTANCES, "masyu_30x30.masyu")
    inst = parse_masyu(read(path))
    b = CnfBuilder()
    decode, _, propagator = build_masyu(b, inst, lazy=not cmd)
    start = time.monotonic()
    if cmd:
        how = "externally"
        out = external_solve_fn(cmd.split(), timeout=120)(b.clauses, b.var_count)()
    else:
        how = "by the internal solver with its cycle propagator"
        out = internal_solve_fn(timeout=120)(b.clauses, b.var_count, propagator)()
    elapsed = time.monotonic() - start
    if out.is_sat and elapsed <= 120:
        sol = decode(out.model.assignment)
        verified = verify_masyu(inst, sol) is None
        report(
            capsys,
            f"ACCEPTANCE 8: {'PASS' if verified else 'FAIL'} (soft) — 30x30 Masyu "
            f"solved {how} in {elapsed:.1f}s, verified={verified}",
        )
        assert verified
    else:
        report(
            capsys,
            f"ACCEPTANCE 8: WARN (soft) — 30x30 Masyu not solved within 120 s "
            f"(status {out.status} after {elapsed:.1f}s); soft target missed",
        )


def shingoki_oracle_boards(n, loops, rng):
    """Boards of one clue at each cell, both colours, clues 2-6; 30 of 2-4
    clues read off a random simple cycle, so that it meets them; and 10 of
    2-4 random clues."""
    boards = [
        {cell: (color, clue)}
        for cell in grid_cells(n, n)
        for color in "wb"
        for clue in range(2, 7)
    ]
    cycles = [loop for loop in loops if len(loop) > 2]
    for _ in range(30):
        cycle = rng.choice(cycles)
        board = {}
        for i in rng.sample(range(len(cycle)), rng.randint(2, min(4, len(cycle)))):
            back, ahead = straight_run(cycle, i, -1), straight_run(cycle, i, 1)
            (r0, c0), (r1, c1) = cycle[i - 1], cycle[(i + 1) % len(cycle)]
            board[cycle[i]] = ("w" if r0 == r1 or c0 == c1 else "b", back + ahead)
        boards.append(board)
    for _ in range(10):
        cells = rng.sample(grid_cells(n, n), rng.randint(2, 4))
        boards.append({cell: (rng.choice("wb"), rng.randint(2, 6)) for cell in cells})
    def row(board, r):
        marks = [board.get((r, c)) for c in range(1, n + 1)]
        return " ".join("." if mark is None else f"{mark[0]}{mark[1]}" for mark in marks)

    return [f"{n}\n" + "".join(row(board, r) + "\n" for r in range(1, n + 1)) for board in boards]


def loop_literals(b):
    """The cell and edge literals of a loop model, by the names it gives
    them: cell -> literal, and literal -> the edge's two cells."""
    cells, edges = {}, {}
    for var, name in b.names.items():
        kind, *rc = name.split("_")
        if kind == "cell":
            cells[tuple(map(int, rc))] = var
        elif kind == "edge":
            r1, c1, r2, c2 = map(int, rc)
            edges[var] = frozenset([(r1, c1), (r2, c2)])
    return cells, edges


def loop_oracle(n, loops, boards, parse, build, verify):
    """Every loop a model on the n x n grid can stand for, checked under
    assumptions: its cells in and the rest out, and every edge off the loop
    off.  Both models of each board must admit exactly the loops that
    ``verify`` accepts.  Returns (mismatches, loops accepted)."""
    on = [{frozenset([a, loop[(i + 1) % len(loop)]]) for i, a in enumerate(loop)} for loop in loops]
    per_loop = {}  # the literals -> each loop's (signed cell literals, edge assumptions)
    mismatches = []
    accepted = 0
    for text in boards:
        inst = parse(text)
        circles = [rc for rc in grid_cells(n, n) if inst.at(*rc) not in (None, ".")]
        want = [verify(inst, LoopSolution(set(loop), loop)) is None for loop in loops]
        accepted += sum(want)
        for lazy in (False, True):
            b = CnfBuilder()
            build(b, inst, lazy=lazy)
            cells, edges = loop_literals(b)
            key = (tuple(cells.items()), tuple(edges.items()))
            if key not in per_loop:
                per_loop[key] = [
                    (
                        {rc: lit if rc in loop else -lit for rc, lit in cells.items()},
                        [-var for var, e in edges.items() if e not in on_loop],
                    )
                    for loop, on_loop in zip(loops, on)
                ]
            probe = internal_solve_fn()(b.clauses, b.var_count)
            for loop, ok, (signed, off) in zip(loops, want, per_loop[key]):
                # the circles first, so that a loop that misses one fails at once
                assumptions = [signed[rc] for rc in circles] + list(signed.values()) + off
                if probe(assumptions).is_sat != ok:
                    mismatches.append((text, lazy, loop))
    return mismatches, accepted


def test_criterion_9_shingoki_clue_oracle(capsys):
    n = 4
    start = time.monotonic()
    loops = grid_loops(n)
    boards = shingoki_oracle_boards(n, loops, random.Random(20090415))
    mismatches, accepted = loop_oracle(
        n, loops, boards, parse_shingoki, build_shingoki, verify_shingoki
    )
    elapsed = time.monotonic() - start
    cycles = sum(len(loop) > 2 for loop in loops)
    ok = not mismatches and accepted >= 40 and cycles == 213
    report(
        capsys,
        f"ACCEPTANCE 9: {'PASS' if ok else 'FAIL'} — Shingoki clues vs verify_shingoki "
        f"on {len(boards)} 4x4 boards x {len(loops)} loops (lone cells, 2-cycles and all "
        f"{cycles} simple cycles), eager and lazy model: "
        f"{len(mismatches)} mismatches, {accepted} loops accepted ({elapsed:.1f}s)",
    )
    assert ok, mismatches[:3]


def masyu_oracle_boards(n, loops, rng):
    """Boards of one circle at each cell, both colours; 120 of 2-4 circles
    read off a random simple cycle (white where it runs straight, black where
    it turns), which it may or may not meet; and 60 of 2-4 random circles."""
    boards = [{cell: color} for cell in grid_cells(n, n) for color in "wb"]
    cycles = [loop for loop in loops if len(loop) > 2]
    for _ in range(120):
        cycle = rng.choice(cycles)
        board = {}
        for i in rng.sample(range(len(cycle)), rng.randint(2, min(4, len(cycle)))):
            (r0, c0), (r1, c1) = cycle[i - 1], cycle[(i + 1) % len(cycle)]
            board[cycle[i]] = "w" if r0 == r1 or c0 == c1 else "b"
        boards.append(board)
    for _ in range(60):
        cells = rng.sample(grid_cells(n, n), rng.randint(2, 4))
        boards.append({cell: rng.choice("wb") for cell in cells})
    def row(board, r):
        return "".join(board.get((r, c), ".") for c in range(1, n + 1))

    return [f"{n}\n" + "".join(row(board, r) + "\n" for r in range(1, n + 1)) for board in boards]


def test_criterion_10_masyu_clue_oracle(capsys):
    start = time.monotonic()
    loops = grid_loops(4)
    boards = masyu_oracle_boards(4, loops, random.Random(20091231))
    mismatches, accepted = loop_oracle(4, loops, boards, parse_masyu, build_masyu, verify_masyu)
    cycles = sum(len(loop) > 2 for loop in loops)
    # on 4x4 no white circle has two neighbours that could run straight on,
    # which needs five cells in a row: one at the centre of the 5x5 grid
    wide = grid_loops(5)
    wide_boards = ["5\n.....\n.....\n..w..\n.....\n.....\n"]
    wide_mismatches, wide_accepted = loop_oracle(
        5, wide, wide_boards, parse_masyu, build_masyu, verify_masyu
    )
    elapsed = time.monotonic() - start
    ok = (
        not mismatches + wide_mismatches
        and len(boards) >= 200
        and accepted >= 200
        and cycles == 213
        and wide_accepted >= 100
        and len(wide) == 9414
    )
    report(
        capsys,
        f"ACCEPTANCE 10: {'PASS' if ok else 'FAIL'} — Masyu circles vs verify_masyu "
        f"on {len(boards)} 4x4 boards x {len(loops)} loops (lone cells, 2-cycles and all "
        f"{cycles} simple cycles) and a white centre on 5x5 x {len(wide)} loops, "
        f"eager and lazy model: {len(mismatches) + len(wide_mismatches)} mismatches, "
        f"{accepted} + {wide_accepted} loops accepted ({elapsed:.1f}s)",
    )
    assert ok, (mismatches + wide_mismatches)[:3]
