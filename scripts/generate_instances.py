#!/usr/bin/env python3
"""Generate the bundled instance corpus under instances/.

Loop puzzles are generated backward: first find a random loop (or build a
serpentine loop directly for the large board), then derive circle/clue
placements that the loop satisfies, so every emitted instance is solvable
by construction.  Tapa colorings come from a solved connectivity model.
"""
from __future__ import annotations

import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from gridloop import CnfBuilder, open_internal, solve_internal
from gridloop.cli import _PARSERS, RunConfig, run
from gridloop.graph import make_grid, hcp_grid, scc_grid
from gridloop.optimize import maximize
from gridloop.puzzles import (
    build_roadrunner,
    decode_coloring,
    decode_loop,
    neighbor_ring,
    parse_roadrunner,
)
from gridloop.puzzles.loops import arm_length, loop_neighbors, straight_at
from gridloop.puzzles.tapa import _ring_runs

OUT = os.path.join(os.path.dirname(__file__), "..", "instances")


def random_loop(n: int, rng: random.Random):
    """Decode a loop from a satisfiable hcp_grid with a few cells forced."""
    while True:
        b = CnfBuilder()
        grid = make_grid(b, n, n)
        edges = hcp_grid(b, grid)
        forced_in = rng.sample(
            [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)], k=n
        )
        for r, c in forced_in:
            b.add_clause([grid.cell(r, c)])
        out = solve_internal(b.clauses, b.var_count)
        if out.is_sat:
            sol = decode_loop(out.model.assignment, grid, edges)
            if sol.k >= 2 * n:  # avoid tiny loops
                return sol


def serpentine_loop(n: int):
    """Hamiltonian cycle on an n x n grid (n even): row 1 rightward, rows
    2..n snaking through columns 2..n, column 1 back up."""
    from gridloop.puzzles.loops import LoopSolution

    cycle = [(1, c) for c in range(1, n + 1)]
    for r in range(2, n + 1):
        cols = range(n, 1, -1) if r % 2 == 0 else range(2, n + 1)
        cycle.extend((r, c) for c in cols)
    cycle.extend((r, 1) for r in range(n, 1, -1))
    assert len(cycle) == n * n
    return LoopSolution(set(cycle), cycle)


def masyu_from_loop(sol, n: int, rng: random.Random, count: int) -> str:
    neighbors = loop_neighbors(sol)
    whites, blacks = [], []
    for cell in sol.cycle:
        prev, nxt = neighbors[cell]
        if straight_at(prev, cell, nxt):
            for side in (prev, nxt):
                p2, n2 = neighbors[side]
                if not straight_at(p2, side, n2):
                    whites.append(cell)
                    break
        else:
            p2, n2 = neighbors[prev]
            q2, m2 = neighbors[nxt]
            if straight_at(p2, prev, n2) and straight_at(q2, nxt, m2):
                blacks.append(cell)
    rng.shuffle(whites)
    rng.shuffle(blacks)
    marks = {c: "w" for c in whites[: (count + 1) // 2]}
    marks.update({c: "b" for c in blacks[: count // 2]})
    rows = [
        "".join(marks.get((r, c), ".") for c in range(1, n + 1))
        for r in range(1, n + 1)
    ]
    return f"{n}\n" + "\n".join(rows) + "\n"


def shingoki_from_loop(sol, n: int, rng: random.Random, count: int) -> str:
    neighbors = loop_neighbors(sol)
    cands = []
    for cell in sol.cycle:
        prev, nxt = neighbors[cell]
        clue = arm_length(neighbors, cell, prev) + arm_length(neighbors, cell, nxt)
        color = "w" if straight_at(prev, cell, nxt) else "b"
        cands.append((cell, color, clue))
    rng.shuffle(cands)
    marks = {cell: f"{color}{clue}" for cell, color, clue in cands[:count]}
    rows = [
        " ".join(marks.get((r, c), ".") for c in range(1, n + 1))
        for r in range(1, n + 1)
    ]
    return f"{n}\n" + "\n".join(rows) + "\n"


def tapa_instance(n: int, rng: random.Random, clue_count: int) -> str:
    """Clues are added until every cell lies in some clue's neighbor ring,
    which makes the instance rigid under single-cell mutations: flipping any
    cell changes the black count of a constrained ring."""
    while True:
        b = CnfBuilder()
        grid = make_grid(b, n, n)
        scc_grid(b, grid)
        for r in range(1, n):
            for c in range(1, n):
                b.add_clause(
                    [-grid.cell(r, c), -grid.cell(r, c + 1), -grid.cell(r + 1, c), -grid.cell(r + 1, c + 1)]
                )
        cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
        for r, c in rng.sample(cells, k=n):
            b.add_clause([grid.cell(r, c)])
        out = solve_internal(b.clauses, b.var_count)
        if not out.is_sat:
            continue
        sol = decode_coloring(out.model.assignment, grid)
        whites = [(r, c) for r, c in cells if not sol.is_black(r, c)]
        rng.shuffle(whites)
        marks = {}
        covered = set()
        for r, c in whites:
            ring, circular = neighbor_ring(n, r, c)
            pattern = [1 if sol.is_black(*p) else 0 for p in ring]
            runs = _ring_runs(pattern, circular)
            if len(runs) > 4:
                continue
            if len(marks) >= clue_count and covered.issuperset(ring):
                continue  # enough clues and nothing new to pin down
            marks[(r, c)] = "".join(str(x) for x in sorted(runs, reverse=True)) or "0"
            covered.update(ring)
        if len(marks) < 2 or not covered.union(marks) >= set(cells):
            continue
        rows = [
            " ".join(marks.get((r, c), ".") for c in range(1, n + 1))
            for r in range(1, n + 1)
        ]
        return f"{n}\n" + "\n".join(rows) + "\n"


def roadrunner_instance(max_x: int, max_y: int, rng: random.Random, hills: int) -> str:
    while True:
        cells = [(x, y) for x in range(1, max_x + 1) for y in range(1, max_y + 1)]
        hill_cells = set(rng.sample(cells, k=hills))
        rows = [
            "".join("#" if (x, y) in hill_cells else "." for x in range(1, max_x + 1))
            for y in range(1, max_y + 1)
        ]
        text = f"{max_x} {max_y}\n" + "\n".join(rows) + "\n"
        inst = parse_roadrunner(text)
        b = CnfBuilder()
        decode, count, _ = build_roadrunner(b, inst)
        res = maximize(open_internal(b.clauses, b.var_count), count, lo=1)
        if res.status != "optimal":
            continue
        sol = decode(res.best_model.assignment)
        # turn some hills into numbered clues consistent with this solution
        clue_rows = []
        for y in range(1, max_y + 1):
            row = []
            for x in range(1, max_x + 1):
                if (x, y) in hill_cells:
                    if rng.random() < 0.7:
                        num = sum(
                            1
                            for nx, ny in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
                            if inst.in_bounds(nx, ny)
                            and not inst.is_hill(nx, ny)
                            and sol.laser_at(nx, ny)
                        )
                        row.append(str(num))
                    else:
                        row.append("#")
                else:
                    row.append(".")
            clue_rows.append("".join(row))
        return f"{max_x} {max_y}\n" + "\n".join(clue_rows) + "\n"


def check(kind, text):
    """Solve the generated instance through the CLI pipeline (encode, solve
    with the internal solver, decode, verify) and require a verified answer."""
    result = run(RunConfig(kind, f"generated {kind}", None, None), _PARSERS[kind](text))
    if result.status != "verified":
        sys.exit(f"generated {kind} instance is {result.status}: {result.reason}\n{text}")


def main():
    os.makedirs(OUT, exist_ok=True)
    rng = random.Random(20240817)

    for n in (4, 5, 6, 7):
        loop = random_loop(n, rng)
        text = masyu_from_loop(loop, n, rng, count=max(3, n))
        check("masyu", text)
        write(f"masyu_{n}x{n}.masyu", text)

        loop = random_loop(n, rng)
        text = shingoki_from_loop(loop, n, rng, count=max(3, n))
        check("shingoki", text)
        write(f"shingoki_{n}x{n}.shingoki", text)

        text = tapa_instance(n, rng, clue_count=n)
        check("tapa", text)
        write(f"tapa_{n}x{n}.tapa", text)

    for i, (mx, my, hills) in enumerate([(3, 3, 2), (4, 4, 3), (4, 4, 4), (6, 6, 6)]):
        text = roadrunner_instance(mx, my, rng, hills)
        check("roadrunner", text)
        write(f"roadrunner_{mx}x{my}_{i}.roadrunner", text)

    # large satisfiable-by-construction board for the soft performance check
    loop = serpentine_loop(30)
    text = masyu_from_loop(loop, 30, rng, count=90)
    write("masyu_30x30.masyu", text)
    print("done")


def write(name, text):
    path = os.path.join(OUT, name)
    with open(path, "w") as f:
        f.write(text)
    print("wrote", path)


if __name__ == "__main__":
    main()
