"""The benchmark's workloads: which puzzles each one generates from a seed.

Every workload is a pool of rounds.  A round holds one puzzle of each
stratum (kind and board size) in a fixed order, so that each run sees the
same mix of kinds and sizes and only the boards themselves change with the
seed.  That keeps run-to-run spread down without choosing boards by how
long gridloop takes on them.  encode-large starts with the bundled
masyu_30x30, whose known solution is the serpentine loop it was drawn on.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

import gen

# (kind, board size, clue density, fill): the density is the share of the
# qualifying loop cells (Masyu), loop cells (Shingoki) or white cells (Tapa)
# that carry a clue; the fill is the share of the board the loop (Masyu,
# Shingoki) or the black region (Tapa) covers.  One density per stratum
# keeps each stratum's solve times close together.  Fully clued Masyu on a
# 0.6 loop had boards at nine times the median (cv 1.1); on a 0.75 loop its
# spread is half that.
# Left out, like masyu_30x30, until the solver can take them: Masyu and
# Shingoki from 7x7 up.  With the internal solver some of those take 5-17 s
# (even a fully clued 7x7 Masyu), so one board would decide a 30 s run.
# Tapa 9x9 is left out too: at 0.35-0.4 s, two to three times every other
# stratum, it put the median between two clusters of times, where it moved
# by 12-25% from seed to seed.
PUZZLE_MIX = (
    ("masyu", 6, 1.0, 0.75),
    ("tapa", 7, 0.45, 0.5),
    ("shingoki", 6, 0.8, 0.6),
    ("tapa", 8, 0.7, 0.5),
    ("shingoki", 6, 1.0, 0.6),
)
# Road Runner boards: (columns, rows, share of off-loop cells made hills,
# share of the board the safe loop covers).  Every hill carries its laser
# count: this workload is about many short probes, and with half the hills
# clued, or fewer hills, some boards took 10-40 times the median, which
# moved whole runs.  The heavy solver tail is puzzle-mix's to show.  6x6
# boards took three times as long as these, so the tail percentile fell
# inside their spread and moved by 17-25% from seed to seed.
ROADRUNNER = ((5, 5, 0.55, 0.55), (6, 5, 0.55, 0.5), (5, 6, 0.55, 0.6))
# The encoder workload's boards are all this size, so that encoding time
# depends on the kind and clues only; a round is one Masyu, one Shingoki
# and one Tapa.  A 30x30 takes 5 s to encode, too long for a sample.
ENCODE_SIZE = 20
BUNDLED = os.path.join("instances", "masyu_30x30.masyu")

WORKLOADS = ("puzzle-mix", "roadrunner-opt", "encode-large")


@dataclass
class Pool:
    items: list[gen.Instance]
    first_round: int  # every run answers at least this many puzzles
    warmup: list[gen.Instance]
    # latency_tail_s percentile, fixed so that later commits are compared at
    # the same one; a 30 s run leaves at least ten samples beyond it at the
    # commit that defined the benchmark.
    tail_p: float
    # The traced run's per-layer figures cover its first ``traced`` puzzles,
    # the same ones on every commit for a seed (about 30 s when defined).
    traced: int


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def _loop_puzzle(kind: str, name: str, n: int, rng: random.Random, density: float,
                 fill: float | None = None) -> gen.Instance:
    make = {"masyu": gen.masyu, "shingoki": gen.shingoki, "tapa": gen.tapa}[kind]
    return make(name, n, rng, density) if fill is None else make(name, n, rng, density, fill)


def _roadrunner(name: str, cols: int, rows: int, hills: float, fill: float, rng: random.Random) -> gen.Instance:
    return gen.roadrunner(name, rows, cols, rng, hills=hills, clues=1.0, fill=fill)


def make_pool(workload: str, seed: int, root: str, rounds: int | None = None) -> Pool:
    """Generate the workload's puzzles for ``seed``; ``root`` is the checkout
    that holds the bundled instances.  The warm-up puzzles are the same for
    every seed, so that set-up does the same work on every run."""
    rng = _rng(workload, seed, "pool")
    warm = _rng(workload, 0, "warmup")
    items: list[gen.Instance] = []
    if workload == "puzzle-mix":
        for r in range(rounds or 60):
            for j, (kind, n, density, fill) in enumerate(PUZZLE_MIX):
                items.append(_loop_puzzle(kind, f"r{r}-s{j}-{kind}{n}", n, rng, density, fill))
        warmup = [_loop_puzzle(k, f"warm-{k}", 5, warm, 0.5) for k in ("masyu", "shingoki", "tapa")]
        return Pool(items, len(PUZZLE_MIX), warmup, tail_p=90.0, traced=10 * len(PUZZLE_MIX))
    if workload == "roadrunner-opt":
        for r in range(rounds or 150):
            for cols, rows, hills, fill in ROADRUNNER:
                items.append(_roadrunner(f"r{r}-rr{cols}x{rows}", cols, rows, hills, fill, rng))
        warmup = [_roadrunner("warm-rr", 4, 4, 0.4, 0.5, warm)]
        return Pool(items, len(ROADRUNNER), warmup, tail_p=90.0, traced=20 * len(ROADRUNNER))
    if workload == "encode-large":
        with open(os.path.join(root, BUNDLED)) as f:
            text = f.read()
        n = int(text.split()[0])
        items.append(gen.Instance("bundled-masyu30", "masyu", text, gen.loop_witness("masyu", n, gen.serpentine(n))))
        for r in range(rounds or 20):
            for kind in ("masyu", "shingoki", "tapa"):
                items.append(_loop_puzzle(kind, f"r{r}-{kind}{ENCODE_SIZE}", ENCODE_SIZE, rng, 0.4))
        warmup = [_loop_puzzle(k, f"warm-{k}", 8, warm, 0.5) for k in ("masyu", "shingoki", "tapa")]
        return Pool(items, 4, warmup, tail_p=60.0, traced=7)
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(pool: Pool, directory: str, solutions: bool) -> dict[str, dict[str, str]]:
    """Write every instance and, with ``solutions``, its witness and a
    mutated witness; returns the paths per instance name."""
    os.makedirs(directory, exist_ok=True)
    paths: dict[str, dict[str, str]] = {}
    for inst in pool.warmup + pool.items:
        base = os.path.join(directory, inst.name)
        files = paths[inst.name] = {"instance": base + inst.extension}
        with open(files["instance"], "w") as f:
            f.write(inst.text)
        if solutions:
            files.update(witness=base + ".sol.json", mutant=base + ".bad.json")
            with open(files["witness"], "w") as f:
                json.dump(inst.witness, f)
            with open(files["mutant"], "w") as f:
                json.dump(mutant(inst), f)
    return paths


def mutant(inst: gen.Instance) -> dict:
    """A copy of the witness that breaks one cell, so every verifier must
    reject it: a loop loses one cell, whose two neighbours are then not
    adjacent; a Tapa colouring turns its first clue cell black; a Road
    Runner road cell becomes a laser, which its road neighbours see."""
    out = json.loads(json.dumps(inst.witness))
    if "cycle" in out:
        del out["cycle"][len(out["cycle"]) // 2]
        out["k"] = len(out["cycle"])
    elif inst.kind == "tapa":
        rows = inst.text.splitlines()[1:]
        r, c = next((r, c) for r, row in enumerate(rows) for c, tok in enumerate(row.split()) if tok != ".")
        out["black"][r][c] = 1
    else:  # road runner: a road cell turned into a laser
        y, x = next((y, x) for y, row in enumerate(out["road"]) for x, bit in enumerate(row) if bit)
        out["road"][y][x], out["laser"][y][x] = 0, 1
        out["k"] -= 1
    return out
