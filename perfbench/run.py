#!/usr/bin/env python3
"""gridloop's benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload puzzle-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload's puzzles are generated from
the seed (see workloads.py), written under perfbench/work/ and then fed one
after another, from this single process and thread, to the CLI entry point
``gridloop.cli.main``: ``solve ... --output json`` per puzzle, or ``encode``
followed by ``verify`` of the known solution on encode-large.  Every answer
is checked (check.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the same figures with their sample counts for people.

--trace 0 reports the end-to-end metrics, with times at reference speed
(see reference_probe); the human-readable lines give the plain wall times
too.  --trace 1 runs each puzzle once untraced and once with spans recorded
around gridloop's public functions (spans.py), and reports the per-layer
metrics in plain wall time; the spans are written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()

# Setting up is repeated in fresh processes this many times; setup_s is the median.
SETUP_REPEATS = 5
# latency_tail_s needs this many samples beyond its percentile.  A run keeps
# going past --seconds until it has them, but never past OVERRUN * --seconds.
TAIL_BEYOND = 10
OVERRUN = 3.0
# One puzzle taking longer than this is stopped and counted as failed.
PUZZLE_LIMIT_S = 60
# The reference probe's median time on the host the benchmark was defined on
# (2 vCPUs of a shared Intel Xeon).  End-to-end times are rescaled by
# REFERENCE_S / probe time, i.e. to what they would read when the host runs
# the probe at this speed.
REFERENCE_S = 0.0042
REFERENCE_LOOPS = 20000


def _reference_kernel() -> float:
    t = time.perf_counter()
    table, acc = {}, 0
    for i in range(REFERENCE_LOOPS):
        table[i & 255] = acc
        acc = (acc + i * i) % 1000003
    return time.perf_counter() - t


def reference_probe() -> float:
    """Wall seconds of a fixed pure-Python loop, the faster of two: how fast
    the host runs Python code at this moment.

    A shared host's speed swings by up to 1.7x for seconds to minutes at a
    time, with the other tenants' load, which moves every wall time alike.  Dividing a puzzle's wall time by the probes taken right before
    and after it cancels that swing; gridloop never runs this code, so a
    change to gridloop moves the rescaled times exactly as it moves the
    wall times.
    """
    return min(_reference_kernel(), _reference_kernel())


def at_reference_speed(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S / ((before + after) / 2)


def import_gridloop():
    """Import gridloop from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gridloop", "cli.py")):
        sys.exit(f"perfbench: no gridloop sources under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    os.environ.pop("GRIDLOOP_SOLVER", None)  # always the internal solver
    import gridloop.cli

    return gridloop.cli


def tail_percentile(samples: list[float], p: float) -> tuple[float, int] | None:
    """(value, samples beyond it) of the nearest-rank ``p``-th percentile,
    or None while fewer than TAIL_BEYOND samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    return (ordered[rank - 1], beyond) if beyond >= TAIL_BEYOND else None


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as e:  # argparse exits rather than returning
            rc = e.code if isinstance(e.code, int) else 1
    return rc, out.getvalue()


class Runner:
    """Runs one workload's puzzles through the CLI and checks each answer.

    With a tracer, the CLI calls run with gridloop's public functions
    wrapped in spans, and each call gets a ``cli.main`` span of its own.
    """

    def __init__(self, cli, workload: str, paths: dict[str, dict[str, str]], workdir: str, tracer=None):
        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.workdir = workdir
        self.tracer = tracer

    def _main(self, argv: list[str]) -> tuple[int, str]:
        if self.tracer is None:
            return call_cli(self.cli, argv)
        with self.tracer.span("cli.main", command=argv[0]) as span:
            result = call_cli(self.cli, argv)
        if argv[0] == "encode":
            span.attrs["emit_bytes"] = sum(os.path.getsize(argv[i]) for i in (3, 5))
        return result

    def _op(self, inst) -> tuple[float, list[tuple[int, str]]]:
        """The timed operation: wall seconds and (exit code, stdout) per call."""
        files = self.paths[inst.name]
        if self.workload != "encode-large":
            argvs = [["solve", files["instance"], "--output", "json"]]
        else:
            cnf = os.path.join(self.workdir, "out.cnf")
            argvs = [["encode", files["instance"], "-o", cnf, "--map", cnf + ".map"],
                     ["verify", files["instance"], files["witness"]]]
        with self.tracer.patched() if self.tracer else contextlib.nullcontext():
            t = time.perf_counter()
            outputs = [self._main(argv) for argv in argvs]
            return time.perf_counter() - t, outputs

    def run(self, inst) -> tuple[float, str | None]:
        """One puzzle: (wall seconds of its CLI calls, failure reason or None)."""
        import check

        files = self.paths[inst.name]
        gc.collect()
        signal.alarm(PUZZLE_LIMIT_S)
        try:
            elapsed, outputs = self._op(inst)
            if self.workload != "encode-large":
                return elapsed, check.check_solve(inst, *outputs[0])
            mutant = call_cli(self.cli, ["verify", files["instance"], files["mutant"]])
            cnf = os.path.join(self.workdir, "out.cnf")
            return elapsed, check.check_encode_verify(*outputs, cnf, mutant)
        except Exception as e:  # a crash or a timeout fails the puzzle; the run goes on
            return math.nan, f"{type(e).__name__}: {e}"[:160]
        finally:
            signal.alarm(0)


def _on_alarm(signum, frame):
    raise TimeoutError(f"puzzle took more than {PUZZLE_LIMIT_S} s")


def setup(workload: str, seed: int, workdir: str):
    """Everything before the first timed puzzle: import gridloop, generate
    the inputs, write them out and warm up on a few small puzzles."""
    cli = import_gridloop()
    pool = workloads.make_pool(workload, seed, ROOT)
    paths = workloads.write_inputs(pool, workdir, solutions=workload == "encode-large")
    runner = Runner(cli, workload, paths, workdir)
    for inst in pool.warmup:
        _, reason = runner.run(inst)
        if reason:
            sys.exit(f"perfbench: warm-up puzzle {inst.name} failed: {reason}")
    return cli, pool, paths


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_REPEATS fresh processes that only set up, and
    the same at reference speed."""
    walls, scaled = [], []
    probe = reference_probe()
    for _ in range(SETUP_REPEATS):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                "--seed", str(seed), "--setup-only"]
        t = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        walls.append(time.perf_counter() - t)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up failed: {done.stderr.decode()[-300:]}")
        after = reference_probe()
        scaled.append(at_reference_speed(walls[-1], probe, after))
        probe = after
    return walls, scaled


@dataclass
class Measured:
    attempted: int
    latencies: list[float]  # of the puzzles answered correctly, at reference speed
    walls: list[float]  # the same puzzles' plain wall times
    failures: list[str]
    pairs: list[tuple[float, float]]  # traced run: (plain, traced) seconds
    wall: float


def loop(plain: Runner, traced: Runner | None, pool, seconds: float) -> Measured:
    """Closed loop over the pool until ``seconds`` pass and, untraced, the
    first round is done and the tail percentile has TAIL_BEYOND samples
    beyond it, or, traced, the first ``pool.traced`` puzzles are done;
    never longer than OVERRUN * seconds.  Traced, each puzzle runs once
    plain and once with spans.  Untraced, a reference probe runs between
    puzzles, outside their timing."""
    latencies, walls, failures, pairs = [], [], [], []
    probe = None if traced else reference_probe()
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter() - start
        if traced:
            enough = i >= pool.traced
        else:
            enough = i >= pool.first_round and tail_percentile(latencies, pool.tail_p)
        if now >= seconds and (enough or now >= OVERRUN * seconds):
            break
        inst = pool.items[i % len(pool.items)]
        if not traced:
            elapsed, reason = plain.run(inst)
            after = reference_probe()
            wall, elapsed = elapsed, at_reference_speed(elapsed, probe, after)
            probe = after
        else:
            # Alternate which run goes first: the second one finds memory
            # the first freed, which would skew trace.overhead_ratio.
            traced.tracer.puzzle, traced.tracer.kind = i, inst.kind
            if i % 2:
                elapsed_traced, reason_traced = traced.run(inst)
                elapsed, reason = plain.run(inst)
            else:
                elapsed, reason = plain.run(inst)
                elapsed_traced, reason_traced = traced.run(inst)
            pairs.append((elapsed, elapsed_traced))
            wall, reason = elapsed, reason or reason_traced
        if reason:
            failures.append(f"{inst.name}: {reason}")
        else:
            latencies.append(elapsed)
            walls.append(wall)
        i += 1
    return Measured(i, latencies, walls, failures, pairs, time.perf_counter() - start)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)
    # One CPU for the whole run, set-up processes included: the CPUs of a
    # shared host run at different speeds, so a run that moved between them
    # would time the scheduler, and the reference probe would not time the
    # CPU the puzzle ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        units = declared_units(args.trace)
        setup_times = ([], []) if args.trace else measure_setup(args.workload, args.seed)
        cli, pool, paths = setup(args.workload, args.seed, workdir)
        plain = Runner(cli, args.workload, paths, workdir)
        traced = Runner(cli, args.workload, paths, workdir, spans.Tracer()) if args.trace else None
        m = loop(plain, traced, pool, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in m.failures[:20]:
        print(f"FAILED {line}")
    print(f"workload {args.workload} seed {args.seed}: closed loop, 1 client, "
          f"{m.attempted} puzzles in {m.wall:.1f} s")
    if args.trace:
        metrics = trace_metrics(traced.tracer, pool, m, args.workload, args.seed)
    else:
        metrics = e2e_metrics(m, pool.tail_p, setup_times)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": not m.failures,
        "attempted": m.attempted,
        "failed": len(m.failures),
        # NaN (no correct puzzle at all) is not JSON; such a run is not correct anyway
        "metrics": {k: {"value": v if math.isfinite(v) else 0.0, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def timings(latencies: list[float], tail_p: float) -> tuple[float, float, tuple[float, int]]:
    """(puzzles per second, median, (tail percentile, samples beyond))."""
    timed = sum(latencies)
    p50 = statistics.median(latencies) if latencies else math.nan
    # Too few samples only when the run hit OVERRUN: report the slowest.
    tail = tail_percentile(latencies, tail_p) or (max(latencies, default=math.nan), 0)
    return (len(latencies) / timed if timed else 0.0), p50, tail


def e2e_metrics(m: Measured, tail_p: float, setup_times: tuple[list[float], list[float]]) -> dict[str, float]:
    n = len(m.latencies)
    rate, p50, tail = timings(m.latencies, tail_p)
    wall_rate, wall_p50, wall_tail = timings(m.walls, tail_p)
    setup_walls, setup_scaled = setup_times
    metrics = {
        "puzzles_per_s": rate,
        "latency_p50_s": p50,
        "latency_tail_s": tail[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_scaled),
    }
    failed = len(m.failures)
    print("  (times at reference speed; plain wall time in brackets)")
    print(f"  puzzles_per_s   {rate:.4f} 1/s [{wall_rate:.4f}]  ({n} correct in {sum(m.walls):.2f} s of CLI calls)")
    print(f"  latency_p50_s   {p50:.4f} s [{wall_p50:.4f}]  (n={n})")
    print(f"  latency_tail_s  {tail[0]:.4f} s [{wall_tail[0]:.4f}]  (p{tail_p:g}, n={n}, {tail[1]} samples beyond)")
    print(f"  failed_ratio    {failed / m.attempted:.4f}  ({failed} of {m.attempted} attempted)")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB")
    print(f"  setup_s         {metrics['setup_s']:.4f} s [{statistics.median(setup_walls):.4f}]  "
          f"(median of {len(setup_scaled)}: " + ", ".join(f"{t:.3f}" for t in setup_scaled) + ")")
    return metrics


def trace_metrics(tracer, pool, m: Measured, workload: str, seed: int) -> dict[str, float]:
    counted = min(m.attempted, pool.traced)
    metrics = spans.layer_metrics([s for s in tracer.spans if s.puzzle < counted])
    done = [(p, t) for p, t in m.pairs if not (math.isnan(p) or math.isnan(t))]
    plain = sum(p for p, _ in done)
    metrics["trace.overhead_ratio"] = sum(t for _, t in done) / plain if plain else math.nan
    metrics["trace.puzzles"] = counted
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{workload}-{seed}.jsonl")
    tracer.dump(path)
    for k, v in metrics.items():
        print(f"  {k:28s} {v}")
    print(f"  spans written to {os.path.relpath(path, ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
