"""Command line front end: solve, encode, verify and bench over the four
puzzle instance formats.

Exit codes: 0 verified solution / accept, 1 rejected solution, 2 input
error, 10 unknown (budget/timeout), 20 proven infeasible.
"""
from __future__ import annotations

import argparse
import csv
import functools
import gc
import itertools
import json
import math
import os
import shlex
import sys
import time
from dataclasses import dataclass

from .cnf import CnfBuilder
from .optimize import maximize
from .solver import DEFAULT_SOLVER_ENV, open_external, open_internal
from .puzzles import (
    LoopSolution,
    RoadrunnerSolution,
    ColoringSolution,
    build_masyu,
    build_roadrunner,
    build_shingoki,
    build_tapa,
    parse_masyu,
    parse_roadrunner,
    parse_shingoki,
    parse_tapa,
    verify_masyu,
    verify_roadrunner,
    verify_shingoki,
    verify_tapa,
)

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 10
EXIT_INFEASIBLE = 20

KINDS = ("roadrunner", "masyu", "shingoki", "tapa")
_EXTENSIONS = {
    ".roadrunner": "roadrunner",
    ".rr": "roadrunner",
    ".masyu": "masyu",
    ".shingoki": "shingoki",
    ".tapa": "tapa",
}


@dataclass
class RunConfig:
    kind: str
    solver_cmd: list[str] | None  # None = internal solver
    timeout: float | None  # seconds per solver probe; None where nothing is solved


def infer_kind(path: str, flag: str | None) -> str:
    if flag:
        if flag not in KINDS:
            raise ValueError(f"unknown puzzle kind {flag!r}")
        return flag
    ext = os.path.splitext(path)[1].lower()
    if ext in _EXTENSIONS:
        return _EXTENSIONS[ext]
    raise ValueError(f"cannot infer puzzle kind from {path!r}; use --puzzle")


_PARSERS = {
    "roadrunner": parse_roadrunner,
    "masyu": parse_masyu,
    "shingoki": parse_shingoki,
    "tapa": parse_tapa,
}

# Each build_*(builder, inst, lazy=False) writes its formula into a fresh
# builder and returns (decode, objective, propagator): decode(assignment)
# gives the solution, objective is the counter to maximize or None, and
# propagator is None for a complete formula.  ``lazy`` asks for a model that
# the internal solver completes with the propagator; a builder without one
# returns the complete formula.
_BUILDERS = {
    "roadrunner": build_roadrunner,
    "masyu": build_masyu,
    "shingoki": build_shingoki,
    "tapa": build_tapa,
}

_VERIFIERS = {
    "roadrunner": verify_roadrunner,
    "masyu": verify_masyu,
    "shingoki": verify_shingoki,
    "tapa": verify_tapa,
}


def _load(args, path: str) -> tuple[RunConfig, object]:
    """The run configuration from the parsed flags, and the parsed instance.
    Raises ValueError or OSError on bad input."""
    kind = infer_kind(path, args.puzzle)
    solver = getattr(args, "solver", "")  # encode and verify solve nothing
    if solver is None:  # no --solver: the environment's, read on every run
        solver = os.environ.get(DEFAULT_SOLVER_ENV)
    timeout = getattr(args, "timeout", None)
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise ValueError("time budget must be a finite number of seconds above 0")
    config = RunConfig(kind, shlex.split(solver) if solver else None, timeout)
    with open(path) as f:
        return config, _PARSERS[kind](f.read())


def _input_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


@dataclass
class RunResult:
    status: str  # "verified" | "rejected" | "infeasible" | "unknown"
    vars: int
    clauses: int
    solution: object = None
    reason: str | None = None
    optimum: int | None = None  # objective value, for kinds that maximize


def run(config: RunConfig, inst) -> RunResult:
    """Encode, solve, decode and verify one instance through one probe.  The
    internal solver takes a lazy model where the kind's builder has one, an
    external solver the complete formula.  A kind with an objective is
    maximized (at least 1); the others take one probe call."""
    builder = CnfBuilder()
    decode, objective, propagator = _BUILDERS[config.kind](
        builder, inst, lazy=config.solver_cmd is None
    )
    clauses, nvars = builder.clauses, builder.var_count
    size = (nvars, len(clauses))
    if config.solver_cmd:
        probe = open_external(config.solver_cmd, clauses, nvars, config.timeout)
    else:  # every call searches with the propagator, maximize's too
        probe = open_internal(clauses, nvars, propagator, config.timeout)
    optimum = None
    if objective is None:
        outcome = probe()
        status, model, reason = outcome.status, outcome.model, outcome.reason
    else:
        result = maximize(probe, objective, lo=1)
        status = {"optimal": "sat", "infeasible": "unsat"}.get(result.status, "unknown")
        model, reason, optimum = result.best_model, result.reason, result.best_value
    if status == "unsat":
        return RunResult("infeasible", *size)
    if status != "sat":
        return RunResult("unknown", *size, reason=reason)
    try:
        sol = decode(model.assignment)
    except RuntimeError as e:
        return RunResult("rejected", *size, reason=str(e))
    reason = _VERIFIERS[config.kind](inst, sol)
    return RunResult("rejected" if reason else "verified", *size, sol, reason, optimum)


# -- rendering ----------------------------------------------------------

_LOOP_CHARS = {
    frozenset({(-1, 0), (1, 0)}): "|",
    frozenset({(0, -1), (0, 1)}): "-",
    frozenset({(-1, 0), (0, 1)}): "L",
    frozenset({(-1, 0), (0, -1)}): "J",
    frozenset({(1, 0), (0, 1)}): "r",
    frozenset({(1, 0), (0, -1)}): "7",
}


def render_loop(inst, sol: LoopSolution) -> str:
    chars = [["."] * inst.n for _ in range(inst.n)]
    n = len(sol.cycle)
    for i, (r, c) in enumerate(sol.cycle):
        if n == 1:
            chars[r - 1][c - 1] = "O"
            continue
        pr, pc = sol.cycle[(i - 1) % n]
        nr, nc = sol.cycle[(i + 1) % n]
        dirs = frozenset({(pr - r, pc - c), (nr - r, nc - c)})
        chars[r - 1][c - 1] = _LOOP_CHARS.get(dirs, "#")
    return "\n".join("".join(row) for row in chars)


def render_roadrunner(inst, sol: RoadrunnerSolution) -> str:
    lines = [f"safecircuitlen({sol.k})."]
    clue_at = {(x, y): num for x, y, num in inst.clues}
    for y in range(1, inst.max_y + 1):
        row = []
        for x in range(1, inst.max_x + 1):
            if (x, y) in clue_at:
                row.append(str(clue_at[(x, y)]))
            elif inst.is_hill(x, y):
                row.append("#")
            elif sol.laser_at(x, y):
                row.append("L")
            elif sol.road_at(x, y):
                row.append("o")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines)


def render_tapa(inst, sol: ColoringSolution) -> str:
    lines = []
    for r in range(1, inst.n + 1):
        row = []
        for c in range(1, inst.n + 1):
            clue = inst.at(r, c)
            if clue is not None:
                row.append("".join(str(d) for d in clue))
            elif sol.is_black(r, c):
                row.append("#")
            else:
                row.append(".")
        lines.append(" ".join(f"{s:>4}" for s in row))
    return "\n".join(lines)


_RENDER = {
    "roadrunner": render_roadrunner,
    "masyu": render_loop,
    "shingoki": render_loop,
    "tapa": render_tapa,
}


def solution_json(kind: str, inst, sol) -> dict:
    if kind == "roadrunner":
        return {
            "kind": "roadrunner",
            "maxX": inst.max_x,
            "maxY": inst.max_y,
            "laser": sol.laser,
            "road": sol.road,
            "k": sol.k,
            "cycle": [list(p) for p in sol.cycle],
        }
    if kind == "tapa":
        return {"kind": "tapa", "n": inst.n, "black": sol.black}
    return {
        "kind": kind,
        "n": inst.n,
        "cycle": [list(c) for c in sol.cycle],
        "k": sol.k,
    }


def solution_from_json(kind: str, inst, data: dict):
    """The solution a ``solve --output json`` file holds.  Its numbers must
    be JSON integers, else ValueError: ``int()`` reads 1.9, true and "1" as 1.
    A loop's ``"cycle"``, Road Runner's too, is required, else KeyError: the
    order is the certificate, and without it a verifier would search."""
    if kind == "roadrunner":
        laser, road = data["laser"], data["road"]
        k = data.get("k", sum(map(sum, road)))
        cycle = [(x, y) for x, y in data["cycle"]]
        rows = [*laser, *road, [k], *cycle]
        sol = RoadrunnerSolution(laser, road, k, cycle)
    elif kind == "tapa":
        rows = data["black"]
        sol = ColoringSolution(rows)
    else:
        rows = cycle = [(r, c) for r, c in data["cycle"]]
        sol = LoopSolution(set(cycle), cycle)
    if not set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        raise ValueError("a number that is not an integer")
    return sol


# -- subcommands --------------------------------------------------------

def cmd_solve(args) -> int:
    try:
        config, inst = _load(args, args.instance)
    except (ValueError, OSError) as e:
        return _input_error(e)
    result = run(config, inst)
    if result.status == "infeasible":
        print("INFEASIBLE")
        return EXIT_INFEASIBLE
    if result.status == "unknown":
        print(f"UNKNOWN: {result.reason}")
        return EXIT_UNKNOWN
    if result.status == "rejected":
        print(f"error: decoded solution rejected: {result.reason}", file=sys.stderr)
        return EXIT_REJECT
    if args.output == "json":
        print(json.dumps(solution_json(config.kind, inst, result.solution)))
    else:
        print(_RENDER[config.kind](inst, result.solution))
        print("VERIFIED")
    return EXIT_OK


def cmd_encode(args) -> int:
    try:
        config, inst = _load(args, args.instance)
    except (ValueError, OSError) as e:
        return _input_error(e)
    builder = CnfBuilder()
    _BUILDERS[config.kind](builder, inst)
    out = args.out or args.instance + ".cnf"
    mapfile = args.map or out + ".map"
    if os.path.realpath(out) == os.path.realpath(mapfile):
        return _input_error(f"the CNF and the map cannot both go to {out}")
    opened = []  # both files are open before either is written
    try:
        with open(out, "w") as cnf:
            opened.append(out)
            with open(mapfile, "w") as varmap:
                opened.append(mapfile)
                builder.emit_dimacs(cnf)
                builder.emit_varmap(varmap)
    except OSError as e:
        for path in opened:  # a failed encode leaves no file behind
            os.unlink(path)
        return _input_error(e)
    print(f"wrote {out} ({builder.var_count} vars, {len(builder.clauses)} clauses)")
    print(f"wrote {mapfile}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        config, inst = _load(args, args.instance)
    except (ValueError, OSError) as e:
        return _input_error(e)
    try:
        with open(args.solution) as f:
            data = json.load(f)
        sol = solution_from_json(config.kind, inst, data)
    except (OSError, ValueError, KeyError, TypeError) as e:
        return _input_error(f"bad solution file: {e}")
    try:
        reason = _VERIFIERS[config.kind](inst, sol)
    except (ValueError, IndexError, KeyError, TypeError):
        print("REJECT malformed-solution")
        return EXIT_INPUT
    if reason:
        print(f"REJECT {reason}")
        # a wrong-size grid or a bad cell is a malformed file, not a near-miss
        return EXIT_INPUT if reason in ("wrong-grid-size", "bad-cell-value") else EXIT_REJECT
    print("ACCEPT")
    return EXIT_OK


def _bench_one(args, path: str):
    start = time.monotonic()
    name = os.path.basename(path)
    try:
        config, inst = _load(args, path)
        r = run(config, inst)
        if r.status == "verified" and r.optimum is not None:
            result = f"optimal k={r.optimum}"
        else:
            result = r.status
        return (name, r.vars, r.clauses, time.monotonic() - start, result)
    except Exception as e:  # per-instance failures recorded, run continues
        return (name, 0, 0, time.monotonic() - start, f"error: {e}")


def cmd_bench(args) -> int:
    try:
        names = os.listdir(args.directory)
    except OSError as e:
        return _input_error(e)
    paths = sorted(
        os.path.join(args.directory, name)
        for name in names
        if os.path.splitext(name)[1].lower() in _EXTENSIONS
    )
    if not paths:
        return _input_error(f"no instances in {args.directory}")
    rows = [_bench_one(args, p) for p in paths]
    writer = csv.writer(sys.stdout)
    writer.writerow(["instance", "vars", "clauses", "seconds", "result"])
    for name, nvars, nclauses, seconds, result in rows:
        writer.writerow([name, nvars, nclauses, f"{seconds:.3f}", result])
    writer.writerow(
        [
            "TOTAL",
            sum(r[1] for r in rows),
            sum(r[2] for r in rows),
            f"{sum(r[3] for r in rows):.3f}",
            "",
        ]
    )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no default that can change
    between calls, so ``main`` builds it once."""
    parser = argparse.ArgumentParser(
        prog="gridloop", description="SAT-based grid puzzle solver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    kind = argparse.ArgumentParser(add_help=False)
    kind.add_argument("--puzzle", choices=KINDS, help="puzzle kind (else inferred from extension)")
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument(
        "--solver",
        help=f"external solver command (default: ${DEFAULT_SOLVER_ENV} or internal)",
    )
    solving.add_argument("--timeout", type=float, default=300.0, help="time budget in seconds per solver probe")

    p = sub.add_parser("solve", parents=[kind, solving], help="solve an instance and verify the solution")
    p.add_argument("instance")
    p.add_argument("--output", choices=("ascii", "json"), default="ascii")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("encode", parents=[kind], help="write DIMACS plus a variable-map sidecar")
    p.add_argument("instance")
    p.add_argument("-o", "--out", help="output CNF path (default: INSTANCE.cnf)")
    p.add_argument("--map", help="variable map path (default: OUT.map)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("verify", parents=[kind], help="check a JSON solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", parents=[kind, solving], help="solve and verify a directory of instances, emit CSV")
    p.add_argument("directory")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  The cyclic garbage
    collector is paused while the command runs: a formula is many small
    lists with no cycles, whose allocation would set off collection passes
    that free nothing.  It is switched back on afterwards if it was on."""
    args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away (`gridloop encode ... | head -0`).  Point the
        # stdout descriptor at devnull so the flush at exit does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_REJECT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
