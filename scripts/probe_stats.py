#!/usr/bin/env python3
"""Print the internal solver's stats for every probe of a fixed puzzle set.

    python scripts/probe_stats.py CHECKOUT [SEED] [ROUNDS] > stats.jsonl

The puzzles are the first ROUNDS rounds (default 40) of the puzzle-mix and
roadrunner-opt benchmark workloads at SEED (default 300), then every bundled
instance.  Each is solved by ``gridloop.cli.run`` from CHECKOUT's ``src``,
and one JSON line per puzzle gives its name, its result, the size of its
formula (``vars`` and ``clauses``), its ``formula`` fingerprint and the
``stats`` of each solver probe in order.  The fingerprint is a SHA-256 over
the builder's ``var_count``, its clauses in order and its ``names``, taken
when the build returns, before a solver reorders any clause's literals.
Then each bundled instance but ``masyu_30x30`` (which the internal solver
does not finish without a propagator) is solved the same way through its
eager formula, the one ``encode`` and ``--solver`` take, with no
propagator: its line is named ``eager/<instance>``, and Road Runner's probes
are ``maximize``'s.  Last, the first 31 encode-large items at SEED are
encoded in this one process, in workload order, as ``gridloop encode``
builds them, so that its 20x20 loop boards are stamped from templates: each
line is named ``encode/<item>``, its result is ``encoded``, it has no
probes, and its ``formula`` is a SHA-256 over the text that
``emit_dimacs`` and ``emit_varmap`` write.  Run it on two checkouts and
compare the lines to tell whether a change keeps the formula and the
``.cnf`` and ``.map`` text byte for byte and the search step for step:

    python scripts/probe_stats.py OLD > old.jsonl
    python scripts/probe_stats.py NEW > new.jsonl
    diff old.jsonl new.jsonl
"""
from __future__ import annotations

import glob
import hashlib
import io
import json
import os
import sys

args = sys.argv[1:]
if not 1 <= len(args) <= 3 or not all(a.isdigit() for a in args[1:]):
    print("usage: python scripts/probe_stats.py CHECKOUT [SEED] [ROUNDS]", file=sys.stderr)
    sys.exit(2)
root = os.path.abspath(args[0])
seed = int(args[1]) if len(args) > 1 else 300
rounds = int(args[2]) if len(args) > 2 else 40
perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
sys.path[:0] = [os.path.join(root, "src"), perfbench]

import gridloop.graph  # noqa: E402
import gridloop.solver  # noqa: E402
import workloads  # noqa: E402
from gridloop import CnfBuilder  # noqa: E402
from gridloop.cli import _BUILDERS, _PARSERS, RunConfig, infer_kind, run  # noqa: E402

probes = []
formulas = []
solve_internal = gridloop.solver.solve_internal


def recorded(*args, **kwargs):
    out = solve_internal(*args, **kwargs)
    probes.append(out.stats)
    return out


# open_internal's probe looks solve_internal up in its module on every call
gridloop.solver.solve_internal = recorded


def fingerprinted(build, eager):
    """``build``, recording the formula's fingerprint when it returns; with
    ``eager`` it builds the eager model whatever ``run`` asks for."""

    def wrapped(builder, inst, lazy=False):
        out = build(builder, inst) if eager else build(builder, inst, lazy=lazy)
        text = json.dumps([builder.var_count, builder.clauses, sorted(builder.names.items())])
        formulas.append(hashlib.sha256(text.encode()).hexdigest())
        return out

    return wrapped


builders = dict(_BUILDERS)

puzzles = [
    (f"{w}/{inst.name}", inst.kind, inst.text)
    for w in ("puzzle-mix", "roadrunner-opt")
    for inst in workloads.make_pool(w, seed, root, rounds=rounds).items
]
bundled = []
for path in sorted(glob.glob(os.path.join(root, "instances", "*"))):
    with open(path) as f:
        bundled.append((os.path.basename(path), infer_kind(path, None), f.read()))


def report(puzzles, eager):
    for kind, build in builders.items():
        _BUILDERS[kind] = fingerprinted(build, eager)
    for name, kind, text in puzzles:
        probes.clear()
        formulas.clear()
        result = run(RunConfig(kind, None, None), _PARSERS[kind](text))
        (formula,) = formulas
        print(json.dumps({"name": name, "result": result.status, "vars": result.vars, "clauses": result.clauses,
                          "formula": formula, "probes": probes}))


report(puzzles + bundled, eager=False)
# ``run`` builds the lazy model for the internal solver; the eager pass
# builds the eager one instead, whose propagator is None
report([(f"eager/{name}", kind, text) for name, kind, text in bundled if name != "masyu_30x30.masyu"], eager=True)


def report_encoded(items):
    # no template left from the lines above, so which boards are stamped
    # depends on these items alone
    gridloop.graph.clear_templates()
    for inst in items:
        builder = CnfBuilder()
        builders[inst.kind](builder, _PARSERS[inst.kind](inst.text))
        cnf, varmap = io.StringIO(), io.StringIO()
        builder.emit_dimacs(cnf)
        builder.emit_varmap(varmap)
        formula = hashlib.sha256((cnf.getvalue() + varmap.getvalue()).encode()).hexdigest()
        print(json.dumps({"name": f"encode/{inst.name}", "result": "encoded", "vars": builder.var_count,
                          "clauses": len(builder.clauses), "formula": formula, "probes": []}))


report_encoded(workloads.make_pool("encode-large", seed, root, rounds=10).items)
