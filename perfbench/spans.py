"""Spans recorded around gridloop's public functions, from outside.

``Tracer.patched()`` rebinds each traced function, wherever a gridloop
module holds a reference to it (module globals, module-level dicts such as
the CLI's parser table, class attributes), to a wrapper that records a span
and then calls the original.  The program itself is not changed; leaving
the context restores every reference.  Spans stay in memory and are written
out when the run ends.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    puzzle: int  # one id shared by every span of a puzzle
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _builder_size(span: Span, args, result) -> None:
    """Formula size after a puzzle's ``build_*(builder, instance)``."""
    clauses = args[0].clauses
    span.attrs.update(vars=args[0].var_count, clauses=len(clauses), lits=sum(map(len, clauses)))


def _outcome(span: Span, args, result) -> None:
    span.attrs["status"] = result.status


# (span name, module, attribute path, hook run after the call, outside the span)
TARGETS = (
    ("puzzles.parse", "gridloop.puzzles", "parse_masyu", None),
    ("puzzles.parse", "gridloop.puzzles", "parse_shingoki", None),
    ("puzzles.parse", "gridloop.puzzles", "parse_tapa", None),
    ("puzzles.parse", "gridloop.puzzles", "parse_roadrunner", None),
    ("encode.build", "gridloop.puzzles", "build_masyu", _builder_size),
    ("encode.build", "gridloop.puzzles", "build_shingoki", _builder_size),
    ("encode.build", "gridloop.puzzles", "build_tapa", _builder_size),
    ("encode.build", "gridloop.puzzles", "build_roadrunner", _builder_size),
    ("cnf.emit", "gridloop.cnf", "CnfBuilder.emit_dimacs", None),
    ("cnf.emit", "gridloop.cnf", "CnfBuilder.emit_varmap", None),
    ("solver.solve", "gridloop.solver", "solve_internal", _outcome),
    ("optimize.maximize", "gridloop.optimize", "maximize", None),
    ("puzzles.decode", "gridloop.puzzles", "decode_loop", None),
    ("puzzles.decode", "gridloop.puzzles", "decode_coloring", None),
    ("puzzles.decode", "gridloop.puzzles", "decode_roadrunner", None),
    ("puzzles.decode", "gridloop.cli", "solution_from_json", None),
    ("puzzles.verify", "gridloop.puzzles", "verify_masyu", None),
    ("puzzles.verify", "gridloop.puzzles", "verify_shingoki", None),
    ("puzzles.verify", "gridloop.puzzles", "verify_tapa", None),
    ("puzzles.verify", "gridloop.puzzles", "verify_roadrunner", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.puzzle = -1
        self.kind = ""

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name)
        self.spans[idx].attrs.update(attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(self.puzzle, name, 0.0, parent=parent, attrs={"kind": self.kind}))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if hook is not None:
                hook(self.spans[idx], args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every target for the duration of the context."""
        undo: list[tuple[object, str, object, bool]] = []  # (holder, key, old, is_dict)
        try:
            for name, module, path, hook in TARGETS:
                holder = sys.modules.get(module)
                *owners, attr = path.split(".")
                for owner in owners:
                    holder = getattr(holder, owner, None)
                original = getattr(holder, attr, None)
                if original is None:  # renamed or removed: its layer reads 0
                    continue
                wrapper = self.wrap(name, original, hook)
                if owners:  # a method: rebind it on its class
                    undo.append((holder, attr, original, False))
                    setattr(holder, attr, wrapper)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if not mod_name.startswith("gridloop") or mod is None:
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original, False))
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is original:
                                    undo.append((value, k, original, True))
                                    value[k] = wrapper
            yield self
        finally:
            for holder, key, old, is_dict in reversed(undo):
                if is_dict:
                    holder[key] = old
                else:
                    setattr(holder, key, old)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"puzzle": s.puzzle, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent, **s.attrs}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over the given spans; the indices in ``parent``
    must point into the same list, so pass a prefix of a run's spans."""
    selfs = self_times(spans)

    def total(name: str, kind: str | None = None) -> float:
        return sum(s.duration for s in spans if s.name == name and (kind is None or s.attrs.get("kind") == kind))

    solves = [s for s in spans if s.name == "solver.solve"]
    maximize = [i for i, s in enumerate(spans) if s.name == "optimize.maximize"]
    probes = [s.duration for s in solves if s.parent is not None and spans[s.parent].name == "optimize.maximize"]
    builds = [s for s in spans if s.name == "encode.build"]
    m = {
        "puzzles.parse_s": total("puzzles.parse"),
        "puzzles.decode_s": total("puzzles.decode"),
        "puzzles.verify_s": total("puzzles.verify"),
        "encode.build_s": total("encode.build"),
        "encode.vars": sum(s.attrs.get("vars", 0) for s in builds),
        "encode.clauses": sum(s.attrs.get("clauses", 0) for s in builds),
        "encode.lits": sum(s.attrs.get("lits", 0) for s in builds),
        "cnf.emit_s": total("cnf.emit"),
        "cnf.emit_bytes": sum(s.attrs.get("emit_bytes", 0) for s in spans),
        "solver.solve_s": total("solver.solve"),
    }
    for kind in ("masyu", "shingoki", "tapa", "roadrunner"):
        m[f"solver.solve_s.{kind}"] = total("solver.solve", kind)
    m.update({
        "solver.calls": len(solves),
        "solver.sat_calls": sum(s.attrs.get("status") == "sat" for s in solves),
        "solver.unsat_calls": sum(s.attrs.get("status") == "unsat" for s in solves),
        "solver.probe_p50_s": statistics.median(probes) if probes else 0.0,
        "optimize.self_s": sum(selfs[i] for i in maximize),
        "optimize.calls": len(maximize),
        "optimize.calls_per_puzzle": len(probes) / len(maximize) if maximize else 0.0,
        "cli.self_s": sum(selfs[i] for i, s in enumerate(spans) if s.name == "cli.main"),
    })
    return m
