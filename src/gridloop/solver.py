"""SAT solving: an internal CDCL solver plus an external subprocess driver.

The internal solver is a complete conflict-driven solver with two-literal
watching, first-UIP learning, non-chronological backjumping and Luby
restarts.  Branching is deterministic: activity order with variable-index
tie-breaking, saved phase (initially positive).

The external driver writes DIMACS, runs a solver command, parses
SAT-competition output ("s SATISFIABLE" / "s UNSATISFIABLE", "v " value
lines) and re-verifies any claimed model before returning it.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .cnf import CnfBuilder, Lit, write_dimacs


@dataclass
class Model:
    """Total assignment: every allocated variable is mapped."""

    assignment: dict[int, bool]

    def __getitem__(self, lit: Lit) -> bool:
        v = self.assignment[abs(lit)]
        return v if lit > 0 else not v


@dataclass
class SolveOutcome:
    status: str  # "sat" | "unsat" | "unknown"
    model: Model | None = None
    reason: str | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


SolveFn = Callable[[Sequence[Sequence[Lit]], int], SolveOutcome]


def check_model(clauses: Sequence[Sequence[Lit]], model: Model) -> bool:
    """True iff every clause has a satisfied literal under the model."""
    a = model.assignment
    for cl in clauses:
        for l in cl:
            var = abs(l)
            if var not in a:
                raise ValueError(f"model missing variable {var}")
            if a[var] == (l > 0):
                break
        else:
            return False
    return True


class _Solver:
    def __init__(self, clauses, nvars, max_conflicts=None, deadline=None):
        self.nvars = nvars
        self.max_conflicts = max_conflicts
        self.deadline = deadline  # time.monotonic() value, or None
        self.val = [0] * (nvars + 1)  # 0 unassigned, 1 true, -1 false
        self.level = [0] * (nvars + 1)
        self.reason: list[list[int] | None] = [None] * (nvars + 1)
        self.phase = [True] * (nvars + 1)
        self.activity = [0.0] * (nvars + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # watches[lit + nvars] -> list of clauses watching lit
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
        self.units: list[int] = []
        self.ok = True
        for cl in clauses:
            self._attach(list(dict.fromkeys(cl)))

    def _attach(self, cl):
        if not cl:
            self.ok = False
            return
        if len(cl) == 1:
            self.units.append(cl[0])
            return
        n = self.nvars
        self.watches[cl[0] + n].append(cl)
        self.watches[cl[1] + n].append(cl)

    def _value(self, lit):
        v = self.val[abs(lit)]
        return v if lit > 0 else -v

    def _assign(self, lit, reason):
        var = abs(lit)
        self.val[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        n = self.nvars
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = -lit
            ws = self.watches[falsified + n]
            i = 0
            while i < len(ws):
                cl = ws[i]
                # ensure cl[1] is the falsified watch
                if cl[0] == falsified:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if self._value(first) == 1:
                    i += 1
                    continue
                # look for a new watch
                moved = False
                for j in range(2, len(cl)):
                    if self._value(cl[j]) != -1:
                        cl[1], cl[j] = cl[j], cl[1]
                        self.watches[cl[1] + n].append(cl)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self._value(first) == -1:
                    return cl  # conflict
                self._assign(first, cl)
                i += 1
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        n_seen = 0
        seen = [False] * (self.nvars + 1)
        learnt = [0]  # placeholder for the asserting literal
        cur_level = len(self.trail_lim)
        idx = len(self.trail) - 1
        p = None
        reason = conflict
        while True:
            for q in reason:
                if p is not None and q == p:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        n_seen += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            seen[abs(p)] = False
            n_seen -= 1
            if n_seen == 0:
                break
            reason = self.reason[abs(p)]
            idx -= 1
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        bj = max(self.level[abs(q)] for q in learnt[1:])
        # put a literal of the backjump level in watch position 1
        for i in range(1, len(learnt)):
            if self.level[abs(learnt[i])] == bj:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, bj

    def _bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100

    def _backjump(self, lvl):
        target = self.trail_lim[lvl]
        for lit in self.trail[target:]:
            self.val[abs(lit)] = 0
            self.reason[abs(lit)] = None
        del self.trail[target:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    def _decide(self):
        best = 0
        best_act = -1.0
        for v in range(1, self.nvars + 1):
            if self.val[v] == 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        if best == 0:
            return 0
        return best if self.phase[best] else -best

    def solve(self):
        if not self.ok:
            return SolveOutcome("unsat")
        for u in self.units:
            v = self._value(u)
            if v == -1:
                return SolveOutcome("unsat")
            if v == 0:
                self._assign(u, None)
        if self._propagate() is not None:
            return SolveOutcome("unsat")
        conflicts = 0
        restart_unit = 128
        luby_idx = 0
        limit = restart_unit * _luby(luby_idx)
        while True:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if self.max_conflicts is not None and conflicts > self.max_conflicts:
                    return SolveOutcome("unknown", reason="conflict budget exceeded")
                if not self.trail_lim:
                    return SolveOutcome("unsat")
                if self.deadline is not None and time.monotonic() > self.deadline:
                    return SolveOutcome("unknown", reason="solver timeout")
                learnt, bj = self._analyze(conflict)
                self._backjump(bj)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self._attach(learnt)
                    self._assign(learnt[0], learnt)
                self.var_inc /= 0.95
                if conflicts >= limit:
                    luby_idx += 1
                    limit = conflicts + restart_unit * _luby(luby_idx)
                    if self.trail_lim:
                        self._backjump(0)
            else:
                lit = self._decide()
                if lit == 0:
                    assignment = {v: self.val[v] == 1 for v in range(1, self.nvars + 1)}
                    return SolveOutcome("sat", model=Model(assignment))
                self.trail_lim.append(len(self.trail))
                self._assign(lit, None)


def _luby(x: int) -> int:
    """Luby restart sequence 1,1,2,1,1,2,4,... (0-based index)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


def solve_internal(
    clauses: Sequence[Sequence[Lit]],
    nvars: int,
    max_conflicts: int | None = None,
    timeout: float | None = None,
) -> SolveOutcome:
    """Complete decision procedure; SAT outcomes carry a verified total model.

    ``timeout`` is a wall-clock budget in seconds for this call, checked at
    each conflict; when it runs out the outcome is unknown.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    outcome = _Solver(clauses, nvars, max_conflicts=max_conflicts, deadline=deadline).solve()
    if outcome.is_sat and not check_model(clauses, outcome.model):
        raise RuntimeError("internal solver produced an invalid model")
    return outcome


def solve_builder(builder: CnfBuilder, solve_fn: SolveFn | None = None) -> SolveOutcome:
    if builder.unsat:
        return SolveOutcome("unsat")
    fn = solve_fn or solve_internal
    return fn(builder.clauses, builder.var_count)


DEFAULT_SOLVER_ENV = "GRIDLOOP_SOLVER"


def default_solver_command() -> list[str]:
    """Solver command from the environment, or the bundled DIMACS solver."""
    cmd = os.environ.get(DEFAULT_SOLVER_ENV)
    if cmd:
        return shlex.split(cmd)
    import sys

    return [sys.executable, "-m", "gridloop.dimacs_solver"]


def solve_external(
    solver_cmd: Sequence[str],
    clauses: Sequence[Sequence[Lit]],
    nvars: int,
    tmpdir: str | None = None,
    timeout: float | None = None,
) -> SolveOutcome:
    """Run an external DIMACS solver and verify its answer.

    The temporary CNF file is kept on protocol failure (its path is part of
    the returned reason) and deleted on success.
    """
    fd, path = tempfile.mkstemp(suffix=".cnf", dir=tmpdir, text=True)
    with os.fdopen(fd, "w") as f:
        write_dimacs(f, nvars, clauses)
    try:
        proc = subprocess.run(
            list(solver_cmd) + [path],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return SolveOutcome("unknown", reason=f"solver timeout (cnf kept at {path})")
    except OSError as e:
        return SolveOutcome("unknown", reason=f"cannot run solver: {e} (cnf kept at {path})")
    status = None
    values: list[int] = []
    for line in proc.stdout.splitlines():
        if line.startswith("s "):
            status = line[2:].strip()
        elif line.startswith("v"):
            try:
                values.extend(int(t) for t in line[1:].split())
            except ValueError:
                return SolveOutcome(
                    "unknown", reason=f"bad value line {line!r} from solver (cnf kept at {path})"
                )
    if status == "UNSATISFIABLE":
        os.unlink(path)
        return SolveOutcome("unsat")
    if status == "SATISFIABLE":
        assignment = {v: False for v in range(1, nvars + 1)}
        for lit in values:
            if lit != 0 and abs(lit) <= nvars:
                assignment[abs(lit)] = lit > 0
        model = Model(assignment)
        if not check_model(clauses, model):
            return SolveOutcome(
                "unknown",
                reason=f"solver model fails verification (cnf kept at {path})",
            )
        os.unlink(path)
        return SolveOutcome("sat", model=model)
    return SolveOutcome(
        "unknown",
        reason=f"no status line from solver (exit {proc.returncode}, cnf kept at {path})",
    )


def external_solve_fn(solver_cmd: Sequence[str], timeout: float | None = None) -> SolveFn:
    def fn(clauses, nvars):
        return solve_external(solver_cmd, clauses, nvars, timeout=timeout)

    return fn
