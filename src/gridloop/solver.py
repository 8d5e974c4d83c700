"""SAT solving: an internal CDCL solver plus an external subprocess driver.

The internal solver is a complete conflict-driven solver with two-literal
watching, first-UIP learning, non-chronological backjumping and Luby
restarts.  Branching is deterministic: the next decision comes from an
activity heap (VSIDS-style bumping of the variables met in conflict
analysis), the lowest variable index wins a tie, and the variable takes its
saved phase (initially positive).  The same formula always gets the same
search, which ``SolveOutcome.stats`` counts (conflicts, decisions, restarts).

The internal solver is incremental in the style of MiniSat (Een &
Sorensson, "Temporal Induction by Incremental SAT Solving", 2003): one
``_Solver`` can be solved many times, each time under its own assumptions
(literals taken as true for that call only).  Level-0 units, learnt clauses,
activities and saved phases carry over from call to call; the deadline
and the stats are per call.

A ``_Solver`` may also take a ``Propagator``, a theory that adds clauses
during the search, as in lazy clause generation (Ohrimenko, Stuckey &
Codish, Constraints 2009) and SAT modulo monotonic theories (Bayless et al.,
AAAI 2015).  Its ``check`` runs at each unit-propagation fixpoint, the one
where the trail becomes total included, and may return clauses that the
trail falsifies, each a lemma.  They are attached at once and stay for
good, one of them is the next conflict, and the search goes on in the same
call.

A probe (``Probe``) solves one formula under the assumptions it is given,
and it is all that runs between a built formula and its answer.
``open_internal`` returns a probe that holds one ``_Solver``, so its calls
share the learnt clauses and the propagator's clauses, and each call is one
search.  ``open_external`` returns a probe that runs one process per call:
it writes DIMACS with the assumptions as unit clauses, runs a solver
command, parses SAT-competition output ("s SATISFIABLE" /
"s UNSATISFIABLE", "v " value lines) and re-verifies any claimed model
before returning it.
"""
from __future__ import annotations

import heapq
import itertools
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .cnf import Lit, write_dimacs


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
    # internal solver only: conflicts, decisions and restarts of the search,
    # and under a propagator the clauses that it returned (propagated)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class Propagator:
    """A theory that ``_Solver`` consults during its search.  Every clause
    it returns must hold in every model that the caller accepts; the solver
    keeps each one for good.

    * ``check(solver)`` runs at each unit-propagation fixpoint and returns
      clauses of two or more literals, each literal false under
      ``solver.trail``, or none; the solver raises ValueError for any other
      clause.  It may read the trail and ``solver.val``, and keep state over
      the trail prefix it has read.  It also runs at the fixpoint where the
      trail becomes total (``len(solver.trail) == solver.nvars``), which is
      the model unless it returns a clause: a theory that needs the whole
      model tests for that.
    * ``undo(trail_len)`` runs when the solver backjumps to a trail of that
      length: state over the entries cut off must go.

    State over the trail ties a propagator to one solver.  This base class
    checks nothing, so it accepts every model."""

    def check(self, solver: _Solver) -> list[list[Lit]]:
        return []

    def undo(self, trail_len: int) -> None:
        pass


# A probe solves one formula under the assumptions it is given.
Probe = Callable[[Sequence[Lit]], SolveOutcome]


def check_model(clauses: Iterable[Sequence[Lit]], model: Model) -> bool:
    """True iff every clause has a satisfied literal under the model.
    Raises ValueError for a clause with no true literal over a variable the
    model lacks."""
    a = model.assignment
    true = {v if b else -v for v, b in a.items()}
    for cl in clauses:
        if not true.isdisjoint(cl):
            continue
        for l in cl:
            if abs(l) not in a:
                raise ValueError(f"model missing variable {abs(l)}")
        return False
    return True


class _Solver:
    """The CDCL search over one formula, solved once per ``solve`` call.

    ``clauses`` is a list of clauses under the contract that ``CnfBuilder``
    states.  The solver takes each list over: the search reorders its
    literals in place, so a clause list must appear once in the formula and
    must not be shared with a second live solver, and a caller that reuses
    a formula of lists passes each solver its own copy.  A tuple is a row
    shared with other formulas: the solver watches a list copy of it, and
    the tuple stays as it was."""

    def __init__(self, clauses, nvars, propagator: Propagator | None = None):
        self.nvars = nvars
        self.var_inc = 1.0
        self.ok = True  # False once the formula is unsat without assumptions
        self.prop = propagator
        # every clause that the propagator returned
        self.added: list[list[int]] = []
        # The first solve builds the search state and attaches these clauses
        # (_load), so opening a solver costs nothing until its first call and
        # the set-up is timed with that call.
        self.pending = clauses

    def _load(self):
        """Build the search state and attach the pending clauses.

        The state is empty, so each clause goes in as given, unfiltered: a
        clause of two or more literals is watched on its first two, and a
        unit is assigned.  The watches hold the given lists, not copies
        (see ``_Solver``): the search reorders their literals in place.  A
        tuple is watched as a list of its own, copied from it.  The closing
        ``_propagate`` walks the whole trail, so it meets every watched
        literal that a unit made false; the decision heap is built after it.
        A clause must repeat no literal."""
        nvars = self.nvars
        # val[lit + nvars]: 1 true, -1 false, 0 unassigned; both polarities kept
        self.val = [0] * (2 * nvars + 1)
        self.level = [0] * (nvars + 1)
        self.reason: list[list[int] | None] = [None] * (nvars + 1)
        self.phase = [True] * (nvars + 1)
        self.activity = [0.0] * (nvars + 1)
        self.seen = [False] * (nvars + 1)  # _analyze's marks, all False between calls
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        # watches[lit + nvars] -> list of clauses watching lit
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * nvars + 1)]
        val, watches = self.val, self.watches
        clauses, self.pending = self.pending, None
        for cl in clauses:
            if len(cl) > 1:
                if cl.__class__ is tuple:
                    cl = list(cl)
                watches[cl[0] + nvars].append(cl)
                watches[cl[1] + nvars].append(cl)
                continue
            v = val[cl[0] + nvars] if cl else -1
            if v == -1:  # the empty clause, or a unit against an earlier one
                self.ok = False
                break
            if v == 0:
                self._assign(cl[0], None)
        else:
            if self._propagate() is not None:
                self.ok = False
        # Decision order: a heap of (-activity, var), so the most active
        # variable comes first and the lowest index wins a tie.  An entry is
        # live while its key equals the variable's activity.  A bump pushes a
        # fresh entry; activities only grow between rebuilds, so an older
        # entry pops after the live one, when its variable is assigned, and
        # is skipped.  in_heap[var] says whether var has a live entry; every
        # unassigned variable has one.  Built after level 0 is propagated,
        # it holds only the variables left unassigned, in index order: sorted,
        # so a heap.
        values = val[nvars + 1 :]  # of the variables 1..nvars
        self.heap = [(-0.0, v) for v, x in enumerate(values, 1) if not x]
        self.in_heap = [False] + [not x for x in values]

    def _attach(self, cl):
        """Watch the first two literals of a clause of two or more."""
        n = self.nvars
        self.watches[cl[0] + n].append(cl)
        self.watches[cl[1] + n].append(cl)

    def _value(self, lit):
        return self.val[lit + self.nvars]

    def _assign(self, lit, reason):
        n = self.nvars
        self.val[lit + n] = 1
        self.val[n - lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None.

        ``_value`` and ``_assign`` are inlined: this loop is the solver's
        hot path.
        """
        n = self.nvars
        val = self.val
        watches = self.watches
        trail = self.trail
        level = self.level
        reasons = self.reason
        phase = self.phase
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified + n]
            i = 0
            end = len(ws)  # ws only shrinks during its own scan
            while i < end:
                cl = ws[i]
                # ensure cl[1] is the falsified watch
                first = cl[0]
                if first == falsified:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = falsified
                first_val = val[first + n]
                if first_val == 1:
                    i += 1
                    continue
                # look for a new watch
                for j in range(2, len(cl)):
                    lit = cl[j]
                    if val[lit + n] != -1:
                        cl[1] = lit
                        cl[j] = falsified
                        watches[lit + n].append(cl)
                        end -= 1
                        ws[i] = ws[end]
                        ws.pop()
                        break
                else:
                    if first_val == -1:
                        self.qhead = qhead
                        return cl  # conflict
                    val[first + n] = 1
                    val[n - first] = -1
                    var = first if first > 0 else -first
                    level[var] = cur_level
                    reasons[var] = cl
                    phase[var] = first > 0
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return None

    def _analyze(self, conflict):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        seen = self.seen
        level = self.level
        trail = self.trail
        bump = self._bump
        n_seen = 0
        learnt = [0]  # placeholder for the asserting literal
        cur_level = len(self.trail_lim)
        idx = len(trail) - 1
        p = 0  # no literal is 0
        reason = conflict
        while True:
            for q in reason:
                if q == p:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    bump(var)
                    if level[var] >= cur_level:
                        n_seen += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            seen[abs(p)] = False
            n_seen -= 1
            if n_seen == 0:
                break
            reason = self.reason[abs(p)]
            idx -= 1
        learnt[0] = -p
        # the current-level marks were cleared on the way; clear the rest
        for q in learnt[1:]:
            seen[abs(q)] = False
        if len(learnt) == 1:
            return learnt, 0
        bj = max(level[abs(q)] for q in learnt[1:])
        # put a literal of the backjump level in watch position 1
        for i in range(1, len(learnt)):
            if level[abs(learnt[i])] == bj:
                learnt[1], learnt[i] = learnt[i], learnt[1]
                break
        return learnt, bj

    def _bump(self, var):
        act = self.activity[var] + self.var_inc
        self.activity[var] = act
        if act > 1e100:
            self.activity[:] = [a * 1e-100 for a in self.activity]
            self.var_inc *= 1e-100
            self._rebuild_heap()
        elif self.in_heap[var]:
            heapq.heappush(self.heap, (-act, var))
            if len(self.heap) > 2 * self.nvars:
                self._rebuild_heap()

    def _rebuild_heap(self):
        """Replace the heap by one live entry per unassigned variable.

        Called at a rescale, which changes every key, and once the heap holds
        more than 2 * nvars entries, so that stale entries cannot pile up.
        """
        n = self.nvars
        val = self.val
        act = self.activity
        in_heap = [False] * (n + 1)
        heap = []
        for v in range(1, n + 1):
            if val[v + n] == 0:
                in_heap[v] = True
                heap.append((-act[v], v))
        heapq.heapify(heap)
        self.heap = heap
        self.in_heap = in_heap

    def _backjump(self, lvl):
        n = self.nvars
        val = self.val
        reasons = self.reason
        act = self.activity
        target = self.trail_lim[lvl]
        for lit in self.trail[target:]:
            val[lit + n] = 0
            val[n - lit] = 0
            var = lit if lit > 0 else -lit
            reasons[var] = None
            if not self.in_heap[var]:
                self.in_heap[var] = True
                heapq.heappush(self.heap, (-act[var], var))
                if len(self.heap) > 2 * n:
                    self._rebuild_heap()
        del self.trail[target:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if self.prop is not None:
            self.prop.undo(target)

    def _take(self, clauses):
        """Keep the propagator's clauses and attach them, and return the
        conflict: the clause whose highest level is lowest (the first such
        on a tie), after a backjump to that level if it is below the
        current one, so level 0 means unsat.

        Each copy has its literals in order of level, highest first (a
        stable sort keeps the propagator's order on a tie), and is watched
        on its first two.  Every other clause has its top literal at or
        above the conflict's level, which conflict analysis then undoes, so
        none stays false; one left unit is not propagated, but its watch
        fires when the last literal goes false.  Raises ValueError, before
        taking any, for a clause of fewer than two literals or with one that
        is not false."""
        n = self.nvars
        val = self.val
        level = self.level
        for cl in clauses:
            if len(cl) < 2 or any(val[lit + n] != -1 for lit in cl):
                raise ValueError(f"propagator clause {list(cl)} is not two or more false literals")
        taken = [sorted(cl, key=lambda lit: level[abs(lit)], reverse=True) for cl in clauses]
        for cl in taken:
            self._attach(cl)
        self.added += taken
        conflict = min(taken, key=lambda cl: level[abs(cl[0])])
        top = level[abs(conflict[0])]
        if top < len(self.trail_lim):
            self._backjump(top)
        return conflict

    def _decide(self):
        """The unassigned variable of highest activity (lowest index on a
        tie) in its saved phase, or 0 when every variable is assigned."""
        heap = self.heap
        in_heap = self.in_heap
        val = self.val
        n = self.nvars
        while heap:
            _, var = heapq.heappop(heap)
            in_heap[var] = False
            if val[var + n] == 0:
                return var if self.phase[var] else -var
        return 0

    def solve(self, assumptions=(), deadline=None):
        """Solve under ``assumptions``, literals taken as true for this call.

        While the decision level k is below ``len(assumptions)``, the next
        decision is ``assumptions[k]``: the call is unsat if it is false, and
        an empty level is opened if it is already true.  Only a conflict at
        level 0 makes the formula itself unsat (``ok`` is cleared); an unsat
        under assumptions leaves the solver usable.  ``deadline`` (a
        ``time.monotonic()`` value) bounds this call, whose counters are in
        the outcome's ``stats``.  Every return is at level 0.

        With a propagator, each unit-propagation fixpoint asks ``check``, so
        a total assignment is the model only if ``check`` returns no clause
        there.  Its clauses are attached at once (``_take``), one of them is
        the next conflict, and the stats count them as ``propagated``.
        """
        stats = {"conflicts": 0, "decisions": 0, "restarts": 0}
        prop = self.prop
        if prop is not None:
            stats["propagated"] = 0
        if self.pending is not None:
            self._load()
        if not self.ok:
            return SolveOutcome("unsat", stats=stats)
        conflicts = 0
        restart_unit = 128
        luby_idx = 0
        limit = restart_unit * _luby(luby_idx)
        trail_lim = self.trail_lim
        while True:
            conflict = self._propagate()
            if conflict is None and prop is not None:
                clauses = prop.check(self)
                if clauses:
                    stats["propagated"] += len(clauses)
                    conflict = self._take(clauses)
            if conflict is not None:
                conflicts += 1
                stats["conflicts"] = conflicts
                if not trail_lim:
                    self.ok = False
                    return SolveOutcome("unsat", stats=stats)
                if deadline is not None and time.monotonic() > deadline:
                    return self._stop(SolveOutcome("unknown", reason="solver timeout", stats=stats))
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
                    stats["restarts"] = luby_idx
                    limit = conflicts + restart_unit * _luby(luby_idx)
                    if trail_lim:
                        self._backjump(0)
            elif len(trail_lim) < len(assumptions):
                lit = assumptions[len(trail_lim)]
                v = self._value(lit)
                if v == -1:
                    return self._stop(SolveOutcome("unsat", stats=stats))
                trail_lim.append(len(self.trail))
                if v == 0:
                    self._assign(lit, None)
            else:
                lit = self._decide()
                if lit == 0:
                    n = self.nvars
                    assignment = {v: self.val[v + n] == 1 for v in range(1, n + 1)}
                    return self._stop(SolveOutcome("sat", model=Model(assignment), stats=stats))
                stats["decisions"] += 1
                trail_lim.append(len(self.trail))
                self._assign(lit, None)

    def _stop(self, outcome):
        """Back to level 0, where every call starts, and return ``outcome``."""
        if self.trail_lim:
            self._backjump(0)
        return outcome


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
    timeout: float | None = None,
    assumptions: Sequence[Lit] = (),
    solver: _Solver | None = None,
) -> SolveOutcome:
    """Complete decision procedure; SAT outcomes carry a verified total model.

    The outcome is that of ``clauses`` plus one unit clause per literal of
    ``assumptions``.  ``solver`` is a ``_Solver`` opened on ``clauses`` and
    solved again here, so that what it learnt in earlier calls carries over;
    without one the call builds its own.  A model is checked against the
    clauses and every clause that the solver's propagator returned.  The
    solver takes the clause lists over and reorders their literals in place,
    and leaves each tuple as it is (see ``_Solver``): pass a copy of the
    lists to reuse the formula in another solver.
    ``timeout`` is a wall-clock budget in seconds for this call, checked at
    each conflict; when it runs out the outcome is unknown.
    """
    for a in assumptions:
        if not 0 < abs(a) <= nvars:
            raise ValueError(f"assumption {a} is not a literal over {nvars} variables")
    deadline = None if timeout is None else time.monotonic() + timeout
    if solver is None:
        solver = _Solver(clauses, nvars)
    outcome = solver.solve(assumptions, deadline=deadline)
    if outcome.is_sat and not (
        check_model(itertools.chain(clauses, solver.added), outcome.model)
        and all(outcome.model[a] for a in assumptions)
    ):
        raise RuntimeError("internal solver produced an invalid model")
    return outcome


def open_internal(
    clauses: Sequence[Sequence[Lit]],
    nvars: int,
    propagator: Propagator | None = None,
    timeout: float | None = None,
) -> Probe:
    """A probe that holds one internal solver on the formula, so that learnt
    clauses, activities, saved phases and the propagator's clauses carry
    over from call to call.

    ``propagator``, if given, is consulted during each search (see
    ``_Solver.solve``); each of its clauses must keep every model the caller
    accepts, so an unsat call is the answer and the clauses stay for later
    calls.  A call is one ``solve_internal`` call under its assumptions,
    bounded by ``timeout``, and its ``stats`` are that search's counters,
    with ``propagated`` under a propagator.  The probe's solver owns the
    clause lists and reorders their literals in place (see ``_Solver``), so
    they must not go to a second solver while this probe is in use; it
    changes no tuple clause, a template's row that other boards share.
    """
    solver = _Solver(clauses, nvars, propagator)

    def probe(assumptions=()):
        return solve_internal(
            clauses, nvars, timeout=timeout, assumptions=assumptions, solver=solver
        )

    return probe


DEFAULT_SOLVER_ENV = "GRIDLOOP_SOLVER"


def solve_external(
    solver_cmd: Sequence[str],
    clauses: Sequence[Sequence[Lit]],
    nvars: int,
    timeout: float | None = None,
    assumptions: Sequence[Lit] = (),
) -> SolveOutcome:
    """Run an external DIMACS solver and verify its answer.

    ``assumptions`` are written as unit clauses after ``clauses``.  The
    temporary CNF file is kept on protocol failure (its path is part of
    the returned reason) and deleted on success.
    """
    if assumptions:
        clauses = [*clauses, *([a] for a in assumptions)]
    fd, path = tempfile.mkstemp(suffix=".cnf", text=True)
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


def open_external(
    solver_cmd: Sequence[str],
    clauses: Sequence[Sequence[Lit]],
    nvars: int,
    timeout: float | None = None,
) -> Probe:
    """A probe that runs ``solver_cmd`` once per call, bounded by
    ``timeout``, on the clauses plus the assumptions: the complete formula,
    since an external solver takes no propagator."""

    def probe(assumptions=()):
        return solve_external(
            solver_cmd, clauses, nvars, timeout=timeout, assumptions=assumptions
        )

    return probe
