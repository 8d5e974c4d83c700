"""Internal CDCL solver, external driver, and model checking."""
import os
import random
import sys
import time

import pytest

from gridloop import (
    CnfBuilder,
    Model,
    check_model,
    solve_external,
    solve_internal,
)
from gridloop.puzzles import build_masyu, build_tapa, parse_masyu, parse_tapa
from gridloop.solver import (
    _luby,
    _Solver,
    Propagator,
    open_external,
    open_internal,
)
from gridloop import dimacs_solver

from oracles import eval_clauses, satisfiable


def test_unit_conflict_unsat():
    assert solve_internal([[1], [-1]], 1).is_unsat


def test_binary_clause_sat():
    out = solve_internal([[1, 2]], 2)
    assert out.is_sat
    assert out.model[1] or out.model[2]


def test_empty_formula_sat():
    out = solve_internal([], 3)
    assert out.is_sat
    assert set(out.model.assignment) == {1, 2, 3}  # total model


def test_empty_clause_unsat():
    assert solve_internal([[1], []], 1).is_unsat


def random_3cnf(rng, nvars, nclauses):
    clauses = []
    for _ in range(nclauses):
        vs = rng.sample(range(1, nvars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def test_random_3cnf_vs_enumeration():
    rng = random.Random(42)
    for _ in range(100):
        nvars = rng.randint(4, 12)
        clauses = random_3cnf(rng, nvars, rng.randint(nvars, 5 * nvars))
        out = solve_internal(clauses, nvars)
        assert out.is_sat == satisfiable(clauses, nvars), clauses
        if out.is_sat:
            assert eval_clauses(clauses, out.model.assignment)


def copied(clauses):
    """A copy of each clause: a solver reorders the literals of the clause
    lists it is given, so each solver of one formula gets its own."""
    return [list(cl) for cl in clauses]


def test_determinism():
    rng = random.Random(3)
    clauses = random_3cnf(rng, 15, 60)
    first = solve_internal(copied(clauses), 15)
    for _ in range(3):
        again = solve_internal(copied(clauses), 15)
        assert again.status == first.status
        if first.is_sat:
            assert again.model.assignment == first.model.assignment


def test_a_solve_keeps_each_clause_literal_set():
    # the solver watches the lists it is given, not copies, and reorders
    # their literals in place; each keeps its literals, so check_model and a
    # later solver of the same lists read the same formula
    rng = random.Random(5)
    formulas = [pigeonhole(5, 4), puzzle_formula("masyu_6x6.masyu", parse_masyu, build_masyu)]
    formulas += [(random_3cnf(rng, 20, 85), 20) for _ in range(10)]
    reordered = 0
    for clauses, nvars in formulas:
        before = [list(cl) for cl in clauses]
        s = _Solver(clauses, nvars)
        s._load()
        watched = {id(cl) for ws in s.watches for cl in ws}
        assert all(id(cl) in watched for cl in clauses if len(cl) > 1)
        for _ in range(3):
            vs = rng.sample(range(1, nvars + 1), 2)
            solve_internal(clauses, nvars, assumptions=[v if rng.random() < 0.5 else -v for v in vs], solver=s)
        assert [sorted(cl) for cl in clauses] == [sorted(cl) for cl in before]
        reordered += sum(cl != old for cl, old in zip(clauses, before))
    assert reordered  # the search did move literals


def test_tuple_clauses_search_like_lists_and_stay_as_they_are():
    # a tuple is a row that other formulas share, as a grid template's
    # rows are: the solver watches a list copy of it, so a formula of
    # tuples, or of both, searches step for step as its lists do, and the
    # caller's list still holds the same tuples
    rng = random.Random(6)
    formulas = [pigeonhole(5, 4), puzzle_formula("masyu_6x6.masyu", parse_masyu, build_masyu)]
    formulas += [(random_3cnf(rng, 20, 85), 20) for _ in range(10)]
    statuses = set()
    for clauses, nvars in formulas:
        rows = [tuple(cl) for cl in clauses]
        want = solve_internal(copied(clauses), nvars)
        for given in (list(rows), [row if i % 2 else list(row) for i, row in enumerate(rows)]):
            out = solve_internal(given, nvars)
            assert (out.status, out.stats) == (want.status, want.stats)
            assert (out.model and out.model.assignment) == (want.model and want.model.assignment)
            assert all(x is y for x, y in zip(given, rows) if type(x) is tuple)
        statuses.add(want.status)
    assert statuses == {"sat", "unsat"}


def test_timeout_unknown():
    # the budget is checked at each conflict; this formula conflicts at once
    hard = [[1, 2], [1, -2], [-1, 2], [-1, -2]]
    out = solve_internal(hard, 2, timeout=0)
    assert out.status == "unknown"
    assert out.reason == "solver timeout"
    assert solve_internal(hard, 2, timeout=60).is_unsat


def test_stats_count_the_search():
    assert solve_internal([[1], [-1]], 1).stats == {
        "conflicts": 0, "decisions": 0, "restarts": 0,
    }
    clauses, nvars = pigeonhole(6, 5)
    out = solve_internal(clauses, nvars)
    assert out.is_unsat
    assert out.stats["conflicts"] > 128 and out.stats["restarts"] >= 1
    assert out.stats["decisions"] > 0


# -- incremental solving under assumptions -----------------------------------

def test_incremental_solving_agrees_with_fresh():
    rng = random.Random(4126)
    seen = set()
    for _ in range(40):
        nvars = rng.randint(20, 40)
        clauses = random_3cnf(rng, nvars, round(4.26 * nvars))
        fresh_status = solve_internal(copied(clauses), nvars).status
        s = _Solver(copied(clauses), nvars)
        for _ in range(6):
            vs = rng.sample(range(1, nvars + 1), rng.randint(0, 3))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            out = s.solve(assumptions)
            assert s.trail_lim == []  # every call ends at level 0
            want = solve_internal(copied(clauses) + [[a] for a in assumptions], nvars).status
            assert out.status == want, (clauses, assumptions)
            seen.add((fresh_status, out.status, bool(assumptions)))
            if out.is_sat:
                assert check_model(clauses, out.model)
                assert all(out.model[a] for a in assumptions)
            elif assumptions:
                # an unsat under assumptions leaves the solver usable
                assert s.solve().status == fresh_status
        if fresh_status == "unsat":
            assert not s.ok and s.solve().is_unsat
    # every kind of call was met: sat and unsat formulas, and on the
    # satisfiable ones both answers under assumptions
    assert {("sat", "sat", True), ("sat", "unsat", True), ("unsat", "unsat", True),
            ("sat", "sat", False), ("unsat", "unsat", False)} <= seen


def test_assumption_forms():
    s = _Solver([[1, 2], [-1, 3]], 3)
    assert s.solve([1, -1]).is_unsat  # contradictory assumptions
    assert s.solve([1, 1]).model[3]  # a repeated one opens an empty level
    assert s.solve([-3, 1]).is_unsat  # the second is false once -3 is set
    assert s.solve([-3]).model[2]
    assert s.ok


def guarded_pigeonhole(pigeons, holes):
    """Pigeonhole clauses that hold only when their last variable is true."""
    clauses, nvars = pigeonhole(pigeons, holes)
    sel = nvars + 1
    return [cl + [-sel] for cl in clauses], sel


def test_each_call_has_its_own_budget_and_stats():
    clauses, sel = guarded_pigeonhole(6, 5)
    s = _Solver(clauses, sel)
    first = s.solve([sel])
    kept = dict(first.stats)
    assert first.is_unsat and first.stats["conflicts"] > 128
    assert first.stats["restarts"] >= 1 and first.stats["decisions"] > 0
    # the refutation ended in the learnt unit -sel, kept at level 0
    second = s.solve([sel])
    assert second.is_unsat and second.stats == {"conflicts": 0, "decisions": 0, "restarts": 0}
    assert first.stats == kept
    third = s.solve()
    assert third.is_sat and not third.model[sel]
    assert s.ok


def test_each_call_has_its_own_deadline():
    clauses, sel = guarded_pigeonhole(6, 5)
    s = _Solver(clauses, sel)
    out = solve_internal(clauses, sel, timeout=0, assumptions=[sel], solver=s)
    assert out.status == "unknown" and out.reason == "solver timeout"
    assert solve_internal(clauses, sel, timeout=60, assumptions=[sel], solver=s).is_unsat


def test_assumption_outside_formula_rejected():
    with pytest.raises(ValueError):
        solve_internal([[1]], 1, assumptions=[2])
    with pytest.raises(ValueError):
        solve_internal([[1]], 1, assumptions=[0])


# -- clauses from a propagator ----------------------------------------------

def total_check(cuts):
    """A propagator whose check returns nothing until the trail is total,
    and then ``cuts(assignment)``."""

    class Total(Propagator):
        def check(self, solver):
            n = solver.nvars
            if len(solver.trail) < n:
                return []
            return cuts({v: solver.val[v + n] == 1 for v in range(1, n + 1)})

    return Total()


def test_clauses_from_a_total_check_agree_with_a_fresh_solve():
    # half the clauses go in up front, and the check returns those of the
    # other half that a total trail breaks, several at a time
    rng = random.Random(977)
    seen = set()
    for _ in range(60):
        nvars = rng.randint(10, 30)
        clauses = random_3cnf(rng, nvars, round(4.26 * nvars))
        half = len(clauses) // 2
        rest = clauses[half:]
        check = total_check(lambda a: [cl for cl in rest if not eval_clauses([cl], a)])
        out = open_internal(clauses[:half], nvars, check)()
        assert out.status == solve_internal(clauses, nvars).status, clauses
        if out.is_sat:
            assert check_model(clauses, out.model)
        seen.add((solve_internal(clauses[:half], nvars).status, out.status))
    assert {("sat", "sat"), ("sat", "unsat")} <= seen


def test_probe_adds_cuts_until_a_model_needs_none(monkeypatch):
    # the first total assignment sets x1 and x2 (the saved phase), and the
    # check's cut -x1 | -x2 there sets x2, x3 and x4 false through the chain
    # x4 -> x3 -> x2, in the same search
    clauses = [[1, -2], [2, -3], [3, -4], [-1, -4]]
    asked = []
    opened = []

    class CountedSolver(_Solver):
        def __init__(self, *args):
            super().__init__(*args)
            opened.append(self)

    monkeypatch.setattr("gridloop.solver._Solver", CountedSolver)

    def cuts(assignment):
        asked.append(dict(assignment))
        return [[-1, -2]] if assignment[1] and assignment[2] else []

    out = open_internal(clauses, 4, total_check(cuts))()
    assert out.is_sat and out.model.assignment == {1: True, 2: False, 3: False, 4: False}
    # each total trail is checked until one gets no clause, and the model
    # is the assignment that the check accepted
    assert len(asked) == 2 and asked[-1] == out.model.assignment
    # the solver keeps its copy, highest level first: x2 was decided after x1
    assert len(opened) == 1 and opened[0].added == [[-2, -1]]
    # a cut that contradicts the base clauses makes the whole formula unsat
    assert open_internal([[1], [2]], 2, total_check(lambda a: [[-1, -2]]))().is_unsat


def test_a_later_probe_needs_no_recut():
    # the first probe cuts x1 off from x2 and from x3, in one check, and the
    # cuts then stay in the solver: the second probe's first total
    # assignment already satisfies them
    asked = []
    added = []

    def cuts(assignment):
        asked.append(dict(assignment))
        new = [[-1, -v] for v in (2, 3) if assignment[1] and assignment[v]]
        added.extend(new)
        return new

    probe = open_internal([[1, 2, 3]], 3, total_check(cuts))
    out = probe()
    assert out.is_sat and len(asked) == 2 and added == [[-1, -2], [-1, -3]]
    # each probe reports the clauses that the check returned
    assert out.stats["propagated"] == 2
    asked.clear()
    out = probe()
    assert out.is_sat and len(asked) == 1
    assert out.stats["propagated"] == 0
    assert check_model(added, out.model)


def test_a_probe_meets_its_assumptions_and_the_cuts():
    # the cuts allow at most one of x1..x4; the assumptions rule out x1, x2
    def cuts(assignment):
        on = [v for v in range(1, 5) if assignment[v]]
        return [[-on[0], -v] for v in on[1:]]

    probe = open_internal([[1, 2, 3, 4]], 4, total_check(cuts))
    out = probe([-1, -2])
    assert out.is_sat and not out.model[1] and not out.model[2]
    assert sum(out.model[v] for v in range(1, 5)) == 1
    # unsat under assumptions, through a cut, leaves the formula sat
    assert probe([3, 4]).is_unsat
    assert probe().is_sat


def test_a_probe_has_one_deadline(monkeypatch):
    # a probe is one solve_internal call, given the whole budget; the time
    # that the check takes counts against it, so the conflict that its cut
    # starts finds the budget spent.  The cut is attached already, and the
    # next probe, with a budget of its own, propagates through it
    budgets = []

    def recorded(*args, timeout=None, **kwargs):
        budgets.append(timeout)
        return solve_internal(*args, timeout=timeout, **kwargs)

    monkeypatch.setattr("gridloop.solver.solve_internal", recorded)

    def cuts(assignment):
        time.sleep(0.05)
        return [[-1, -2]] if assignment[1] and assignment[2] else []

    probe = open_internal([[1, -2], [2, -3]], 3, total_check(cuts), timeout=0.02)
    out = probe()
    assert out.status == "unknown" and out.reason == "solver timeout"
    out = probe()
    assert out.is_sat and out.model[1] and not out.model[2]
    assert budgets == [0.02, 0.02]


def test_probe_stats_count_its_one_search(monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        out = solve_internal(*args, **kwargs)
        calls.append(dict(out.stats))
        return out

    monkeypatch.setattr("gridloop.solver.solve_internal", recorded)
    clauses, sel = guarded_pigeonhole(6, 5)
    # the first total assignment has sel false; the cut asks for sel or off,
    # which a unit clause keeps false, and the same search refutes the
    # pigeonhole clauses
    off = sel + 1
    cut = total_check(lambda a: [] if a[sel] else [[sel, off]])
    out = open_internal(clauses + [[-off]], off, cut)()
    assert out.is_unsat and calls == [out.stats]
    assert out.stats["conflicts"] > 128 and out.stats["restarts"] >= 1
    assert out.stats["propagated"] == 1


def test_take_watches_the_top_two_and_returns_the_lowest_top():
    # x5 false at level 0, then x1, x2, x3, x4 decided at levels 1-4, and x6
    # set false at level 2
    s = _Solver([], 6)
    s._load()
    s._assign(-5, None)
    for lit in (1, 2, -6, 3, 4):
        if lit != -6:
            s.trail_lim.append(len(s.trail))
        s._assign(lit, None)
    top4, top3, tie3 = [-1, 5, -4, -2], [5, -1, 6, -3, -2], [-3, 5, -1]
    conflict = s._take([top4, top3, tie3])
    # copies, highest level first; equal levels keep the given order
    assert s.added == [[-4, -2, -1, 5], [-3, 6, -2, -1, 5], [-3, -1, 5]]
    assert top4 == [-1, 5, -4, -2]
    for cl in s.added:
        assert cl in s.watches[cl[0] + 6] and cl in s.watches[cl[1] + 6]
    # the first clause whose highest level is lowest, after a backjump to
    # that level: x4 is undone
    assert conflict is s.added[1]
    assert s.trail == [-5, 1, 2, -6, 3] and len(s.trail_lim) == 3
    # a clause of one literal, or with a literal that is not false, breaks
    # the propagator contract, and no clause of that call is taken
    for bad in ([-1], [-1, -4], [-1, 2]):
        with pytest.raises(ValueError):
            s._take([[-2, -1], bad])
    assert len(s.added) == 3 and len(s.trail_lim) == 3


def test_clauses_from_a_partial_check_agree_with_a_fresh_solve():
    # half the clauses go in up front, and the check returns each clause of
    # the other half that the trail falsifies.  It skips most fixpoints
    # short of a total trail, so one call can hand over several clauses
    # with their tops at different levels
    rng = random.Random(2009)
    seen = set()
    spread = 0  # checks that returned clauses with different top levels

    class Partial(Propagator):
        def __init__(self, rest):
            self.rest = rest
            self.taken = set()

        def check(self, solver):
            nonlocal spread
            val, level, n = solver.val, solver.level, solver.nvars
            if len(solver.trail) < n and rng.random() < 0.7:
                return []
            false = [cl for cl in self.rest if all(val[lit + n] == -1 for lit in cl)]
            # the conflict's backjump leaves no clause that the solver took
            # false, and its watches keep it so
            assert self.taken.isdisjoint(map(id, false))
            self.taken.update(map(id, false))
            spread += len({max(level[abs(lit)] for lit in cl) for cl in false}) > 1
            return false

    for _ in range(80):
        nvars = rng.randint(10, 30)
        clauses = random_3cnf(rng, nvars, round(4.26 * nvars))
        half = len(clauses) // 2
        out = open_internal(clauses[:half], nvars, Partial(clauses[half:]))()
        assert out.status == solve_internal(clauses, nvars).status, clauses
        if out.is_sat:
            assert check_model(clauses, out.model)
        seen.add((solve_internal(clauses[:half], nvars).status, out.status))
    assert {("sat", "sat"), ("sat", "unsat")} <= seen
    assert spread > 0


def test_open_internal_calls_share_one_solver():
    clauses, sel = guarded_pigeonhole(6, 5)
    probe = open_internal(clauses, sel)
    first = probe([sel])
    assert first.is_unsat and first.stats["conflicts"] > 128
    again = probe([sel])
    # what the first learnt is kept; no propagator, so no propagator counts
    assert again.stats == {"conflicts": 0, "decisions": 0, "restarts": 0}
    assert probe().is_sat


# -- the decision heap against the linear scan it replaced -----------------

class ScanSolver(_Solver):
    """Reference: the linear decision scan, strict > keeps the lowest index."""

    def _decide(self):
        n = self.nvars
        best = 0
        best_act = -1.0
        for v in range(1, n + 1):
            if self.val[v + n] == 0 and self.activity[v] > best_act:
                best = v
                best_act = self.activity[v]
        if best == 0:
            return 0
        return best if self.phase[best] else -best


def pigeonhole(pigeons, holes):
    """Each pigeon in some hole, no two in one: UNSAT when pigeons > holes."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append([-var(p, h), -var(q, h)])
    return clauses, pigeons * holes


def puzzle_formula(name, parse, build):
    with open(os.path.join(os.path.dirname(__file__), "..", "instances", name)) as f:
        inst = parse(f.read())
    b = CnfBuilder()
    build(b, inst)
    return b.clauses, b.var_count


def same_search(clauses, nvars, var_inc=1.0):
    outcomes = []
    for cls in (_Solver, ScanSolver):
        s = cls(copied(clauses), nvars)
        s.var_inc = var_inc
        outcomes.append(s.solve())
    heap, scan = outcomes
    assert heap.status == scan.status
    assert heap.stats == scan.stats
    if heap.is_sat:
        assert heap.model.assignment == scan.model.assignment
        assert check_model(clauses, heap.model)
    return heap


def test_heap_decides_like_the_scan_on_random_3cnf():
    rng = random.Random(2024)
    statuses = set()
    for _ in range(50):
        nvars = rng.randint(20, 40)
        out = same_search(random_3cnf(rng, nvars, round(4.26 * nvars)), nvars)
        statuses.add(out.status)
    assert statuses == {"sat", "unsat"}


@pytest.mark.parametrize("name,parse,build", [
    ("masyu_6x6.masyu", parse_masyu, build_masyu),
    ("tapa_6x6.tapa", parse_tapa, build_tapa),
])
def test_heap_decides_like_the_scan_on_puzzles(name, parse, build):
    out = same_search(*puzzle_formula(name, parse, build))
    assert out.is_sat and out.stats["conflicts"] > 0


def test_activity_rescale():
    # from var_inc = 1e99 the first bumps pass 1e100 and rescale everything
    rng = random.Random(8)
    for _ in range(30):
        nvars = rng.randint(6, 12)
        clauses = random_3cnf(rng, nvars, round(4.26 * nvars))
        s = _Solver(clauses, nvars)
        s.var_inc = 1e99
        assert s.solve().is_sat == satisfiable(clauses, nvars), clauses
    clauses, nvars = pigeonhole(5, 4)
    s = _Solver(clauses, nvars)
    s.var_inc = 1e99
    assert s.solve().is_unsat
    assert s.var_inc < 1e99  # rescaled at least once
    # the heap rebuilt at a rescale still picks what the scan picks, also
    # over the hundreds of conflicts that follow it
    out = same_search(*pigeonhole(6, 5), var_inc=1e99)
    assert out.is_unsat and out.stats["conflicts"] > 100
    same_search(*puzzle_formula("masyu_6x6.masyu", parse_masyu, build_masyu), var_inc=1e99)


class CapWatch(_Solver):
    """Records the heap's largest size after each operation that grows it."""

    largest = 0
    rebuilds = 0

    def _bump(self, var):
        super()._bump(var)
        self.largest = max(self.largest, len(self.heap))

    def _backjump(self, lvl):
        super()._backjump(lvl)
        self.largest = max(self.largest, len(self.heap))

    def _rebuild_heap(self):
        super()._rebuild_heap()
        self.rebuilds += 1


def test_heap_stays_capped():
    clauses, nvars = pigeonhole(7, 6)
    s = CapWatch(clauses, nvars)
    out = s.solve()
    assert out.is_unsat and out.stats["conflicts"] > 500
    assert s.rebuilds > 0  # the cap was reached
    assert s.largest <= 2 * nvars + 1


@pytest.mark.parametrize(
    "clauses,nvars,ok,free",
    [
        # 1 and then 2 by propagation; 3 in a clause, 4 in none
        ([[1], [-1, 2], [2, 3]], 4, True, [3, 4]),
        ([[1], [-1, 2], [-2, -1]], 3, False, [3]),  # conflict in propagation
        ([[1, 2], [2], []], 3, False, [1, 3]),  # the empty clause
        ([[3], [1, 2], [-3]], 3, False, [1, 2]),  # a unit against a unit
        ([], 2, True, [1, 2]),
    ],
)
def test_load_puts_only_the_unassigned_variables_in_the_heap(clauses, nvars, ok, free):
    # in index order, each with a live entry, also where _load stops early
    s = _Solver(clauses, nvars)
    s._load()
    assert s.ok == ok
    assert s.heap == [(-0.0, v) for v in free]
    assert [v for v in range(1, nvars + 1) if s.in_heap[v]] == free
    assert not s.in_heap[0]


def test_check_model():
    assert check_model([], Model({}))
    assert not check_model([[1]], Model({1: False}))
    assert check_model([[1, -2]], Model({1: False, 2: False}))
    with pytest.raises(ValueError):
        check_model([[5]], Model({1: True}))


def test_check_model_random_agreement():
    rng = random.Random(5)
    for _ in range(50):
        nvars = rng.randint(3, 10)
        clauses = random_3cnf(rng, nvars, 2 * nvars)
        a = {v: rng.random() < 0.5 for v in range(1, nvars + 1)}
        assert check_model(clauses, Model(a)) == eval_clauses(clauses, a)


def test_luby_sequence():
    assert [_luby(i) for i in range(15)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


# -- external driver ------------------------------------------------------

BUNDLED = [sys.executable, "-m", "gridloop.dimacs_solver"]


def test_external_sat_verified():
    out = solve_external(BUNDLED, [[1, 2], [-1, -2]], 2)
    assert out.is_sat
    assert out.model[1] != out.model[2]


def test_builder_empty_clause_solves_unsat():
    b = CnfBuilder()
    v = b.new_var()
    b.add_clause([v])
    b.add_clause([])
    assert solve_internal(b.clauses, b.var_count).is_unsat
    assert solve_external(BUNDLED, b.clauses, b.var_count).is_unsat


def test_external_unsat():
    assert solve_external(BUNDLED, [[1], [-1]], 1).is_unsat


def test_external_bad_command_unknown():
    out = solve_external(["/nonexistent/solver-binary"], [[1]], 1)
    assert out.status == "unknown"
    assert "cannot run solver" in out.reason


def test_open_external():
    assert open_external(BUNDLED, [[1]], 1)().is_sat
    assert open_external(BUNDLED, [[1], [-1]], 1)().is_unsat
    probe = open_external(BUNDLED, [[1, 2]], 2)
    assert probe([-1]).model[2]
    assert probe([-1, -2]).is_unsat


def test_dimacs_solver_main(tmp_path, capsys):
    sat = tmp_path / "sat.cnf"
    sat.write_text("p cnf 2 1\n1 -2 0\n")
    assert dimacs_solver.main([str(sat)]) == 10
    out = capsys.readouterr().out
    assert "s SATISFIABLE" in out
    assert any(line.startswith("v ") for line in out.splitlines())

    unsat = tmp_path / "unsat.cnf"
    unsat.write_text("p cnf 1 2\n1 0\n-1 0\n")
    assert dimacs_solver.main([str(unsat)]) == 20
    assert "s UNSATISFIABLE" in capsys.readouterr().out


def test_dimacs_solver_input_errors(tmp_path, capsys):
    assert dimacs_solver.main([str(tmp_path / "missing.cnf")]) == 1
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ")

    wide = tmp_path / "wide.cnf"
    wide.write_text("p cnf 1 1\n2 0\n")  # variable 2 of a 1-variable header
    assert dimacs_solver.main([str(wide)]) == 1
    err = capsys.readouterr()
    assert err.out == "" and "2" in err.err and err.err.startswith("error: ")
