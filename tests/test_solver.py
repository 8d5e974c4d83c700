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
    external_solve_fn,
    internal_solve_fn,
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


def test_determinism():
    rng = random.Random(3)
    clauses = random_3cnf(rng, 15, 60)
    first = solve_internal(clauses, 15)
    for _ in range(3):
        again = solve_internal(clauses, 15)
        assert again.status == first.status
        if first.is_sat:
            assert again.model.assignment == first.model.assignment


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
        fresh_status = solve_internal(clauses, nvars).status
        s = _Solver(clauses, nvars)
        for _ in range(6):
            vs = rng.sample(range(1, nvars + 1), rng.randint(0, 3))
            assumptions = [v if rng.random() < 0.5 else -v for v in vs]
            out = s.solve(assumptions)
            assert s.trail_lim == []  # every call ends at level 0
            want = solve_internal(clauses + [[a] for a in assumptions], nvars).status
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


# -- clauses added between solves --------------------------------------------

def test_add_clauses_drops_a_clause_satisfied_at_level_0():
    s = _Solver([[1], [2, 3]], 3)
    assert s.solve().is_sat
    watched = sum(map(len, s.watches))
    s.add_clauses([[1, -2, -3]])  # 1 is true at level 0
    assert sum(map(len, s.watches)) == watched
    assert s.solve().is_sat


def test_add_clauses_propagates_a_unit():
    s = _Solver([[-1, 2], [-2, 3]], 3)
    assert s.solve().is_sat
    s.add_clauses([[1]])
    assert s.ok and s.trail == [1, 2, 3] and s.trail_lim == []
    # a clause whose other literals are false at level 0 is a unit too
    s2 = _Solver([[-1]], 3)
    s2.add_clauses([[1, 2], [-2, 3]])
    assert [s2._value(v) for v in (1, 2, 3)] == [-1, 1, 1]
    out = s2.solve()
    assert out.is_sat and out.stats["decisions"] == 0


def test_add_clauses_falsified_at_level_0_is_unsat():
    s = _Solver([[1], [-1, 2]], 2)
    assert s.solve().is_sat
    s.add_clauses([[-1, -2]])
    assert not s.ok
    assert s.solve().is_unsat
    # an empty clause, and one that a unit then falsifies by propagation
    s = _Solver([[1, 2]], 2)
    s.add_clauses([[]])
    assert not s.ok and s.solve().is_unsat
    s = _Solver([[1, 2], [1, -2]], 2)
    assert s.solve().is_sat
    s.add_clauses([[-1]])
    assert not s.ok and s.solve().is_unsat


def test_add_clauses_agrees_with_a_fresh_solve():
    rng = random.Random(977)
    seen = set()
    for _ in range(60):
        nvars = rng.randint(10, 30)
        clauses = random_3cnf(rng, nvars, round(4.26 * nvars))
        half = len(clauses) // 2
        s = _Solver(clauses[:half], nvars)
        first = s.solve()
        assert first.status == solve_internal(clauses[:half], nvars).status
        s.add_clauses(clauses[half:])
        assert s.trail_lim == []
        out = s.solve()
        want = solve_internal(clauses, nvars).status
        assert out.status == want, clauses
        if out.is_sat:
            assert check_model(clauses, out.model)
        seen.add((first.status, out.status))
    assert {("sat", "sat"), ("sat", "unsat")} <= seen


def final_check(final):
    """A propagator that checks nothing during the search and whose final
    check is ``final``."""
    propagator = Propagator()
    propagator.final = final
    return propagator


def test_probe_adds_cuts_until_a_model_needs_none(monkeypatch):
    # the first total assignment sets x1 (the saved phase), and the final
    # check's cut -x1 sets every variable false through the chain
    # x4 -> x3 -> x2 -> x1, in the same search
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
        return [[-1]] if assignment[1] else []

    out = internal_solve_fn()(clauses, 4, final_check(cuts))()
    assert out.is_sat and not any(out.model.assignment.values())
    # the final check is asked again until it returns nothing, and the
    # model is the assignment that it accepted
    assert len(asked) == 2 and asked[-1] == out.model.assignment
    assert len(opened) == 1 and opened[0].added == [[-1]]
    # a cut that contradicts the base clauses makes the whole formula unsat
    assert internal_solve_fn()([[1], [2]], 2, final_check(lambda a: [[-1, -2]]))().is_unsat


def test_a_later_probe_needs_no_recut():
    # the first probe cuts x1 and x2, which then stay in the solver: the
    # second probe's first total assignment already satisfies them
    asked = []
    added = []

    def cuts(assignment):
        asked.append(dict(assignment))
        new = [[-v] for v in (1, 2) if assignment[v]]
        added.extend(new)
        return new

    probe = internal_solve_fn()([[1, 2, 3]], 3, final_check(cuts))
    out = probe()
    assert out.is_sat and len(asked) == 2 and added == [[-1], [-2]]
    # each probe reports the cut clauses that it added
    assert (out.stats["cut_clauses"], out.stats["propagated"]) == (2, 0)
    asked.clear()
    out = probe()
    assert out.is_sat and len(asked) == 1
    assert (out.stats["cut_clauses"], out.stats["propagated"]) == (0, 0)
    assert check_model(added, out.model)


def test_a_probe_meets_its_assumptions_and_the_cuts():
    # the cuts allow at most one of x1..x4; the assumptions rule out x1, x2
    def cuts(assignment):
        on = [v for v in range(1, 5) if assignment[v]]
        return [[-on[0], -v] for v in on[1:]]

    probe = internal_solve_fn()([[1, 2, 3, 4]], 4, final_check(cuts))
    out = probe([-1, -2])
    assert out.is_sat and not out.model[1] and not out.model[2]
    assert sum(out.model[v] for v in range(1, 5)) == 1
    # unsat under assumptions, through a cut, leaves the formula sat
    assert probe([3, 4]).is_unsat
    assert probe().is_sat


def test_a_probe_has_one_deadline(monkeypatch):
    # a probe is one solve_internal call, given the whole budget; the time
    # that the final check takes counts against it, so the conflict that
    # its cut starts finds the budget spent.  The cut stays queued, and the
    # next probe, with a budget of its own, takes it in
    budgets = []

    def recorded(*args, timeout=None, **kwargs):
        budgets.append(timeout)
        return solve_internal(*args, timeout=timeout, **kwargs)

    monkeypatch.setattr("gridloop.solver.solve_internal", recorded)

    def cuts(assignment):
        time.sleep(0.05)
        return [[-1]] if assignment[1] else []

    probe = internal_solve_fn(timeout=0.02)([[1, -2], [2, -3]], 3, final_check(cuts))
    out = probe()
    assert out.status == "unknown" and out.reason == "solver timeout"
    out = probe()
    assert out.is_sat and not out.model[1]
    assert budgets == [0.02, 0.02]


def test_probe_stats_count_its_one_search(monkeypatch):
    calls = []

    def recorded(*args, **kwargs):
        out = solve_internal(*args, **kwargs)
        calls.append(dict(out.stats))
        return out

    monkeypatch.setattr("gridloop.solver.solve_internal", recorded)
    clauses, sel = guarded_pigeonhole(6, 5)
    # the first total assignment has sel false; the cut asks for sel, and
    # the same search refutes the pigeonhole clauses
    out = internal_solve_fn()(clauses, sel, final_check(lambda a: [] if a[sel] else [[sel]]))()
    assert out.is_unsat and calls == [out.stats]
    assert out.stats["conflicts"] > 128 and out.stats["restarts"] >= 1
    assert (out.stats["cut_clauses"], out.stats["propagated"]) == (1, 0)


def test_drain_attaches_each_queued_clause_by_its_state():
    # x1, x2, x3 decided at levels 1-3
    s = _Solver([], 6)
    s._load()
    for lit in (1, 2, 3):
        s.trail_lim.append(len(s.trail))
        s._assign(lit, None)
    s._queue([[-1, 4, -3, 5], [-1, -3, 6, -2], [-1, 2, -3]])
    watched, unit, true = s.added
    assert s._drain() is None and not s.queue
    # two literals not false: watched on them
    assert watched[:2] == [4, 5]
    # one unassigned literal, the rest false: assigned with the clause as
    # its reason, and watched on it and the false literal of highest level
    assert unit[:2] == [6, -3] and s.trail[-1] == 6 and s.reason[6] is unit
    # one true literal: watched on it and the false literal of highest level
    assert true[:2] == [2, -3]
    for cl in (watched, unit, true):
        assert cl in s.watches[cl[0] + 6] and cl in s.watches[cl[1] + 6]
    # false, with no literal at level 3: the conflict, still queued, after a
    # backjump to level 2, which undoes x3 and x6
    s._queue([[-2, -1]])
    false = s.added[-1]
    assert s._drain() is false and list(s.queue) == [false]
    assert s.trail == [1, 2] and s.trail_lim == [0, 1]
    # a unit clause goes in at level 0, whatever the level of the drain
    s.queue.clear()
    s._queue([[-5]])
    assert s._drain() is None and s.trail == [-5] and s.level[5] == 0


def test_internal_solve_fn_probes_share_one_solver():
    clauses, sel = guarded_pigeonhole(6, 5)
    probe = internal_solve_fn()(clauses, sel)
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
        s = cls(clauses, nvars)
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


def test_external_solve_fn():
    fn = external_solve_fn(BUNDLED)
    assert fn([[1]], 1)().is_sat
    assert fn([[1], [-1]], 1)().is_unsat
    probe = fn([[1, 2]], 2)
    assert probe([-1]).model[2]
    assert probe([-1, -2]).is_unsat


def test_external_solve_fn_refuses_cuts():
    # an external solver takes the complete, eager formula, not a propagator
    with pytest.raises(ValueError, match="propagator"):
        external_solve_fn(BUNDLED)([[1]], 1, Propagator())


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
