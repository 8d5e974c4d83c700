"""Binary-search maximization over unary-counter bounds."""
import pytest

from gridloop import CnfBuilder, maximize
from gridloop.solver import SolveOutcome, open_internal


def test_free_objective_max():
    b = CnfBuilder()
    xs = b.new_vars(3)
    count = b.unary_count(xs)
    res = maximize(open_internal(b.clauses, b.var_count), count)
    assert res.status == "optimal"
    assert res.best_value == 3
    assert res.certified  # best == objective size
    assert count.value(res.best_model.assignment) == 3


def test_at_most_one_objective():
    b = CnfBuilder()
    xs = b.new_vars(3)
    b.at_most_one(xs)
    count = b.unary_count(xs)
    res = maximize(open_internal(b.clauses, b.var_count), count)
    assert res.status == "optimal"
    assert res.best_value == 1
    assert res.certified  # UNSAT probe at 2 was seen


def test_infeasible_at_lower_bound():
    b = CnfBuilder()
    xs = b.new_vars(3)
    b.at_most_one(xs)
    count = b.unary_count(xs)
    res = maximize(open_internal(b.clauses, b.var_count), count, lo=2)
    assert res.status == "infeasible"
    assert res.best_model is None


def test_solve_calls_bounded():
    b = CnfBuilder()
    xs = b.new_vars(8)
    count = b.unary_count(xs)
    b.bound_le(count, 5)
    res = maximize(open_internal(b.clauses, b.var_count), count)
    assert res.best_value == 5
    assert res.solve_calls <= 8 + 1


def test_overshoot_saves_iterations():
    # an unconstrained objective is fully satisfied by the first probe's
    # model (the solver's saved phase is positive), so one extra probe at
    # most certifies optimality
    b = CnfBuilder()
    xs = b.new_vars(6)
    count = b.unary_count(xs)
    res = maximize(open_internal(b.clauses, b.var_count), count)
    assert res.best_value == 6
    assert res.solve_calls <= 2


def test_bracket_validation():
    b = CnfBuilder()
    count = b.unary_count(b.new_vars(3))
    with pytest.raises(ValueError):
        maximize(open_internal(b.clauses, b.var_count), count, lo=-1)
    with pytest.raises(ValueError):
        maximize(open_internal(b.clauses, b.var_count), count, lo=4)


def test_unknown_propagates():
    calls = {"n": 0}

    b = CnfBuilder()
    xs = b.new_vars(3)
    b.at_most_one(xs)
    count = b.unary_count(xs)
    probe = open_internal(b.clauses, b.var_count)

    def flaky(assumptions=()):
        calls["n"] += 1
        if calls["n"] == 1:
            return probe(assumptions)
        return SolveOutcome("unknown", reason="budget")

    res = maximize(flaky, count)
    assert res.status == "unknown"
    assert res.reason == "budget"
    assert res.best_value is not None  # best-so-far retained
