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
    b.add_clause([-count.outputs[5]])  # at most 5
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


@pytest.mark.parametrize("exact", [0, 1, 3])
def test_one_way_objective(exact):
    # above ``exact`` the objective's outputs only imply their bound, so a
    # model of a probe at k may leave outputs below k false: the value is
    # read from the inputs, and the optimum (4, set by a separate full
    # counter) is still found and certified
    b = CnfBuilder()
    xs = b.new_vars(8)
    b.add_clause([-b.unary_count(xs).outputs[4]])  # at most 4
    objective = b.unary_count(xs, exact=exact)
    res = maximize(open_internal(b.clauses, b.var_count), objective)
    assert (res.status, res.best_value, res.certified) == ("optimal", 4, True)
    assert sum(res.best_model.assignment[x] for x in xs) == 4


def test_one_way_free_objective():
    b = CnfBuilder()
    xs = b.new_vars(6)
    objective = b.unary_count(xs, exact=0)
    res = maximize(open_internal(b.clauses, b.var_count), objective, lo=2)
    assert (res.status, res.best_value, res.certified) == ("optimal", 6, True)
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
