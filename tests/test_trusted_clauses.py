"""The encoders write their clauses through ``CnfBuilder.add_trusted``, and
the internal solver attaches them as given: every clause of every bundled
instance, in the eager and the lazy model, and every clause that the lazy
model's propagator returns while solving, must keep the contract that
``oracles.clause_faults`` checks."""
import functools
import os

import pytest

from gridloop import CnfBuilder, maximize
from gridloop.cli import _BUILDERS, _PARSERS, infer_kind
from gridloop.solver import internal_solve_fn

from oracles import Recording, clause_faults

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
@pytest.mark.parametrize("lazy", [False, True])
def test_encoders_keep_the_trusted_contract(name, lazy):
    kind = infer_kind(name, None)
    with open(os.path.join(INSTANCES, name)) as f:
        inst = _PARSERS[kind](f.read())
    b = CnfBuilder()
    _, objective, propagator = _BUILDERS[kind](b, inst, lazy=lazy)
    assert clause_faults(b.clauses, b.var_count) == []
    if not lazy or propagator is None:
        return
    recording = Recording(propagator)
    fn = functools.partial(internal_solve_fn(), propagator=recording)
    if objective is None:
        assert fn(b.clauses, b.var_count)().is_sat
    else:
        assert maximize(b.clauses, b.var_count, objective, solve_fn=fn, lo=1).status == "optimal"
    assert clause_faults(recording.clauses, b.var_count) == []


def test_clause_faults_names_each_breach():
    clauses = [[1, -2], (1, 2), [1, 2.0], [1, 4], [-3, 2, -3], [2, 1, -2], []]
    faults = clause_faults(clauses, 3)
    assert [f.split(": ", 1)[1] for f in faults] == [
        "a tuple, not a list",
        "a literal that is not an int",
        "a literal over no variable in 1..3",
        "a repeated literal",
        "a complementary pair",
    ]
