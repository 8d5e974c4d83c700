"""Boolean-sum maximization by binary search over unary-counter bounds.

``maximize`` takes a probe on the formula (see ``gridloop.solver``), and
each probe call solves it under a single assumption on the counter: output
k implies sum >= k, which is all a positive assumption reads, so the
counter may define its outputs one way (see ``CnfBuilder.unary_count``).
An internal probe reuses the clauses learnt by the earlier calls; an
external one runs once per call, with the assumption written as a unit
clause.  The achieved value is the number of true inputs in the model,
not of true outputs, which may be fewer; it may exceed the probed bound
and save iterations.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cnf import UnaryCount, lit_value
from .solver import Model, Probe


@dataclass
class OptimizeResult:
    status: str  # "optimal" | "infeasible" | "unknown"
    best_model: Model | None
    best_value: int | None
    solve_calls: int
    certified: bool = False  # an UNSAT probe at best_value + 1 was seen
    reason: str | None = None


def maximize(probe: Probe, objective: UnaryCount, lo: int = 0) -> OptimizeResult:
    """Maximize the number of true objective inputs, bracketing in [lo, size],
    with one ``probe`` call per bound."""
    n = hi = objective.size
    if not 0 <= lo <= n:
        raise ValueError(f"bad bracket [{lo}, {n}] for objective of size {n}")

    def at_least(bound: int):
        return probe([objective.outputs[bound - 1]] if bound >= 1 else [])

    def achieved(model: Model) -> int:
        return sum(lit_value(x, model.assignment) for x in objective.inputs)

    calls = 1
    outcome = at_least(lo)
    if outcome.is_unsat:
        return OptimizeResult("infeasible", None, None, calls)
    if not outcome.is_sat:
        return OptimizeResult("unknown", None, None, calls, reason=outcome.reason)

    best_model = outcome.model
    best = achieved(best_model)
    lo = best + 1
    last_unsat_bound = None
    while lo <= hi:
        mid = (lo + hi + 1) // 2
        calls += 1
        outcome = at_least(mid)
        if outcome.is_sat:
            v = achieved(outcome.model)
            if v < mid:
                raise RuntimeError("model violates the probed objective bound")
            best_model, best = outcome.model, v
            lo = v + 1
        elif outcome.is_unsat:
            last_unsat_bound = mid
            hi = mid - 1
        else:
            return OptimizeResult(
                "unknown", best_model, best, calls, reason=outcome.reason
            )
    certified = best == n or last_unsat_bound == best + 1
    return OptimizeResult("optimal", best_model, best, calls, certified=certified)
