"""Verifiers share no code with the encoders: a wrong encoder helper leaves
every verdict as it was."""
import copy
import glob
import os

import pytest

from gridloop.cli import _PARSERS, _VERIFIERS, RunConfig, run

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def tapa_mutants(sol):
    """The solution with one cell flipped, for each cell."""
    for r, row in enumerate(sol.black):
        for c in range(len(row)):
            mutant = copy.deepcopy(sol)
            mutant.black[r][c] ^= 1
            yield mutant


def roadrunner_mutants(sol):
    """The solution with one laser placed or taken away, for each cell."""
    for y, row in enumerate(sol.laser):
        for x in range(len(row)):
            mutant = copy.deepcopy(sol)
            mutant.laser[y][x] ^= 1
            yield mutant


@pytest.mark.parametrize(
    "kind, helper, wrong, mutants, clue_verdict",
    [
        ("tapa", "gridloop.puzzles.tapa.neighbor_ring", lambda n, r, c: ([], False),
         tapa_mutants, "clue-blocks-mismatch"),
        ("roadrunner", "gridloop.puzzles.roadrunner.quadrantal_neighbors", lambda inst, x, y: [],
         roadrunner_mutants, "clue-sum-mismatch"),
    ],
)
def test_verdicts_ignore_the_encoder_helpers(monkeypatch, kind, helper, wrong, mutants, clue_verdict):
    verify = _VERIFIERS[kind]
    cases = []
    for path in sorted(glob.glob(os.path.join(INSTANCES, f"*.{kind}"))):
        with open(path) as f:
            inst = _PARSERS[kind](f.read())
        result = run(RunConfig(kind, None, None), inst)
        assert result.status == "verified", path
        cases += [(inst, result.solution), *((inst, m) for m in mutants(result.solution))]
    verdicts = [verify(inst, sol) for inst, sol in cases]
    # the mutants reach the clue check
    assert clue_verdict in verdicts
    monkeypatch.setattr(helper, wrong)
    assert [verify(inst, sol) for inst, sol in cases] == verdicts
