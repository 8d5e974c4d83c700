"""The formulas themselves: every encoder writes the same formula for the
same board however often and in whatever order it is asked, a wrong
verifier helper leaves every formula as it was, and the edge cases of the
batch writers (boards of one cell or of clues only, rings and circles that
no layout or pair fits, a unit that two circles write, a cell closed in by
hills) give the clauses their rules ask for."""
import hashlib
import json
import os

import pytest

from gridloop import CnfBuilder, maximize
from gridloop.cli import _BUILDERS, _PARSERS, _VERIFIERS, infer_kind
from gridloop.solver import open_internal

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")
BUNDLED = sorted(os.listdir(INSTANCES))


def bundled(name):
    kind = infer_kind(name, None)
    with open(os.path.join(INSTANCES, name)) as f:
        return kind, _PARSERS[kind](f.read())


def formula(kind, inst, lazy):
    """A SHA-256 over the built formula: var_count, clauses in order, names."""
    b = CnfBuilder()
    _BUILDERS[kind](b, inst, lazy=lazy)
    text = json.dumps([b.var_count, b.clauses, sorted(b.names.items())])
    return hashlib.sha256(text.encode()).hexdigest()


def build(kind, text, lazy):
    inst = _PARSERS[kind](text)
    b = CnfBuilder()
    decode, objective, propagator = _BUILDERS[kind](b, inst, lazy=lazy)
    return inst, b, decode, objective, propagator


def solve(kind, text, lazy):
    """The status of one board and, if sat, the verifier's verdict on the
    answer (None for an accepted one)."""
    inst, b, decode, objective, propagator = build(kind, text, lazy)
    probe = open_internal(b.clauses, b.var_count, propagator)
    if objective is None:
        out = probe()
        status, model = out.status, out.model
    else:
        result = maximize(probe, objective, lo=1)
        status, model = {"optimal": "sat", "infeasible": "unsat"}[result.status], result.best_model
    return status, _VERIFIERS[kind](inst, decode(model.assignment)) if status == "sat" else None


@pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
@pytest.mark.parametrize("kind", sorted(_BUILDERS))
def test_builds_keep_no_state_between_boards(kind, lazy):
    # instance A, another instance B of the kind, then A again: cached
    # tables that a build reads must come back as they were
    names = [name for name in BUNDLED if infer_kind(name, None) == kind and name != "masyu_30x30.masyu"]
    a, b = names[0], names[-1]
    assert a != b
    first = formula(*bundled(a), lazy)
    formula(*bundled(b), lazy)
    assert formula(*bundled(a), lazy) == first


VERIFIER_HELPERS = [
    ("gridloop.puzzles.roadrunner._segment_groups", lambda inst: []),
    ("gridloop.puzzles.loops.loop_neighbors", lambda sol: {}),
    ("gridloop.puzzles.masyu.loop_neighbors", lambda sol: {}),
    ("gridloop.puzzles.shingoki.loop_neighbors", lambda sol: {}),
    ("gridloop.puzzles.loops.arm_length", lambda neighbors, cell, first: 0),
    ("gridloop.puzzles.shingoki.arm_length", lambda neighbors, cell, first: 0),
    ("gridloop.puzzles.tapa._ring_runs", lambda pattern, circular: [9]),
]


def test_formulas_ignore_the_verifier_helpers(monkeypatch):
    # the reverse of test_verifiers.py: encoders share no code with verifiers
    cases = [(name, lazy) for name in BUNDLED for lazy in (False, True)]
    before = [formula(*bundled(name), lazy) for name, lazy in cases]
    for target, wrong in VERIFIER_HELPERS:
        monkeypatch.setattr(target, wrong)
    assert [formula(*bundled(name), lazy) for name, lazy in cases] == before


# -- edge cases of the batch writers ------------------------------------

LAZY = pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])


@LAZY
@pytest.mark.parametrize("clue, status", [("0", "sat"), ("1", "unsat")])
def test_tapa_one_cell_board(clue, status, lazy):
    # the clue cell is the whole board: its ring is empty, so only zero fits
    _, b, _, _, _ = build("tapa", f"1\n{clue}\n", lazy)
    assert b.var_count == 1
    assert b.clauses == ([[1]] if clue == "0" else [[1], []])
    assert solve("tapa", f"1\n{clue}\n", lazy) == (status, None)


@LAZY
@pytest.mark.parametrize("text, status", [("2\n0 0\n0 0\n", "sat"), ("2\n1 0\n0 0\n", "unsat")])
def test_tapa_board_of_clues_only(text, status, lazy):
    _, b, _, _, _ = build("tapa", text, lazy)
    assert b.var_count == 1  # no cell can be black
    assert ([] in b.clauses) == (status == "unsat")
    assert solve("tapa", text, lazy) == (status, None)


@LAZY
def test_tapa_clue_whose_every_layout_blackens_a_clue_cell(lazy):
    # the 3 at (1, 1) needs its whole ring black, and (2, 2) holds a clue
    text = "2\n3 .\n. 0\n"
    _, b, _, _, _ = build("tapa", text, lazy)
    assert [] in b.clauses
    assert solve("tapa", text, lazy) == ("unsat", None)


@LAZY
def test_tapa_ring_with_one_free_cell_chooses_its_literal(lazy):
    # each clue's ring holds two clue cells and the free (2, 2), so the one
    # layout that fits is that cell black, and no choice variable is made
    text = "2\n1 1\n1 .\n"
    _, b, _, _, _ = build("tapa", text, lazy)
    cell = {name: v for v, name in b.names.items()}["cell_2_2"]
    assert b.clauses.count([cell]) == 3
    if lazy:  # the eager model adds scc's labels over the one cell
        assert (b.var_count, b.clauses) == (2, [[1], [cell], [cell], [cell]])
    assert solve("tapa", text, lazy) == ("sat", None)


@LAZY
@pytest.mark.parametrize(
    "kind, text",
    [
        ("masyu", "2\nb.\n..\n"),  # a black circle's arms cannot run 2 on a 2x2 board
        ("shingoki", "3\n. . .\n. w9 .\n. . .\n"),  # no pair of arms sums to 9
    ],
)
def test_loop_circle_with_no_pair_is_the_empty_clause(kind, text, lazy):
    _, b, _, _, _ = build(kind, text, lazy)
    assert b.clauses.count([]) == 1
    assert solve(kind, text, lazy) == ("unsat", None)


@LAZY
def test_loop_two_unmet_circles_write_the_empty_clause_once(lazy):
    _, b, _, _, _ = build("masyu", "2\nbb\n..\n", lazy)
    assert b.clauses.count([]) == 1


@LAZY
def test_loop_edge_forced_off_by_two_circles_is_one_unit(lazy):
    # the white circle at (1, 2) cannot pass vertically, so its edge down is
    # off; the black circle at (2, 2) turns between down and right, so its
    # edges up (the same edge) and left are off
    text = "4\n.w..\n.b..\n....\n....\n"
    _, b, _, _, _ = build("masyu", text, lazy)
    forced = [cl for cl in b.clauses if len(cl) == 1 and cl[0] < 0]
    assert len(forced) == 2 and forced[0] != forced[1]
    if lazy:  # the lazy model's edges are named
        edge = {name: v for v, name in b.names.items()}["edge_1_2_2_2"]
        assert forced[0] == [-edge]


@LAZY
def test_roadrunner_white_cell_closed_in_by_hills(lazy):
    # (3, 2) has a hill on every side: its laser sees no cell, so its road
    # is exactly "no laser here"
    text = "5 3\n..#..\n.#.#.\n..#..\n"
    _, b, _, _, _ = build("roadrunner", text, lazy)
    var = {name: v for v, name in b.names.items()}
    road, laser = var["road_2_3"], var["laser_3_2"]
    assert [cl for cl in b.clauses if laser in cl or -laser in cl] == [[-road, -laser], [road, laser]]
    eager = solve("roadrunner", text, False)
    assert solve("roadrunner", text, lazy) == eager
    assert eager[1] is None

