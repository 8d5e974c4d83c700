"""The lazy Tapa model (the internal solver's) against the eager ``scc``
model: the same status on every board, every lazy answer accepted by
``verify_tapa``, and connectivity cuts that every solution meets."""
import glob
import os
import random

import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.puzzles import build_tapa, parse_tapa, verify_tapa
from gridloop.solver import _Solver, internal_solve_fn

from oracles import Recording

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def statuses(text):
    """(eager status, lazy status) of one board; a lazy answer must verify."""
    inst = parse_tapa(text)
    b = CnfBuilder()
    build_tapa(b, inst)
    eager = solve_internal(b.clauses, b.var_count).status
    b = CnfBuilder()
    decode, _, propagator = build_tapa(b, inst, lazy=True)
    out = internal_solve_fn()(b.clauses, b.var_count, propagator)()
    if out.is_sat:
        assert verify_tapa(inst, decode(out.model.assignment)) is None, text
    return eager, out.status


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(INSTANCES, "tapa_*.tapa"))), ids=os.path.basename
)
def test_lazy_agrees_with_eager_on_bundled_boards(path):
    with open(path) as f:
        assert statuses(f.read()) == ("sat", "sat")


@pytest.mark.parametrize("text", ["2\n3 .\n. 3\n", "1\n3\n"])
def test_lazy_agrees_with_eager_on_infeasible_boards(text):
    assert statuses(text) == ("unsat", "unsat")


def random_board(rng):
    """An n x n board, 2 <= n <= 5, with at least one clue of one or two
    digits from 1 to 3."""
    n = rng.randint(2, 5)
    density = rng.choice([0.1, 0.2, 0.3])
    cells = [["."] * n for _ in range(n)]
    for r, c in [(rng.randrange(n), rng.randrange(n))] + [
        (r, c) for r in range(n) for c in range(n) if rng.random() < density
    ]:
        cells[r][c] = "".join(str(rng.randint(1, 3)) for _ in range(rng.choice([1, 1, 2])))
    return f"{n}\n" + "".join(" ".join(row) + "\n" for row in cells)


def test_lazy_agrees_with_eager_on_random_boards():
    rng = random.Random(20130101)
    seen = set()
    for _ in range(100):
        text = random_board(rng)
        eager, lazy = statuses(text)
        assert eager == lazy, text
        seen.add(lazy)
    assert seen == {"sat", "unsat"}


def lits(b, *names):
    lit = {name: v for v, name in b.names.items()}
    return [lit[name] for name in names]


def test_one_cut_per_component():
    # black components {(1,1), (1,2)}, {(2,4)} and {(3,3), (4,3)}, by first
    # cell; each cut pairs a component with the next one, cyclically.  The
    # clue at (1,3) is next to the first two but has no literal, so it is in
    # no cut.
    b = CnfBuilder()
    _, _, propagator = build_tapa(b, parse_tapa("4\n. . 1 .\n. . . .\n. . . .\n. . . .\n"), lazy=True)
    black = set(lits(b, "cell_1_1", "cell_1_2", "cell_2_4", "cell_3_3", "cell_4_3"))
    assignment = {v: v == 1 or v in black for v in range(1, b.var_count + 1)}
    b11, b24, b33 = lits(b, "cell_1_1", "cell_2_4", "cell_3_3")
    out = propagator.final(assignment)
    assert [sorted(cut) for cut in out] == [
        sorted([-b11, -b24] + lits(b, "cell_2_1", "cell_2_2")),
        sorted([-b24, -b33] + lits(b, "cell_1_4", "cell_2_3", "cell_3_4")),
        sorted([-b33, -b11] + lits(b, "cell_2_3", "cell_3_2", "cell_3_4", "cell_4_2", "cell_4_4")),
    ]
    for cut in out:
        assert not any(assignment[abs(l)] == (l > 0) for l in cut)


def test_no_cut_for_one_component_or_none():
    b = CnfBuilder()
    _, _, propagator = build_tapa(b, parse_tapa("3\n. . .\n. 1 .\n. . .\n"), lazy=True)
    white = {v: v == 1 for v in range(1, b.var_count + 1)}
    assert propagator.final(white) == []
    one = set(lits(b, "cell_1_1", "cell_1_2", "cell_1_3", "cell_2_3"))
    assert propagator.final({v: v == 1 or v in one for v in range(1, b.var_count + 1)}) == []


def black_sets(text):
    """Every verified solution of a board, as its set of black cell names:
    the eager formula, solved again with each coloring blocked."""
    inst = parse_tapa(text)
    b = CnfBuilder()
    decode, _, _ = build_tapa(b, inst)
    cells = [v for v, name in b.names.items() if name.startswith("cell_")]
    solver = _Solver(b.clauses, b.var_count)
    out = []
    while (found := solver.solve()).is_sat:
        a = found.model.assignment
        assert verify_tapa(inst, decode(a)) is None
        out.append({b.names[v] for v in cells if a[v]})
        solver.add_clauses([[-v if a[v] else v for v in cells]])
    return out


@pytest.mark.parametrize(
    "text",
    [
        "4\n. . . .\n. . . .\n. . . .\n. 21 . .\n",
        "4\n. 1 . .\n. . . .\n. . . .\n. . . 1\n",
        "5\n. . . . .\n3 . . . .\n. . 2 . .\n. . . . .\n. 1 . . .\n",
    ],
)
def test_every_cut_keeps_every_solution(text):
    # every clause of the propagator, of which there is at least one: the
    # search met a model with its black cells apart
    solutions = black_sets(text)
    b = CnfBuilder()
    _, _, propagator = build_tapa(b, parse_tapa(text), lazy=True)
    recording = Recording(propagator)
    out = internal_solve_fn()(b.clauses, b.var_count, recording)()
    assert out.is_sat and recording.clauses and solutions
    for cut in recording.clauses:
        for black in solutions:
            assert any((b.names[abs(l)] in black) == (l > 0) for l in cut), (cut, black)


def test_probe_reports_its_cut_clauses():
    # one search asks the final check until it accepts a total model; the
    # stats count the clauses that it returned, and Tapa's propagator has
    # no check during the search
    text = "5\n. . . . .\n3 . . . .\n. . 2 . .\n. . . . .\n. 1 . . .\n"
    b = CnfBuilder()
    _, _, propagator = build_tapa(b, parse_tapa(text), lazy=True)
    returned = []

    class Counted(Recording):
        def final(self, assignment):
            clauses = super().final(assignment)
            returned.append(len(clauses))
            return clauses

    out = internal_solve_fn()(b.clauses, b.var_count, Counted(propagator))()
    assert out.is_sat and len(returned) >= 2 and returned[-1] == 0
    assert out.stats["cut_clauses"] == sum(returned) > 0
    assert out.stats["propagated"] == 0
