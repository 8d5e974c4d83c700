"""Roadrunner: ray geometry, optimization, exhaustive optimum, verifier."""
import functools
import glob
import os
import sys

import pytest

from gridloop import CnfBuilder, maximize, solve_internal
from gridloop.puzzles import (
    RoadrunnerSolution,
    attacked_positions,
    build_roadrunner,
    parse_roadrunner,
    verify_roadrunner,
)
from gridloop.puzzles.roadrunner import has_grid_cycle, quadrantal_neighbors, walks_circuit
from gridloop.solver import external_solve_fn, internal_solve_fn

from oracles import rr_optimum


def test_parse_roadrunner():
    inst = parse_roadrunner("3 2\n.#.\n.2.\n")
    assert (inst.max_x, inst.max_y) == (3, 2)
    assert inst.is_hill(2, 1)
    assert inst.is_hill(2, 2)
    assert inst.clues == [(2, 2, 2)]
    assert inst.white_cells() == [(1, 1), (3, 1), (1, 2), (3, 2)]


def test_parse_roadrunner_errors():
    with pytest.raises(ValueError):
        parse_roadrunner("")
    with pytest.raises(ValueError):
        parse_roadrunner("2\n..\n..\n")  # bad header
    with pytest.raises(ValueError):
        parse_roadrunner("2 2\n..\n")  # missing row
    with pytest.raises(ValueError):
        parse_roadrunner("2 2\n.x\n..\n")


def test_attacked_positions_center():
    # paper example: center of a hill-free 3x3 grid, ray order L R U D
    inst = parse_roadrunner("3 3\n...\n...\n...\n")
    assert attacked_positions(inst, 2, 2) == [(1, 2), (3, 2), (2, 1), (2, 3)]


def test_attacked_positions_blocked_by_hill():
    # 1-row grid with a hill in column 1: a laser at column 3 only reaches 2
    inst = parse_roadrunner("3 1\n#..\n")
    assert attacked_positions(inst, 3, 1) == [(2, 1)]


def test_attacked_positions_corner():
    inst = parse_roadrunner("2 2\n..\n..\n")
    assert set(attacked_positions(inst, 1, 1)) == {(2, 1), (1, 2)}


def test_attacked_positions_on_hill_rejected():
    inst = parse_roadrunner("2 2\n#.\n..\n")
    with pytest.raises(ValueError):
        attacked_positions(inst, 1, 1)


def test_quadrantal_neighbors():
    inst = parse_roadrunner("3 3\n...\n...\n...\n")
    assert set(quadrantal_neighbors(inst, 1, 1)) == {(2, 1), (1, 2)}
    assert len(quadrantal_neighbors(inst, 2, 2)) == 4


def solve_instance(text):
    inst = parse_roadrunner(text)
    b = CnfBuilder()
    decode, count, _ = build_roadrunner(b, inst)
    res = maximize(b.clauses, b.var_count, count, lo=1)
    return inst, decode, res


def test_2x2_open_optimum_4():
    inst, decode, res = solve_instance("2 2\n..\n..\n")
    assert res.status == "optimal"
    assert res.best_value == 4
    sol = decode(res.best_model.assignment)
    assert sum(sum(row) for row in sol.laser) == 0
    assert verify_roadrunner(inst, sol) is None


def test_all_hill_infeasible():
    inst = parse_roadrunner("2 2\n##\n##\n")
    b = CnfBuilder()
    _, count, _ = build_roadrunner(b, inst)
    res = maximize(b.clauses, b.var_count, count, lo=1)
    assert res.status == "infeasible"


def test_unmeetable_clue_infeasible():
    # clue 4 on a corner-adjacent hill: only 2 white neighbors exist
    inst = parse_roadrunner("2 2\n4.\n..\n")
    b = CnfBuilder()
    build_roadrunner(b, inst)
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_unmeetable_clue_maximize_infeasible():
    # the clue's empty clause is in the clause list that maximize reads
    inst = parse_roadrunner("3 1\n.4.\n")
    b = CnfBuilder()
    _, count, _ = build_roadrunner(b, inst)
    assert maximize(b.clauses, b.var_count, count, lo=1).status == "infeasible"


def read_board(path):
    with open(path) as f:
        return f.read()


BOARDS = {
    os.path.basename(p): read_board(p)
    for p in glob.glob(os.path.join(os.path.dirname(__file__), "..", "instances", "*.roadrunner"))
}
BOARDS["unmeetable-clue"] = "3 1\n.4.\n"


@pytest.mark.parametrize("name", sorted(BOARDS))
def test_maximize_internal_and_external_agree(name):
    # the internal solver answers every probe on one solver under an
    # assumption; the external one runs a process per probe on unit clauses
    inst = parse_roadrunner(BOARDS[name])
    b = CnfBuilder()
    _, count, _ = build_roadrunner(b, inst)
    internal = maximize(b.clauses, b.var_count, count, lo=1)
    external = maximize(
        b.clauses, b.var_count, count, lo=1,
        solve_fn=external_solve_fn([sys.executable, "-m", "gridloop.dimacs_solver"], timeout=300),
    )
    assert internal.status in ("optimal", "infeasible")
    assert (external.status, external.best_value, external.certified) == (
        internal.status, internal.best_value, internal.certified,
    )


def test_3x3_matches_exhaustive_optimum():
    for text in ("3 3\n...\n...\n...\n", "3 3\n#..\n...\n..1\n", "3 3\n.0.\n...\n...\n"):
        inst, decode, res = solve_instance(text)
        want = rr_optimum(inst)
        if want is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert res.best_value == want
            sol = decode(res.best_model.assignment)
            assert verify_roadrunner(inst, sol) is None


def test_verify_roadrunner_rejects():
    inst = parse_roadrunner("2 2\n..\n..\n")
    ok = RoadrunnerSolution([[0, 0], [0, 0]], [[1, 1], [1, 1]], 4)
    assert verify_roadrunner(inst, ok) is None
    # road flagged on a covered cell
    laser = RoadrunnerSolution([[1, 0], [0, 0]], [[0, 1], [1, 1]], 3)
    assert verify_roadrunner(inst, laser) == "road-not-safe-set"
    # two lasers in one row
    pair = RoadrunnerSolution([[1, 1], [0, 0]], [[0, 0], [0, 0]], 0)
    assert verify_roadrunner(inst, pair) == "lasers-see-each-other"
    # laser and road on the same cell
    overlap = RoadrunnerSolution([[1, 0], [0, 0]], [[1, 0], [0, 0]], 1)
    assert verify_roadrunner(inst, overlap) == "laser-on-road"
    # k out of sync
    badk = RoadrunnerSolution([[0, 0], [0, 0]], [[1, 1], [1, 1]], 3)
    assert verify_roadrunner(inst, badk) == "k-mismatch"
    # empty road
    empty = RoadrunnerSolution([[0, 0], [0, 0]], [[0, 0], [0, 0]], 0)
    assert verify_roadrunner(inst, empty) is not None
    # wrong grid size
    small = RoadrunnerSolution([[0]], [[1]], 1)
    assert verify_roadrunner(inst, small) == "wrong-grid-size"


def test_verify_roadrunner_clue_sum():
    inst = parse_roadrunner("3 3\n...\n.2.\n...\n")
    # lasers at (2,1) and (2,3) meet the clue but see each other? no: the
    # hill at (2,2) blocks the column between them
    sol = RoadrunnerSolution(
        [[0, 1, 0], [0, 0, 0], [0, 1, 0]],
        [[0, 0, 0], [1, 0, 1], [0, 0, 0]],
        2,
    )
    # clue satisfied and road = safe set, but the two safe cells (1,2) and
    # (3,2) are not adjacent, so no single circuit exists
    assert verify_roadrunner(inst, sol) == "road-not-a-circuit"
    one_laser = RoadrunnerSolution(
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        0,
    )
    assert verify_roadrunner(inst, one_laser) == "clue-sum-mismatch"


def test_verify_roadrunner_checks_the_cycle_order():
    # a 3x2 board with no hill: the safe road is all six cells, (x, y)
    inst = parse_roadrunner("3 2\n...\n...\n")
    none, road = [[0] * 3] * 2, [[1] * 3] * 2
    ring = [(1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (1, 2)]
    assert verify_roadrunner(inst, RoadrunnerSolution(none, road, 6, ring)) is None
    wrong = {
        "non-adjacent step": [(1, 1), (3, 1), (2, 1), (3, 2), (2, 2), (1, 2)],
        "repeated cell": [(1, 1), (2, 1), (3, 1), (3, 2), (2, 2), (2, 1)],
        "missed road cell": [(1, 1), (2, 1), (2, 2), (1, 2)],
        "extra cell": ring + [(1, 1)],
    }
    for why, order in wrong.items():
        sol = RoadrunnerSolution(none, road, 6, order)
        assert verify_roadrunner(inst, sol) == "road-not-a-circuit", why
    # without an order, a search decides
    assert verify_roadrunner(inst, RoadrunnerSolution(none, road, 6)) is None


def test_walks_circuit():
    assert walks_circuit({(1, 1)}, [(1, 1)])
    assert walks_circuit({(1, 1), (1, 2)}, [(1, 2), (1, 1)])
    assert not walks_circuit({(1, 1), (1, 3)}, [(1, 1), (1, 3)])
    assert not walks_circuit({(1, 1)}, [])
    square = [(1, 1), (2, 1), (2, 2), (1, 2)]
    assert walks_circuit(set(square), square)
    assert not walks_circuit(set(square), [(1, 1), (2, 2), (2, 1), (1, 2)])


@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "instances", "*.roadrunner"))),
)
def test_decoded_solutions_carry_their_cycle(path):
    with open(path) as f:
        inst = parse_roadrunner(f.read())
    for lazy in (False, True):
        b = CnfBuilder()
        decode, count, propagator = build_roadrunner(b, inst, lazy=lazy)
        fn = functools.partial(internal_solve_fn(), propagator=propagator)
        res = maximize(b.clauses, b.var_count, count, solve_fn=fn, lo=1)
        sol = decode(res.best_model.assignment)
        roads = {(x, y) for y, row in enumerate(sol.road, 1) for x, bit in enumerate(row, 1) if bit}
        assert sol.cycle is not None and walks_circuit(roads, sol.cycle)
        assert verify_roadrunner(inst, sol) is None


def test_has_grid_cycle():
    assert has_grid_cycle({(1, 1)})
    assert has_grid_cycle({(1, 1), (1, 2)})
    assert not has_grid_cycle({(1, 1), (1, 3)})
    assert has_grid_cycle({(1, 1), (1, 2), (2, 1), (2, 2)})
    assert not has_grid_cycle({(1, 1), (1, 2), (2, 1)})  # L-tromino
    assert not has_grid_cycle(set())
    # 2x3 block: Hamiltonian via the perimeter
    assert has_grid_cycle({(r, c) for r in (1, 2) for c in (1, 2, 3)})
    # plus-pentomino: center has 4 neighbors but no closed tour exists
    assert not has_grid_cycle({(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)})
