"""Roadrunner: ray geometry, optimization, exhaustive optimum, verifier."""
import glob
import itertools
import os
import sys

import pytest

from gridloop import CnfBuilder, maximize, solve_internal
from gridloop.puzzles import (
    RoadrunnerSolution,
    build_roadrunner,
    parse_roadrunner,
    verify_roadrunner,
)
from gridloop.puzzles.roadrunner import _segment_groups, _sight_runs, has_grid_cycle, quadrantal_neighbors, walks_circuit
from gridloop.solver import open_external, open_internal

from oracles import has_ham_cycle_grid, input_projection, rr_optimum, sat_under


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


def test_quadrantal_neighbors():
    inst = parse_roadrunner("3 3\n...\n...\n...\n")
    assert set(quadrantal_neighbors(inst, 1, 1)) == {(2, 1), (1, 2)}
    assert len(quadrantal_neighbors(inst, 2, 2)) == 4


def seen_from(inst, x, y):
    """The cells a laser at (x, y) sees: the rest of its row and column
    runs of ``_sight_runs``."""
    return {q for run in _sight_runs(inst) if (x, y) in run for q in run} - {(x, y)}


def test_sight_center():
    # paper example: the center of a hill-free 3x3 grid sees its four
    # neighbours; each row, then each column, is one run
    inst = parse_roadrunner("3 3\n...\n...\n...\n")
    assert seen_from(inst, 2, 2) == {(1, 2), (3, 2), (2, 1), (2, 3)}
    assert _sight_runs(inst)[1] == [(1, 2), (2, 2), (3, 2)]
    assert _sight_runs(inst)[4] == [(2, 1), (2, 2), (2, 3)]


def test_sight_blocked_by_hill():
    # 1-row grid with a hill in column 1: a laser at column 3 only reaches 2
    inst = parse_roadrunner("3 1\n#..\n")
    assert seen_from(inst, 3, 1) == {(2, 1)}


def test_sight_corner():
    inst = parse_roadrunner("2 2\n..\n..\n")
    assert seen_from(inst, 1, 1) == {(2, 1), (1, 2)}


def test_sight_runs_hold_no_hill():
    inst = parse_roadrunner("3 2\n#.1\n...\n")
    runs = _sight_runs(inst)
    assert not {(1, 1), (3, 1)} & {q for run in runs for q in run}
    assert [(1, 2), (2, 2), (3, 2)] in runs and [(2, 1), (2, 2)] in runs


@pytest.mark.parametrize("text", ["3 3\n...\n...\n...\n", "4 3\n.#..\n..1.\n#...\n", "3 1\n#.#\n"])
def test_sight_runs_are_the_verifier_segments(text):
    # the encoder's sight lines and the verifier's are one set of runs
    inst = parse_roadrunner(text)
    assert sorted(_sight_runs(inst)) == sorted(_segment_groups(inst))


def test_formula_bans_what_a_laser_sees():
    # a laser in a corner leaves a road to run, and bans both a road and a
    # second laser on every cell it sees, and a road on its own cell
    inst = parse_roadrunner("5 5\n..#..\n.....\n.....\n.....\n.....\n")
    b = CnfBuilder()
    build_roadrunner(b, inst)
    var = {name: v for v, name in b.names.items()}
    for x, y in [(1, 1), (5, 5)]:
        lz = var[f"laser_{x}_{y}"]
        assert sat_under(b.clauses, b.var_count, [lz]).is_sat, (x, y)
        assert sat_under(b.clauses, b.var_count, [lz, var[f"road_{y}_{x}"]]).is_unsat, (x, y)
        for q in seen_from(inst, x, y):
            for banned in (var[f"road_{q[1]}_{q[0]}"], var[f"laser_{q[0]}_{q[1]}"]):
                assert sat_under(b.clauses, b.var_count, [lz, banned]).is_unsat, (x, y, q)


def clue_board(n, num):
    """A 7x7 board whose hill at (4, 4) holds the clue ``num`` and whose
    first n neighbours of N, E, S and W are white.  Each of those has one
    white partner, the next cell out, that alone sees it, so its laser may
    be on or off; the road is a 2x2 block in a corner; all else is hill."""
    rows = [["#"] * 7 for _ in range(7)]
    for x, y in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        rows[y - 1][x - 1] = "."
    for dx, dy in [(0, -1), (1, 0), (0, 1), (-1, 0)][:n]:
        for step in (1, 2):
            rows[3 + step * dy][3 + step * dx] = "."
    rows[3][3] = str(num)
    return "7 7\n" + "".join("".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("num", range(5))
@pytest.mark.parametrize("n", range(5))
def test_clue_allows_exactly_its_count(n, num):
    # the built formula, projected on a clue's lasers, allows exactly the
    # sets of the clue's size; a clue above its neighbour count is the
    # empty clause
    inst = parse_roadrunner(clue_board(n, num))
    b = CnfBuilder()
    build_roadrunner(b, inst)
    if num > n:
        assert [] in b.clauses
        return
    assert [] not in b.clauses
    var = {name: v for v, name in b.names.items()}
    near = [var[f"laser_{x}_{y}"] for x, y in quadrantal_neighbors(inst, 4, 4) if not inst.is_hill(x, y)]
    assert len(near) == n
    assert input_projection(b.clauses, b.var_count, near) == {
        bits for bits in itertools.product([False, True], repeat=n) if sum(bits) == num
    }


def solve_instance(text):
    inst = parse_roadrunner(text)
    b = CnfBuilder()
    decode, count, _ = build_roadrunner(b, inst)
    res = maximize(open_internal(b.clauses, b.var_count), count, lo=1)
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
    res = maximize(open_internal(b.clauses, b.var_count), count, lo=1)
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
    assert maximize(open_internal(b.clauses, b.var_count), count, lo=1).status == "infeasible"


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
    internal = maximize(open_internal(b.clauses, b.var_count), count, lo=1)
    external = maximize(
        open_external([sys.executable, "-m", "gridloop.dimacs_solver"], b.clauses, b.var_count, timeout=300),
        count, lo=1,
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
    # an open path over the whole road: its last cell does not step back
    # to its first
    path = [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1), (3, 2)]
    assert not walks_circuit(set(path), path)
    # every step is orthogonal, but the walk repeats two cells
    assert not walks_circuit(set(square), square + square[:2])


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
        res = maximize(open_internal(b.clauses, b.var_count, propagator), count, lo=1)
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
    # a full 7x7 board has 25 cells of one colour and 24 of the other, so
    # no closed walk: rejected by the count, before any search
    assert not has_grid_cycle({(x, y) for x in range(1, 8) for y in range(1, 8)})
    # two 2x2 blocks: each has a circuit, but not one through both
    assert not has_grid_cycle({(x, y) for x in (1, 2, 4, 5) for y in (1, 2)})
    # two 4x4 blocks joined through the cut cell (5,2), less the corner
    # (9,4) so that the colours balance: connected, every cell of degree two
    # or more, but no circuit
    blocks = {(x, y) for x in (1, 2, 3, 4, 6, 7, 8, 9) for y in (1, 2, 3, 4)}
    assert not has_grid_cycle(blocks - {(9, 4)} | {(5, 2)})


def test_has_grid_cycle_matches_the_search_oracle():
    # every cell set of a 3x4 board, cut cells and all
    board = [(x, y) for x in range(1, 5) for y in range(1, 4)]
    for mask in range(1 << len(board)):
        cells = {p for i, p in enumerate(board) if mask >> i & 1}
        assert has_grid_cycle(cells) == has_ham_cycle_grid(cells), sorted(cells)
