"""CLI subcommands, exit codes, output formats, and encode round-trips."""
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from gridloop import CnfBuilder, parse_dimacs, solve_internal
from gridloop.puzzles import parse_roadrunner, parse_tapa
from gridloop.cli import (
    _BUILDERS,
    _PARSERS,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_REJECT,
    EXIT_UNKNOWN,
    RunConfig,
    build_parser,
    infer_kind,
    main,
    run,
)

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def inst_path(name):
    return os.path.join(INSTANCES, name)


def test_infer_kind():
    assert infer_kind("x.masyu", None) == "masyu"
    assert infer_kind("x.rr", None) == "roadrunner"
    assert infer_kind("whatever", "tapa") == "tapa"
    with pytest.raises(ValueError):
        infer_kind("x.txt", None)
    with pytest.raises(ValueError):
        infer_kind("x.masyu", "sudoku")


def test_solve_masyu_ascii(capsys):
    assert main(["solve", inst_path("masyu_4x4.masyu")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "VERIFIED" in out


@pytest.mark.parametrize(
    "name",
    [
        "masyu_4x4.masyu",
        "shingoki_4x4.shingoki",
        "tapa_4x4.tapa",
        "roadrunner_3x3_0.roadrunner",
    ],
)
def test_solve_json_roundtrip(name, tmp_path, capsys):
    assert main(["solve", inst_path(name), "--output", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == infer_kind(name, None)
    if "cycle" in data:
        assert data["k"] == len(data["cycle"])
    sol_file = tmp_path / "sol.json"
    sol_file.write_text(json.dumps(data))
    assert main(["verify", inst_path(name), str(sol_file)]) == EXIT_OK
    assert "ACCEPT" in capsys.readouterr().out


def test_solve_roadrunner_prints_k(capsys):
    assert main(["solve", inst_path("roadrunner_3x3_0.roadrunner")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "safecircuitlen(" in out
    assert "VERIFIED" in out


def test_solve_tapa_json(capsys):
    assert main(["solve", inst_path("tapa_4x4.tapa"), "--output", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "tapa"
    assert len(data["black"]) == data["n"]


def test_solve_infeasible_exit(tmp_path, capsys):
    bad = tmp_path / "bad.masyu"
    bad.write_text("1\nw\n")
    assert main(["solve", str(bad)]) == EXIT_INFEASIBLE
    assert "INFEASIBLE" in capsys.readouterr().out


def test_solve_parse_error_exit(tmp_path, capsys):
    # a grid size below 1 is an input error for every grid kind
    for name, text in [
        ("bad.masyu", "not a grid\n"),
        ("zero.shingoki", "0\n"),
        ("zero.tapa", "0\n"),
        ("negative.tapa", "-1\n"),
    ]:
        bad = tmp_path / name
        bad.write_text(text)
        assert main(["solve", str(bad)]) == EXIT_INPUT, name
        assert "error:" in capsys.readouterr().err, name


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
def test_solve_timeout_must_be_finite_and_positive(timeout, capsys):
    for solver in ([], ["--solver", "no-such-solver"]):
        argv = ["solve", inst_path("masyu_4x4.masyu"), "--timeout", timeout, *solver]
        assert main(argv) == EXIT_INPUT, solver
        assert "time budget" in capsys.readouterr().err


def test_solve_missing_file_exit(capsys):
    assert main(["solve", "/nonexistent.masyu"]) == EXIT_INPUT


def test_solve_timeout_bounds_internal_solver(capsys):
    assert main(["solve", inst_path("masyu_7x7.masyu"), "--timeout", "0.001"]) == EXIT_UNKNOWN
    assert "UNKNOWN" in capsys.readouterr().out


def test_solve_timeout_bounds_each_maximize_probe(capsys):
    path = inst_path("roadrunner_6x6_3.roadrunner")
    assert main(["solve", path, "--timeout", "0.001"]) == EXIT_UNKNOWN
    assert "UNKNOWN: solver timeout" in capsys.readouterr().out


def test_shingoki_build_time_does_not_grow_with_the_clue(tmp_path, capsys):
    # no pair of arms on a 3x3 board sums to the clue, which the build
    # finds without counting up to it
    path = tmp_path / "huge.shingoki"
    path.write_text("3\n. . .\n. w1000000 .\n. . .\n")
    start = time.monotonic()
    assert main(["solve", str(path)]) == EXIT_INFEASIBLE
    assert time.monotonic() - start < 1.0
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize(
    "output",
    [
        "s SATISFIABLE\nv 1 x 0\n",  # a value token that is not an integer
        "s SATISFIABLE\nv 0\n",  # an all-false model, which breaks the loop clauses
    ],
    ids=["non-integer-value", "model-fails-check"],
)
def test_solve_bad_solver_output_is_unknown(output, tmp_path, capsys):
    script = tmp_path / "fake_solver.py"
    script.write_text(f"print({output!r}, end='')\n")
    cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    assert main(["solve", inst_path("masyu_4x4.masyu"), "--solver", cmd]) == EXIT_UNKNOWN
    out = capsys.readouterr().out
    assert out.startswith("UNKNOWN")
    assert "cnf kept at" in out


@pytest.mark.parametrize(
    "name,decoder",
    [
        ("masyu_4x4.masyu", "gridloop.puzzles.loops.decode_loop"),
        ("shingoki_4x4.shingoki", "gridloop.puzzles.loops.decode_loop"),
        ("tapa_4x4.tapa", "gridloop.puzzles.tapa.decode_coloring"),
        ("roadrunner_3x3_0.roadrunner", "gridloop.puzzles.roadrunner.decode_roadrunner"),
    ],
    ids=["masyu", "shingoki", "tapa", "roadrunner"],
)
def test_solve_decoder_failure_is_rejected(name, decoder, monkeypatch, capsys):
    # each kind's decoder, patched where it is defined, is the one run() calls
    def broken_decode(*args):
        raise RuntimeError("decoded walk does not close")

    monkeypatch.setattr(decoder, broken_decode)
    assert main(["solve", inst_path(name)]) == EXIT_REJECT
    err = capsys.readouterr().err
    assert "error: decoded solution rejected: decoded walk does not close" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", inst_path("masyu_4x4.masyu"), "--seed", "1"],
        ["verify", inst_path("masyu_4x4.masyu"), "sol.json", "--timeout", "1"],
        ["bench", "no-such-dir", "--jobs", "2"],
    ],
    ids=["encode-seed", "verify-timeout", "bench-jobs"],
)
def test_subcommands_refuse_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_encode_roundtrip(tmp_path, capsys):
    cnf = tmp_path / "m.cnf"
    assert (
        main(["encode", inst_path("masyu_4x4.masyu"), "-o", str(cnf)]) == EXIT_OK
    )
    nvars, clauses = parse_dimacs(cnf.read_text())
    assert solve_internal(clauses, nvars).is_sat
    # sidecar names every cell and edge literal
    names = (tmp_path / "m.cnf.map").read_text()
    assert "cell_1_1" in names
    assert "edge_1_1_1_2" in names


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
def test_encode_repeats_no_clause(name, tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    assert main(["encode", inst_path(name), "-o", str(cnf)]) == EXIT_OK
    _, clauses = parse_dimacs(cnf.read_text())
    assert len({frozenset(cl) for cl in clauses}) == len(clauses)


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
def test_builders_share_one_contract(name, tmp_path, capsys):
    # every builder returns (decode, objective, propagator); with lazy, Tapa
    # and Road Runner have a propagator, and the loop puzzles have one when a
    # circle is on the board
    kind = infer_kind(name, None)
    with open(inst_path(name)) as f:
        inst = _PARSERS[kind](f.read())
    cnf = tmp_path / "f.cnf"
    assert main(["encode", inst_path(name), "-o", str(cnf)]) == EXIT_OK
    _, encoded = parse_dimacs(cnf.read_text())
    has_propagator = kind in ("tapa", "roadrunner") or (
        kind in ("masyu", "shingoki")
        and any(cell not in (".", None) for row in inst.board for cell in row)
    )
    for lazy in (False, True):
        b = CnfBuilder()
        out = _BUILDERS[kind](b, inst, lazy=lazy)
        assert isinstance(out, tuple) and len(out) == 3
        decode, objective, propagator = out
        assert callable(decode)
        assert (objective is None) == (kind != "roadrunner")
        if lazy:
            assert (propagator is not None) == has_propagator
        else:
            assert propagator is None and b.clauses == encoded


@pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
def test_run_takes_the_lazy_model_on_the_internal_solver_only(external):
    # run() reports the size of the formula it solved
    cmd = [sys.executable, "-m", "gridloop.dimacs_solver"] if external else None
    for name in ("masyu_4x4.masyu", "tapa_4x4.tapa", "roadrunner_4x4_1.roadrunner"):
        path = inst_path(name)
        kind = infer_kind(name, None)
        with open(path) as f:
            inst = _PARSERS[kind](f.read())
        result = run(RunConfig(kind, path, cmd, 60.0), inst)
        b = CnfBuilder()
        _BUILDERS[kind](b, inst, lazy=not external)
        assert result.status == "verified", name
        assert (result.vars, result.clauses) == (b.var_count, len(b.clauses)), name


@pytest.mark.parametrize(
    "name", sorted(n for n in os.listdir(INSTANCES) if n.endswith((".roadrunner", ".tapa")))
)
def test_encode_names_no_cell_that_cannot_be_in(name, tmp_path, capsys):
    # a Road Runner hill is never on the road and a Tapa clue cell is never
    # black: neither gets a literal
    cnf = tmp_path / "f.cnf"
    assert main(["encode", inst_path(name), "-o", str(cnf)]) == EXIT_OK
    names = {ln.split()[1] for ln in (tmp_path / "f.cnf.map").read_text().splitlines()}
    with open(inst_path(name)) as f:
        text = f.read()
    if name.endswith(".roadrunner"):
        inst = parse_roadrunner(text)
        cells = [(y, x) for y in range(1, inst.max_y + 1) for x in range(1, inst.max_x + 1)]
        absent = {(y, x) for y, x in cells if inst.is_hill(x, y)}
        prefix = "road"
    else:
        inst = parse_tapa(text)
        cells = [(r, c) for r in range(1, inst.n + 1) for c in range(1, inst.n + 1)]
        absent = set(inst.clue_cells())
        prefix = "cell"
    assert absent
    for r, c in cells:
        assert (f"{prefix}_{r}_{c}" in names) == ((r, c) not in absent), (r, c)


@pytest.mark.parametrize("text, code", [("1\n0\n", EXIT_OK), ("1\n3\n", EXIT_INFEASIBLE)])
def test_solve_tapa_1x1_clue(text, code, tmp_path, capsys):
    # the only cell is a clue with an empty ring, so only a zero clue is met
    path = tmp_path / "one.tapa"
    path.write_text(text)
    assert main(["solve", str(path)]) == code
    assert ("VERIFIED" in capsys.readouterr().out) == (code == EXIT_OK)
    assert main(["encode", str(path), "-o", str(tmp_path / "one.cnf")]) == EXIT_OK


class _ClosedPipe:
    """A stdout whose reader has gone away, on a real descriptor."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_WRONLY | os.O_CREAT)

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_encode_closed_stdout_exits_cleanly(tmp_path, monkeypatch):
    pipe = _ClosedPipe(tmp_path / "stdout")
    monkeypatch.setattr(sys, "stdout", pipe)
    try:
        argv = ["encode", inst_path("masyu_4x4.masyu"), "-o", str(tmp_path / "m.cnf")]
        assert main(argv) == EXIT_REJECT
        # the descriptor now points at devnull: a later flush cannot fail
        assert os.path.samestat(os.fstat(pipe.fd), os.stat(os.devnull))
    finally:
        os.close(pipe.fd)
    assert (tmp_path / "m.cnf").exists()


def test_encode_external_solver_protocol(tmp_path, capsys):
    # bundled DIMACS solver accepts the emitted file
    import subprocess
    import sys

    cnf = tmp_path / "t.cnf"
    assert main(["encode", inst_path("tapa_4x4.tapa"), "-o", str(cnf)]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "gridloop.dimacs_solver", str(cnf)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 10
    assert "s SATISFIABLE" in proc.stdout


def test_encode_infeasible_external_solver_unsat(tmp_path, capsys):
    # the empty clause reaches the DIMACS file, so any solver proves UNSAT
    bad = tmp_path / "bad.masyu"
    bad.write_text("1\nw\n")
    cnf = tmp_path / "bad.cnf"
    assert main(["encode", str(bad), "-o", str(cnf)]) == EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "gridloop.dimacs_solver", str(cnf)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 20
    assert "s UNSATISFIABLE" in proc.stdout
    cmd = f"{shlex.quote(sys.executable)} -m gridloop.dimacs_solver"
    assert main(["solve", str(bad), "--solver", cmd]) == EXIT_INFEASIBLE


def test_solve_with_external_solver(capsys):
    import sys

    cmd = f"{sys.executable} -m gridloop.dimacs_solver"
    assert (
        main(["solve", inst_path("masyu_4x4.masyu"), "--solver", cmd]) == EXIT_OK
    )
    assert "VERIFIED" in capsys.readouterr().out


@pytest.mark.parametrize("external", [False, True], ids=["internal", "external"])
@pytest.mark.parametrize(
    "name, text",
    [
        ("one.masyu", "1\n.\n"),
        ("two.masyu", "2\n..\n..\n"),
        ("one.shingoki", "1\n.\n"),
        ("two.shingoki", "2\n. .\n. .\n"),
    ],
)
def test_blank_loop_board_is_solved(name, text, external, tmp_path, capsys):
    # no circle puts a cell in, so a blank board keeps the eager model, in
    # which a lone in-cell is a loop
    path = tmp_path / name
    path.write_text(text)
    argv = ["solve", str(path), "--output", "json"]
    if external:
        argv += ["--solver", f"{shlex.quote(sys.executable)} -m gridloop.dimacs_solver"]
    assert main(argv) == EXIT_OK
    answer = tmp_path / "answer.json"
    answer.write_text(capsys.readouterr().out)
    assert main(["verify", str(path), str(answer)]) == EXIT_OK
    assert "ACCEPT" in capsys.readouterr().out


def test_encode_ignores_solver_env(tmp_path, monkeypatch, capsys):
    # only solve and bench read the solver command
    monkeypatch.setenv("GRIDLOOP_SOLVER", '"unbalanced')
    cnf = tmp_path / "m.cnf"
    assert main(["encode", inst_path("masyu_4x4.masyu"), "-o", str(cnf)]) == EXIT_OK
    assert main(["solve", inst_path("masyu_4x4.masyu")]) == EXIT_INPUT


def test_cached_parser_reads_solver_env_on_every_run(monkeypatch, capsys):
    # the parser is built once per process, so the environment is read
    # when a command runs, not when the parser was built
    assert build_parser() is build_parser()
    monkeypatch.delenv("GRIDLOOP_SOLVER", raising=False)
    assert main(["solve", inst_path("masyu_4x4.masyu")]) == EXIT_OK
    monkeypatch.setenv("GRIDLOOP_SOLVER", '"unbalanced')
    assert main(["solve", inst_path("masyu_4x4.masyu")]) == EXIT_INPUT
    monkeypatch.delenv("GRIDLOOP_SOLVER")
    assert main(["solve", inst_path("masyu_4x4.masyu")]) == EXIT_OK


def test_dimacs_solver_takes_a_repeated_literal(tmp_path):
    # 1 1 -2 is the clause 1 -2; with the tautology and -1 the one model
    # is -1 -2
    cnf = tmp_path / "rep.cnf"
    cnf.write_text("p cnf 2 3\n1 1 -2 0\n1 -1 0\n-1 -1 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "gridloop.dimacs_solver", str(cnf)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 10
    lines = proc.stdout.splitlines()
    assert lines[0] == "s SATISFIABLE"
    assert " ".join(ln[2:] for ln in lines[1:]) == "-1 -2 0"


def test_verify_mutated_rejects(tmp_path, capsys):
    assert main(["solve", inst_path("tapa_4x4.tapa"), "--output", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    data["black"][0][0] ^= 1
    sol_file = tmp_path / "mut.json"
    sol_file.write_text(json.dumps(data))
    assert main(["verify", inst_path("tapa_4x4.tapa"), str(sol_file)]) == EXIT_REJECT
    assert "REJECT" in capsys.readouterr().out


def test_verify_wrong_size_is_input_error(tmp_path, capsys):
    sol_file = tmp_path / "small.json"
    sol_file.write_text(json.dumps({"kind": "tapa", "n": 2, "black": [[0, 0], [0, 0]]}))
    assert main(["verify", inst_path("tapa_4x4.tapa"), str(sol_file)]) == EXIT_INPUT


def test_verify_malformed_json(tmp_path, capsys):
    sol_file = tmp_path / "junk.json"
    sol_file.write_text("{nope")
    assert main(["verify", inst_path("tapa_4x4.tapa"), str(sol_file)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_bench_csv(tmp_path, capsys):
    for name in ("masyu_4x4.masyu", "tapa_4x4.tapa", "roadrunner_3x3_0.roadrunner"):
        with open(inst_path(name)) as f:
            (tmp_path / name).write_text(f.read())
    assert main(["bench", str(tmp_path)]) == EXIT_OK
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    assert lines[0].startswith("instance,vars,clauses,seconds,result")
    assert len(lines) == 5  # header + 3 rows + TOTAL
    assert lines[-1].startswith("TOTAL,")
    total_vars = sum(int(ln.split(",")[1]) for ln in lines[1:4])
    assert int(lines[-1].split(",")[1]) == total_vars


def test_bench_empty_dir(tmp_path, capsys):
    assert main(["bench", str(tmp_path)]) == EXIT_INPUT


def test_bench_result_per_kind(tmp_path, capsys):
    expected = {
        "masyu_4x4.masyu": "verified",
        "shingoki_4x4.shingoki": "verified",
        "tapa_4x4.tapa": "verified",
        "roadrunner_3x3_0.roadrunner": "optimal k=4",
    }
    for name in expected:
        with open(inst_path(name)) as f:
            (tmp_path / name).write_text(f.read())
    assert main(["bench", str(tmp_path)]) == EXIT_OK
    rows = [ln.split(",") for ln in capsys.readouterr().out.splitlines()[1:-1]]
    assert {row[0]: row[4] for row in rows} == expected
