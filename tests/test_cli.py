"""CLI subcommands, exit codes, output formats, and encode round-trips."""
import gc
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

from gridloop import CnfBuilder, graph, parse_dimacs, solve_internal
from gridloop.cnf import NameRule
from gridloop.puzzles import parse_roadrunner, parse_tapa
from gridloop.cli import (
    _BUILDERS,
    _PARSERS,
    _VERIFIERS,
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
    # a grid size below 1 is an input error for every grid kind, and so is
    # a Tapa clue digit above 8, which no ring of eight cells can meet
    for name, text in [
        ("bad.masyu", "not a grid\n"),
        ("zero.shingoki", "0\n"),
        ("zero.tapa", "0\n"),
        ("negative.tapa", "-1\n"),
        ("nine.tapa", "3\n. . .\n. 9 .\n. . .\n"),
        ("nine_in_four.tapa", "3\n. . .\n. 1119 .\n. . .\n"),
        ("arabic_nine.tapa", "3\n. . .\n. \u0669 .\n. . .\n"),
    ]:
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        assert main(["solve", str(bad)]) == EXIT_INPUT, name
        assert "error:" in capsys.readouterr().err, name
    assert main(["encode", str(tmp_path / "nine.tapa")]) == EXIT_INPUT
    assert "digit above 8" in capsys.readouterr().err
    assert not (tmp_path / "nine.tapa.cnf").exists()


@pytest.mark.parametrize(
    "name, board, row, rows",
    [
        ("extra.masyu", "3\n...\n...\n...\n", "...\n", 3),
        ("extra.shingoki", "3\n. . .\n. . .\n. . .\n", ". . .\n", 3),
        ("extra.tapa", "3\n. . .\n. . .\n. . .\n", ". . .\n", 3),
        ("extra.roadrunner", "3 2\n...\n...\n", "...\n", 2),
    ],
    ids=["masyu", "shingoki", "tapa", "roadrunner"],
)
def test_a_row_beyond_the_header_is_input_error(name, board, row, rows, tmp_path, capsys):
    # the board alone is read; one row more is refused, not dropped
    path = tmp_path / name
    path.write_text(board)
    assert main(["solve", str(path)]) != EXIT_INPUT
    capsys.readouterr()
    path.write_text(board + row)
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert f"error: expected {rows} board rows, found {rows + 1}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, board, bad, message",
    [
        ("row.masyu", "3\n...\n...\n...\n", "3\n...\n... x\n...\n", "row '... x' has 2 tokens, expected 1"),
        ("header.masyu", "3\n...\n...\n...\n", "3 7\n...\n...\n...\n", "expected header 'n', found '3 7'"),
        ("header.shingoki", "3\n. . .\n. . .\n. . .\n", "3 7\n. . .\n. . .\n. . .\n", "expected header 'n', found '3 7'"),
        ("header.tapa", "3\n. . .\n. . .\n. . .\n", "3 7\n. . .\n. . .\n. . .\n", "expected header 'n', found '3 7'"),
    ],
    ids=["masyu-row", "masyu-header", "shingoki-header", "tapa-header"],
)
def test_extra_tokens_are_input_errors(name, board, bad, message, tmp_path, capsys):
    # a token past the one a line holds is refused, not dropped
    path = tmp_path / name
    path.write_text(board)
    assert main(["solve", str(path)]) != EXIT_INPUT
    capsys.readouterr()
    path.write_text(bad)
    assert main(["solve", str(path)]) == EXIT_INPUT
    assert f"error: {message}" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["-o", "--map"])
def test_encode_into_a_missing_directory_is_input_error(flag, tmp_path, capsys):
    paths = {"-o": str(tmp_path / "f.cnf"), "--map": str(tmp_path / "f.map")}
    paths[flag] = str(tmp_path / "missing" / "f")
    argv = ["encode", inst_path("masyu_4x4.masyu"), "-o", paths["-o"], "--map", paths["--map"]]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("out", [None, "f.cnf"])
def test_a_failed_encode_leaves_no_file(out, tmp_path, capsys):
    # the map cannot be opened, so the CNF, by default next to the
    # instance, must not be written either
    inst = tmp_path / "x.masyu"
    with open(inst_path("masyu_4x4.masyu")) as f:
        inst.write_text(f.read())
    argv = ["encode", str(inst), "--map", str(tmp_path / "missing" / "x.map")]
    if out:
        argv += ["-o", str(tmp_path / out)]
    assert main(argv) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["x.masyu"]


def test_encode_refuses_one_file_for_the_cnf_and_the_map(tmp_path, capsys):
    # two handles on one file would interleave the CNF and the map
    out = str(tmp_path / "f")
    assert main(["encode", inst_path("masyu_4x4.masyu"), "-o", out, "--map", out]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


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
        result = run(RunConfig(kind, cmd, 60.0), inst)
        b = CnfBuilder()
        _BUILDERS[kind](b, inst, lazy=not external)
        assert result.status == "verified", name
        assert (result.vars, result.clauses) == (b.var_count, len(b.clauses)), name


def test_a_solve_formats_no_name(monkeypatch):
    # each board three times in a row: built cold, then making its grid
    # template, then stamped from it
    def formatted(*args):
        raise AssertionError("a name was formatted")

    monkeypatch.setattr(NameRule, "names", formatted)
    monkeypatch.setattr(NameRule, "lines", formatted)
    for name in sorted(os.listdir(INSTANCES)):
        kind = infer_kind(name, None)
        with open(inst_path(name)) as f:
            inst = _PARSERS[kind](f.read())
        for _ in range(3):
            result = run(RunConfig(kind, None, None), inst)
            assert result.status == "verified", name
    assert graph._TEMPLATES  # the last board's template stamped it


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


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "case,argv,code",
    [
        ("verified", ["solve", inst_path("masyu_4x4.masyu")], EXIT_OK),
        ("missing-file", ["solve", "/nonexistent.masyu"], EXIT_INPUT),
        ("closed-pipe", ["solve", inst_path("masyu_4x4.masyu")], EXIT_REJECT),
    ],
    ids=["exit-0", "exit-2", "broken-pipe"],
)
def test_main_leaves_the_collector_as_it_found_it(case, argv, code, enabled, tmp_path, monkeypatch):
    # main pauses the cyclic collector while a command runs, and on every
    # way out switches it back on only if it was on
    during = []
    verify = _VERIFIERS["masyu"]

    def recording_verify(inst, sol):
        during.append(gc.isenabled())
        return verify(inst, sol)

    monkeypatch.setitem(_VERIFIERS, "masyu", recording_verify)
    pipe = _ClosedPipe(tmp_path / "stdout") if case == "closed-pipe" else None
    if pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
    if not enabled:
        gc.disable()
    try:
        assert main(argv) == code
        assert gc.isenabled() == enabled
    finally:
        gc.enable()
        if pipe:
            os.close(pipe.fd)
    assert during == ([] if case == "missing-file" else [False])


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


@pytest.mark.parametrize(
    "text",
    ["p cnf 3 2\n3 0\n-3 2 0\np cnf 1 2\n", "p cnf -2 0\n"],
    ids=["second-header", "negative-count"],
)
def test_dimacs_solver_refuses_a_bad_header(tmp_path, text):
    cnf = tmp_path / "bad.cnf"
    cnf.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "gridloop.dimacs_solver", str(cnf)],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_roadrunner_json_carries_its_circuit(tmp_path, capsys):
    # an empty 8x8 board puts all 64 cells on the road; without the order
    # in the JSON, verify would search for a circuit through them
    board = tmp_path / "empty.roadrunner"
    board.write_text("8 8\n" + "........\n" * 8)
    assert main(["solve", str(board), "--output", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert len(data["cycle"]) == data["k"] == 64
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    assert main(["verify", str(board), str(sol)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ACCEPT"
    # the verifier walks the order it is given
    data["cycle"][0], data["cycle"][2] = data["cycle"][2], data["cycle"][0]
    sol.write_text(json.dumps(data))
    assert main(["verify", str(board), str(sol)]) == EXIT_REJECT
    assert capsys.readouterr().out.strip() == "REJECT road-not-a-circuit"


def test_roadrunner_json_without_a_circuit_on_an_odd_board(tmp_path, capsys):
    # an all-road 7x7 answer with no order: 49 cells have no closed walk
    board = tmp_path / "empty.roadrunner"
    board.write_text("7 7\n" + ".......\n" * 7)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(
        {"kind": "roadrunner", "laser": [[0] * 7] * 7, "road": [[1] * 7] * 7, "k": 49}
    ))
    assert main(["verify", str(board), str(sol)]) == EXIT_REJECT
    assert capsys.readouterr().out.strip() == "REJECT road-not-a-circuit"


def test_roadrunner_json_without_a_circuit_on_two_blocks(tmp_path, capsys):
    # two all-road 6x6 blocks split by a column of hills, with no order:
    # each block alone has a circuit, so only a connectivity check answers
    # at once, where a search would try every path through the first block
    board = tmp_path / "two.roadrunner"
    board.write_text("13 6\n" + "......#......\n" * 6)
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(
        {"kind": "roadrunner", "laser": [[0] * 13] * 6, "road": [[1] * 6 + [0] + [1] * 6] * 6, "k": 72}
    ))
    assert main(["verify", str(board), str(sol)]) == EXIT_REJECT
    assert capsys.readouterr().out.strip() == "REJECT road-not-a-circuit"


def test_roadrunner_json_without_a_circuit_through_a_cut_cell(tmp_path):
    # two 6x6 blocks joined by the one road cell (7,3), with (13,1) a hill
    # so that the colours balance: connected, every cell of degree two or
    # more, but no circuit passes (7,3) twice; in its own process, so a
    # search through every path of the first block is stopped by the timeout
    rows = ["......#......"] * 6
    rows[0], rows[2] = "......#.....#", "............."
    board = tmp_path / "cut.roadrunner"
    board.write_text("13 6\n" + "".join(row + "\n" for row in rows))
    road = [[int(ch == ".") for ch in row] for row in rows]
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps({"kind": "roadrunner", "laser": [[0] * 13] * 6, "road": road, "k": 72}))
    proc = subprocess.run(
        [sys.executable, "-m", "gridloop.cli", "verify", str(board), str(sol)],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout.strip()) == (EXIT_REJECT, "REJECT road-not-a-circuit")


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


@pytest.mark.parametrize(
    "kind,data",
    [
        ("roadrunner", {"laser": [[0]], "road": [[2]], "k": 1}),
        ("roadrunner", {"laser": [[2]], "road": [[1]], "k": 1}),
        ("tapa", {"black": [[2] * 4] * 4}),
    ],
    ids=["roadrunner-road", "roadrunner-laser", "tapa-black"],
)
def test_verify_cell_value_not_0_or_1_is_input_error(tmp_path, capsys, kind, data):
    # a cell that is neither 0 nor 1 is a malformed file, as a wrong-size
    # grid is, not a near-miss
    board = {"roadrunner": tmp_path / "one.roadrunner", "tapa": inst_path("tapa_4x4.tapa")}[kind]
    if kind == "roadrunner":
        board.write_text("1 1\n.\n")
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    assert main(["verify", str(board), str(sol)]) == EXIT_INPUT
    assert capsys.readouterr().out.strip() == "REJECT bad-cell-value"


def _tapa_4x4_answer_in_floats(capsys):
    assert main(["solve", inst_path("tapa_4x4.tapa"), "--output", "json"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    data["black"] = [[float(bit) for bit in row] for row in data["black"]]
    return data


@pytest.mark.parametrize(
    "kind,data",
    [
        ("masyu", {"cycle": [[True, 1.9]]}),
        ("masyu", {"cycle": [["1", "1"]]}),
        ("masyu", {"cycle": [[1, 1.0]]}),
        ("roadrunner", {"laser": [[0]], "road": [[1]], "k": 1.0}),
        ("roadrunner", {"laser": [[False]], "road": [[True]], "k": 1}),
        ("roadrunner", {"laser": [[0]], "road": [[1]], "k": "1"}),
        ("roadrunner", {"laser": [[0]], "road": [[1]], "k": 1, "cycle": [[1, "1"]]}),
        ("tapa", None),
    ],
    ids=["masyu-bool-float", "masyu-strings", "masyu-float", "roadrunner-k-float", "roadrunner-bool-cells",
         "roadrunner-k-string", "roadrunner-cycle-string", "tapa-float-cells"],
)
def test_verify_refuses_numbers_that_are_not_json_integers(tmp_path, capsys, kind, data):
    # int() would truncate 1.9 to 1 and read true and "1" as 1, so each of
    # these files was accepted: a blank 1x1 board's answer, or tapa_4x4's
    # own answer with its cells written as floats
    boards = {"masyu": ("one.masyu", "1\n.\n"), "roadrunner": ("one.roadrunner", "1 1\n.\n")}
    if kind == "tapa":
        board, data = inst_path("tapa_4x4.tapa"), _tapa_4x4_answer_in_floats(capsys)
    else:
        board = tmp_path / boards[kind][0]
        board.write_text(boards[kind][1])
    sol = tmp_path / "sol.json"
    sol.write_text(json.dumps(data))
    assert main(["verify", str(board), str(sol)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "error: bad solution file" in captured.err
    assert captured.out == ""


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


def test_bench_on_a_missing_directory_or_a_file_is_input_error(tmp_path, capsys):
    for path in (tmp_path / "missing", inst_path("masyu_4x4.masyu")):
        assert main(["bench", str(path)]) == EXIT_INPUT, path
        assert "error:" in capsys.readouterr().err, path


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


@pytest.mark.parametrize("argv", [[], [".", "seed"], [".", "1", "2", "3"]], ids=["no-checkout", "bad-seed", "extra"])
def test_probe_stats_script_prints_its_usage_on_bad_arguments(argv):
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "probe_stats.py")
    proc = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
