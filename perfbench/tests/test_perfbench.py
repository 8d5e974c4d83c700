"""The benchmark's own tests: python3 -m pytest -q perfbench/tests"""
import dataclasses
import json
import math
import os

import pytest

import check
import run
import workloads
from conftest import ROOT


def _texts(pool):
    return [(i.name, i.text, json.dumps(i.witness, sort_keys=True)) for i in pool.warmup + pool.items]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    a = workloads.make_pool(workload, 7, ROOT, rounds=2)
    b = workloads.make_pool(workload, 7, ROOT, rounds=2)
    assert _texts(a) == _texts(b)
    assert _texts(a) != _texts(workloads.make_pool(workload, 8, ROOT, rounds=2))
    # and byte-identical files once written
    for d in ("a", "b"):
        workloads.write_inputs(a if d == "a" else b, str(tmp_path / d), solutions=True)
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_pass_the_checks(workload):
    pool = workloads.make_pool(workload, 3, ROOT, rounds=2)
    assert len({i.name for i in pool.warmup + pool.items}) == len(pool.warmup + pool.items)
    for inst in pool.warmup + pool.items:
        assert check.check_solve(inst, 0, json.dumps(inst.witness) + "\n") is None, inst.name
        assert check.check_solve(inst, 0, json.dumps(workloads.mutant(inst))) is not None, inst.name


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(1, 300):
        for p in (50.0, 60.0, 75.0, 90.0, 95.0, 99.0):
            got = run.tail_percentile([float(i) for i in range(n)], p)
            rank = math.ceil(p / 100 * n)
            if n - rank >= run.TAIL_BEYOND:
                assert got == (float(rank - 1), n - rank)
                assert sum(x > got[0] for x in range(n)) >= run.TAIL_BEYOND
            else:
                assert got is None


class FakeCli:
    """Stands in for gridloop.cli: answers every solve with a fixed text."""

    def __init__(self, answer):
        self.answer = answer

    def main(self, argv):
        print(self.answer(argv))
        return 0


def _fake_run(answer, monkeypatch, workload="puzzle-mix"):
    """A run with no time budget and no cap: it stops by the sample rule."""
    monkeypatch.setattr(run, "OVERRUN", math.inf)
    pool = workloads.make_pool(workload, 1, ROOT, rounds=3)
    by_name = {i.name: i for i in pool.items}
    paths = {i.name: {"instance": i.name} for i in pool.items}
    runner = run.Runner(FakeCli(lambda argv: answer(by_name[argv[1]])), workload, paths, ".")
    return pool, run.loop(runner, None, pool, 0.0)


def test_run_stops_only_with_ten_samples_beyond_the_tail(monkeypatch):
    pool, m = _fake_run(lambda inst: json.dumps(inst.witness), monkeypatch)
    assert not m.failures
    assert run.tail_percentile(m.latencies, pool.tail_p)[1] == run.TAIL_BEYOND
    assert run.tail_percentile(m.latencies[:-1], pool.tail_p) is None


def test_times_are_rescaled_by_the_reference_probe(monkeypatch):
    # a host running the probe at half the reference speed halves every time
    monkeypatch.setattr(run, "reference_probe", lambda: 2 * run.REFERENCE_S)
    _, m = _fake_run(lambda inst: json.dumps(inst.witness), monkeypatch)
    assert m.walls and m.latencies == pytest.approx([w / 2 for w in m.walls])


def test_wrong_answers_count_as_failed(monkeypatch):
    broken = ("s0-masyu6", "s3-tapa8")

    def answer(inst):
        return json.dumps(workloads.mutant(inst) if inst.name.endswith(broken) else inst.witness)

    pool, m = _fake_run(answer, monkeypatch)
    names = [pool.items[i % len(pool.items)].name for i in range(m.attempted)]
    assert len(m.failures) == sum(name.endswith(broken) for name in names) > 0
    assert m.attempted == len(m.latencies) + len(m.failures)
    assert all("verifier rejects" in f for f in m.failures)


def test_roadrunner_below_known_k_fails():
    pool = workloads.make_pool("roadrunner-opt", 1, ROOT, rounds=1)
    inst = pool.items[0]
    higher = dataclasses.replace(inst, known_k=inst.known_k + 1)
    assert "below the known" in check.check_solve(higher, 0, json.dumps(inst.witness))


def test_wrong_status_fails():
    inst = workloads.make_pool("puzzle-mix", 1, ROOT, rounds=1).items[0]
    assert "exit 20" in check.check_solve(inst, 20, "INFEASIBLE\n")
    assert "exit 10" in check.check_solve(inst, 10, "UNKNOWN: budget\n")


def test_dimacs_header_must_match_clauses(tmp_path):
    good, bad = tmp_path / "good.cnf", tmp_path / "bad.cnf"
    good.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
    bad.write_text("p cnf 2 3\n1 -2 0\n2 0\n")
    assert check.check_dimacs(str(good)) is None
    assert "announces 3" in check.check_dimacs(str(bad))


def test_traced_run_records_layers_and_restores_the_program(tmp_path):
    import gridloop.cli
    import spans

    def snapshot():  # module globals, and the contents of module-level dicts
        return {k: dict(v) if isinstance(v, dict) else v for k, v in vars(gridloop.cli).items()}

    before = snapshot()
    pool = workloads.make_pool("roadrunner-opt", 1, ROOT, rounds=1)
    paths = workloads.write_inputs(pool, str(tmp_path), solutions=False)
    tracer = spans.Tracer()
    runner = run.Runner(gridloop.cli, "roadrunner-opt", paths, str(tmp_path), tracer)
    for i, inst in enumerate(pool.items):
        tracer.puzzle, tracer.kind = i, inst.kind
        assert runner.run(inst)[1] is None
    assert snapshot() == before

    names = {s.name for s in tracer.spans}
    assert {"cli.main", "puzzles.parse", "encode.build", "optimize.maximize", "solver.solve",
            "puzzles.decode", "puzzles.verify"} <= names
    for s in tracer.spans:
        parent = tracer.spans[s.parent] if s.parent is not None else None
        assert (parent is None) == (s.name == "cli.main")
        if parent:
            assert parent.start <= s.start <= s.end <= parent.end and parent.puzzle == s.puzzle
    m = spans.layer_metrics(tracer.spans)
    assert m["optimize.calls"] == len(pool.items)
    assert m["solver.calls"] == m["solver.sat_calls"] + m["solver.unsat_calls"]
    assert m["solver.solve_s"] == pytest.approx(m["solver.solve_s.roadrunner"])
    cli_total = sum(s.duration for s in tracer.spans if s.name == "cli.main")
    assert 0 < m["cli.self_s"] < cli_total
