"""Tapa: neighbor rings, block layouts, solve + flood-fill verification."""
import os

import pytest

from gridloop import CnfBuilder, solve_internal
from gridloop.puzzles import (
    ColoringSolution,
    build_tapa,
    findall_layouts,
    neighbor_ring,
    parse_tapa,
    verify_tapa,
)
from gridloop.puzzles.tapa import _ring_runs

from oracles import tapa_layout_patterns


def test_parse_tapa():
    inst = parse_tapa("3\n. 14 .\n. . 2\n0 . .\n")
    assert inst.n == 3
    assert inst.at(1, 2) == [1, 4]
    assert inst.at(2, 3) == [2]
    assert inst.at(3, 1) == [0]
    assert inst.at(3, 3) is None
    assert sorted(inst.clue_cells()) == [(1, 2), (2, 3), (3, 1)]


def test_parse_tapa_errors():
    with pytest.raises(ValueError):
        parse_tapa("2\n. 12345\n. .\n")  # too many digits
    with pytest.raises(ValueError):
        parse_tapa("2\n. x\n. .\n")
    with pytest.raises(ValueError):
        parse_tapa("2\n. .\n")


def test_neighbor_ring_paper_example():
    ring, circular = neighbor_ring(4, 3, 2)
    assert circular
    assert ring == [
        (2, 1), (2, 2), (2, 3), (3, 3), (4, 3), (4, 2), (4, 1), (3, 1),
    ]


def test_neighbor_ring_boundary():
    ring, circular = neighbor_ring(4, 1, 1)
    assert not circular
    assert len(ring) == 3
    ring, circular = neighbor_ring(4, 1, 2)
    assert not circular
    assert len(ring) == 5


def test_findall_layouts_paper_layout():
    layouts = findall_layouts([1, 4], 8, True)
    assert (1, 1, 0, 0, 1, 0, 1, 1) in layouts


def test_findall_layouts_full_ring():
    assert findall_layouts([8], 8, True) == [tuple([1] * 8)]


def test_findall_layouts_zero():
    assert findall_layouts([0], 5, True) == [tuple([0] * 5)]
    assert findall_layouts([0, 2], 4, False) == findall_layouts([2], 4, False)


def test_findall_layouts_vs_bruteforce():
    for clues in ([1, 1], [2], [3, 1], [1, 1, 1]):
        for ring_len in (4, 5, 6):
            for circular in (False, True):
                got = set(findall_layouts(clues, ring_len, circular))
                want = tapa_layout_patterns(clues, ring_len, circular)
                assert got == want, (clues, ring_len, circular)


def test_findall_layouts_overfull_empty():
    assert findall_layouts([4, 4], 8, True) == []  # no room for two gaps
    assert findall_layouts([5], 4, False) == []


def test_findall_layouts_errors():
    with pytest.raises(ValueError):
        findall_layouts([], 4, True)
    with pytest.raises(ValueError):
        findall_layouts([9], 4, True)
    with pytest.raises(ValueError):
        findall_layouts([1], 0, True)
    with pytest.raises(ValueError):
        findall_layouts([1], 9, True)


def test_ring_runs_paper_pattern():
    # the paper's [1,4] layout: runs merge across the wrap point
    assert sorted(_ring_runs([1, 1, 0, 0, 1, 0, 1, 1], True)) == [1, 4]
    assert sorted(_ring_runs([1, 1, 0, 0, 1, 0, 1, 1], False)) == [1, 2, 2]


def test_build_tapa_2x2_clue3():
    inst = parse_tapa("2\n3 .\n. .\n")
    b = CnfBuilder()
    decode, _, _ = build_tapa(b, inst)
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    sol = decode(out.model.assignment)
    assert verify_tapa(inst, sol) is None
    assert sum(sum(row) for row in sol.black) == 3


def test_build_tapa_forced_2x2_block_unsat():
    # each clue demands its whole 3-cell ring black, but the rings contain
    # the other clue cell, which is forced white
    inst = parse_tapa("2\n3 .\n. 3\n")
    b = CnfBuilder()
    build_tapa(b, inst)
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_solve_bundled_instance():
    path = os.path.join(os.path.dirname(__file__), "..", "instances", "tapa_4x4.tapa")
    with open(path) as f:
        inst = parse_tapa(f.read())
    b = CnfBuilder()
    decode, _, _ = build_tapa(b, inst)
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    assert verify_tapa(inst, decode(out.model.assignment)) is None


def test_verify_tapa_rejects():
    inst = parse_tapa("3\n. . .\n. 2 .\n. . .\n")
    ok = ColoringSolution([[1, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert verify_tapa(inst, ok) is None
    # wrong block multiset
    bad = ColoringSolution([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert verify_tapa(inst, bad) == "clue-blocks-mismatch"
    # disconnected blacks
    inst2 = parse_tapa("3\n. . .\n. 11 .\n. . .\n")
    split = ColoringSolution([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert verify_tapa(inst2, split) == "black-not-connected"
    # clue cell colored black
    onclue = ColoringSolution([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    assert verify_tapa(inst, onclue) == "clue-cell-black"
    # 2x2 block
    inst3 = parse_tapa("3\n. . 3\n. . .\n. . 3\n")
    block = ColoringSolution([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert verify_tapa(inst3, block) == "2x2-black-area"
    # wrong size
    assert verify_tapa(inst, ColoringSolution([[0, 0], [0, 0]])) == "wrong-grid-size"
