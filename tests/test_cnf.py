"""Exhaustive truth-table tests for the CNF substrate."""
import gc
import io
import itertools
import os
import random

import pytest

from gridloop import CnfBuilder, open_internal, parse_dimacs, solve_internal
from gridloop.cli import _BUILDERS, _PARSERS, infer_kind
from gridloop.cnf import _DIMACS_CHUNK, _FORMAT_BATCH, _LFSR_TAPS, lit_value, write_dimacs

from oracles import all_models, input_projection, label_step, label_value, lfsr_step, sat_under

INSTANCES = os.path.join(os.path.dirname(__file__), "..", "instances")


def test_new_var_sequential():
    b = CnfBuilder()
    assert b.var_count == 1  # reserved constant
    assert b.new_var() == 2
    assert b.new_var() == 3
    before = b.var_count
    for _ in range(1000):
        b.new_var()
    assert b.var_count == before + 1000


def test_new_var_names():
    b = CnfBuilder()
    v = b.new_var("cell_1_1")
    assert b.names[v] == "cell_1_1"
    out = io.StringIO()
    b.emit_varmap(out)
    assert f"{v} cell_1_1" in out.getvalue()


def test_add_clause_tautology_dropped():
    b = CnfBuilder()
    a = b.new_var()
    n = len(b.clauses)
    b.add_clause([a, -a])
    assert len(b.clauses) == n


def test_add_clause_dedup():
    b = CnfBuilder()
    a, c = b.new_var(), b.new_var()
    b.add_clause([a, a, c])
    assert b.clauses[-1] == [a, c]


def test_add_clause_empty_marks_unsat():
    b = CnfBuilder()
    b.add_clause([])
    assert b.clauses[-1] == []


def test_add_clause_rejects_bad_literals():
    b = CnfBuilder()
    with pytest.raises(ValueError):
        b.add_clause([0])
    with pytest.raises(ValueError):
        b.add_clause([99])  # unallocated


@pytest.mark.parametrize("lit", [True, False])
def test_add_clause_rejects_bool_literals(lit):
    # a bool is an int to isinstance, but it is no literal: True would be
    # written as "True" or as variable 1
    b = CnfBuilder()
    v = b.new_var()
    with pytest.raises(ValueError, match="bad literal"):
        b.add_clause([lit, -v])
    assert b.clauses == [[1]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gate_or_truth_table(n):
    b = CnfBuilder()
    xs = b.new_vars(n)
    g = b.gate_or(xs)
    for m in all_models(b.clauses, b.var_count):
        assert m[g] == any(m[x] for x in xs)
    assert len(input_projection(b.clauses, b.var_count, xs)) == 2**n


def test_binary_gates_truth_tables():
    b = CnfBuilder()
    x, y = b.new_var(), b.new_var()
    gx = b.gate_xor(x, y)
    for m in all_models(b.clauses, b.var_count):
        assert m[gx] == (m[x] != m[y])


def test_gate_or_single_literal_identity():
    b = CnfBuilder()
    a = b.new_var()
    assert b.gate_or([a]) == a
    with pytest.raises(ValueError):
        b.gate_or([])


@pytest.mark.parametrize("n", [2, 4, 8])
def test_at_most_one_model_counts(n):
    b = CnfBuilder()
    xs = b.new_vars(n)
    b.at_most_one(xs)
    proj = input_projection(b.clauses, b.var_count, xs)
    assert proj == {
        bits for bits in itertools.product([False, True], repeat=n) if sum(bits) <= 1
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unary_count_all_models(n):
    b = CnfBuilder()
    xs = b.new_vars(n)
    count = b.unary_count(xs)
    assert count.size == n
    for m in all_models(b.clauses, b.var_count):
        total = sum(m[x] for x in xs)
        for i, o in enumerate(count.outputs, start=1):
            assert lit_value(o, m) == (total >= i)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_unary_count_outputs_forced(n):
    # larger counters: fix every input assignment and check each output is
    # forced to its threshold value (the totalizer is a full biconditional)
    b = CnfBuilder()
    xs = b.new_vars(n)
    count = b.unary_count(xs)
    for bits in itertools.product([False, True], repeat=n):
        units = [x if bit else -x for x, bit in zip(xs, bits)]
        total = sum(bits)
        out = sat_under(b.clauses, b.var_count, units)
        assert out.is_sat
        assert count.value(out.model.assignment) == total
        for i, o in enumerate(count.outputs, start=1):
            wrong = -o if total >= i else o
            assert sat_under(b.clauses, b.var_count, units + [wrong]).is_unsat


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unary_count_exact_table(n):
    # every exact in 0..n, every input assignment: each output implies its
    # bound, outputs 1..exact are also implied by it, and any output up to
    # the sum can be true
    for exact in range(n + 1):
        b = CnfBuilder()
        xs = b.new_vars(n)
        count = b.unary_count(xs, exact=exact)
        assert count.size == n and count.inputs == xs
        if n > 1:  # a lone input is its own output
            # the speed of a free output depends on this: the solver's saved
            # phase starts positive, so it decides a free output false
            assert all(o < 0 for o in count.outputs[exact:])
        probe = open_internal(b.clauses, b.var_count)
        for bits in itertools.product([False, True], repeat=n):
            units = [x if bit else -x for x, bit in zip(xs, bits)]
            total = sum(bits)
            where = f"exact={exact} {bits}"
            assert probe(units).is_sat, where
            for i, o in enumerate(count.outputs, start=1):
                assert probe(units + [o]).is_sat == (total >= i), f"{where} output {i}"
                if i <= exact and total >= i:
                    assert probe(units + [-o]).is_unsat, f"{where} output {i} unforced"


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_unary_count_exact_n_is_the_full_totalizer(n):
    full, exact = CnfBuilder(), CnfBuilder()
    a = full.unary_count(full.new_vars(n))
    b = exact.unary_count(exact.new_vars(n), exact=n)
    assert (a.outputs, full.clauses, full.var_count) == (b.outputs, exact.clauses, exact.var_count)
    with pytest.raises(ValueError):
        exact.unary_count(exact.new_vars(n), exact=-1)


def test_unary_count_single_input():
    b = CnfBuilder()
    a = b.new_var()
    count = b.unary_count([a])
    assert count.outputs == [a]


@pytest.mark.parametrize("lazy", [False, True])
def test_a_road_runner_formula_leaves_no_cycle_for_the_collector(lazy):
    # unary_count's tree of merges used to be a closure that called itself:
    # a reference cycle that kept the builder alive until a collection pass
    with open(os.path.join(INSTANCES, "roadrunner_6x6_3.roadrunner")) as f:
        inst = _PARSERS["roadrunner"](f.read())
    gc.collect()
    gc.disable()
    try:
        b = CnfBuilder()
        _BUILDERS["roadrunner"](b, inst, lazy=lazy)
        assert len(b.clauses) > 100
        del b
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_lfsr_taps_have_full_period():
    # from state 1, each register comes back after exactly 2^m - 1 shifts,
    # so its nonzero states form one cycle
    for m in range(1, len(_LFSR_TAPS)):
        v, shifts = lfsr_step(m, 1), 1
        while v != 1:
            v, shifts = lfsr_step(m, v), shifts + 1
        assert shifts == (1 << m) - 1, m


def value_units(vec, v):
    """Units that set the variable bits of ``vec`` to those of ``v``."""
    constants = (CnfBuilder.TRUE, CnfBuilder.FALSE)
    return [bit if v >> i & 1 else -bit for i, bit in enumerate(vec) if bit not in constants]


@pytest.mark.parametrize("m", range(1, 5))
@pytest.mark.parametrize("bit0", [None, CnfBuilder.FALSE, CnfBuilder.TRUE], ids=["free", "FALSE", "TRUE"])
@pytest.mark.parametrize("nguards", [1, 2])
def test_lfsr_successors_exhaustive(m, bit0, nguards):
    # two steps out of one x of m state bits, with bit 0 free or a constant
    # (then y's bit 0 is the other constant): for every x, zero included,
    # each y under its guards is forced to the step of x, every other y is
    # refused, and with a guard false y is free.  A shift costs one gate per
    # feedback tap, built once; a step from the FALSE side costs none
    b = CnfBuilder()

    def label(bit0):
        return b.new_vars(m) if bit0 is None else [bit0] + b.new_vars(m)

    x = label(bit0)
    other = None if bit0 is None else -bit0
    ys = [label(other), label(other)]
    guards = [b.new_vars(nguards), b.new_vars(1)]
    nvars = b.var_count
    b.lfsr_successors(x, list(zip(ys, guards)))
    assert b.var_count - nvars == (0 if bit0 == CnfBuilder.FALSE else bin(_LFSR_TAPS[m]).count("1") - 1)
    coloured = bit0 is not None
    on = [g for gs in guards for g in gs]
    for v in range(1 << (m + coloured)):
        if coloured and v & 1 != (bit0 == CnfBuilder.TRUE):
            continue
        want = label_step(v, m, coloured)
        units = on + value_units(x, v)
        out = sat_under(b.clauses, b.var_count, units)
        assert out.is_sat
        assert [label_value(y, out.model.assignment) for y in ys] == [want, want], v
        for y, guard in zip(ys, guards):
            for w in range(1 << (m + coloured)):
                if coloured and w & 1 != want & 1:
                    continue
                eq = value_units(y, w)
                assert sat_under(b.clauses, b.var_count, units + eq).is_sat == (w == want), (v, w)
                off = [-guard[0]] + value_units(x, v) + eq
                assert sat_under(b.clauses, b.var_count, off).is_sat, (v, w)


@pytest.mark.parametrize("m", range(5, len(_LFSR_TAPS)))
@pytest.mark.parametrize("bit0", [None, CnfBuilder.FALSE, CnfBuilder.TRUE], ids=["free", "FALSE", "TRUE"])
def test_lfsr_successors_steps_by_every_tap_entry(m, bit0):
    # the registers too wide to test exhaustively: from zero, the single
    # bits, all ones and a seeded sample of x, y under its guard is the
    # step of x and the value one bit off it is refused.  A shift costs one
    # gate per feedback tap; a step from the FALSE side costs none
    b = CnfBuilder()
    coloured = bit0 is not None
    if coloured:
        x, y = [bit0] + b.new_vars(m), [-bit0] + b.new_vars(m)
    else:
        x, y = b.new_vars(m), b.new_vars(m)
    guard = b.new_var()
    nvars = b.var_count
    b.lfsr_successors(x, [(y, [guard])])
    assert b.var_count - nvars == (0 if bit0 == CnfBuilder.FALSE else bin(_LFSR_TAPS[m]).count("1") - 1)
    rng = random.Random(f"lfsr/{m}")
    states = {0, (1 << m) - 1} | {1 << k for k in range(m)} | {rng.randrange(1 << m) for _ in range(8)}
    for s in sorted(states):
        v = s << 1 | (bit0 == CnfBuilder.TRUE) if coloured else s
        want = label_step(v, m, coloured)
        units = [guard] + value_units(x, v)
        out = sat_under(b.clauses, b.var_count, units)
        assert out.is_sat and label_value(y, out.model.assignment) == want, v
        wrong = want ^ 1 << rng.randrange(coloured, m + coloured)
        assert sat_under(b.clauses, b.var_count, units + value_units(y, wrong)).is_unsat, (v, wrong)


def test_lfsr_successors_needs_a_register():
    # no state bits, in an empty label or beside a constant bit 0, or more
    # than the tap table holds
    b = CnfBuilder()
    with pytest.raises(ValueError, match="width 0"):
        b.lfsr_successors([], [([], [b.new_var()])])
    with pytest.raises(ValueError):
        b.lfsr_successors([b.TRUE], [([b.FALSE], [b.new_var()])])
    wide = b.new_vars(len(_LFSR_TAPS))
    with pytest.raises(ValueError):
        b.lfsr_successors(wide, [(b.new_vars(len(_LFSR_TAPS)), [b.new_var()])])


def test_lfsr_successors_needs_a_guard():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="guard"):
        b.lfsr_successors(b.new_vars(2), [(b.new_vars(2), [])])


def test_lfsr_successors_width_mismatch():
    b = CnfBuilder()
    with pytest.raises(ValueError, match="width"):
        b.lfsr_successors(b.new_vars(2), [(b.new_vars(3), [b.new_var()])])


def fits(vec, v):
    """Whether ``v`` agrees with the constant bits of ``vec``."""
    return all(v >> i & 1 == (bit == CnfBuilder.TRUE) for i, bit in enumerate(vec) if bit in (CnfBuilder.TRUE, CnfBuilder.FALSE))


@pytest.mark.parametrize(
    "x0,y_bits",
    [
        (CnfBuilder.FALSE, [None, None, None]),
        (CnfBuilder.TRUE, [None, None, None]),
        (CnfBuilder.TRUE, [None, None, CnfBuilder.TRUE]),
        (CnfBuilder.FALSE, [CnfBuilder.TRUE, CnfBuilder.FALSE, None]),
    ],
    ids=["x0-FALSE", "x0-TRUE", "y2-TRUE", "y0-TRUE-y1-FALSE"],
)
def test_lfsr_successors_folds_constants(x0, y_bits):
    # a constant bit of x's image or of y, facing a variable or the other
    # constant, leaves no TRUE or FALSE literal in any clause; under the
    # guard y is the step of x, and an x whose step y's constants refuse
    # has no y at all
    b = CnfBuilder()
    x = [x0] + b.new_vars(2)
    y = [b.new_var() if bit is None else bit for bit in y_bits]
    guard = b.new_var()
    b.lfsr_successors(x, [(y, [guard])])
    assert all(1 not in cl and -1 not in cl for cl in b.clauses[1:])
    for v in filter(lambda v: fits(x, v), range(8)):
        want = label_step(v, 2, True)
        units = [guard] + value_units(x, v)
        assert sat_under(b.clauses, b.var_count, units).is_sat == fits(y, want), v
        for w in filter(lambda w: fits(y, w), range(8)):
            eq = value_units(y, w)
            assert sat_under(b.clauses, b.var_count, units + eq).is_sat == (w == want), (v, w)
            assert sat_under(b.clauses, b.var_count, [-guard] + value_units(x, v) + eq).is_sat, (v, w)


@pytest.mark.parametrize("bit0", [CnfBuilder.FALSE, CnfBuilder.TRUE], ids=["FALSE", "TRUE"])
def test_lfsr_successors_bans_what_a_constant_bit_0_rules_out(bit0):
    # a step flips the constant bit 0, so a y whose bit 0 equals x's is
    # no step of x, and its guard is false
    b = CnfBuilder()
    x, y = [bit0] + b.new_vars(2), [bit0] + b.new_vars(2)
    guard = b.new_var()
    b.lfsr_successors(x, [(y, [guard])])
    assert sat_under(b.clauses, b.var_count, [guard]).is_unsat
    assert sat_under(b.clauses, b.var_count, [-guard]).is_sat


def dimacs(b):
    out = io.StringIO()
    b.emit_dimacs(out)
    return out.getvalue()


def test_emit_dimacs_round_trip():
    b = CnfBuilder()
    xs = b.new_vars(8)
    b.at_most_one(xs)
    b.gate_or(xs[:3])
    nvars, clauses = parse_dimacs(dimacs(b))
    assert nvars == b.var_count
    assert clauses == b.clauses


def test_emit_dimacs_header_counts():
    b = CnfBuilder()
    v = b.new_var()
    b.add_clause([v, -1])
    text = dimacs(b)
    assert text.startswith(f"p cnf {b.var_count} {len(b.clauses)}\n")
    assert "1 0\n" in text  # the constant-true unit clause


def test_emit_dimacs_empty_clause_reads_back_unsat():
    b = CnfBuilder()
    v = b.new_var()
    b.add_clause([v])
    b.add_clause([])
    assert dimacs(b) == "p cnf 2 3\n1 0\n2 0\n 0\n"
    nvars, clauses = parse_dimacs(dimacs(b))
    assert clauses == b.clauses
    assert solve_internal(clauses, nvars).is_unsat


class CountingSink(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


@pytest.mark.parametrize("n", [0, 1, _DIMACS_CHUNK, 2 * _DIMACS_CHUNK + 3])
def test_write_dimacs_matches_one_line_per_clause(n):
    # the header, unit clauses and empty clauses, over several chunks, read
    # byte for byte as a writer of one line per clause reads them
    clauses = [[[1], [], [-2, 3], [2], [-1, 2, -3]][i % 5] for i in range(n)]
    sink = CountingSink()
    write_dimacs(sink, 3, clauses)
    reference = f"p cnf 3 {n}\n" + "".join(" ".join(map(str, cl)) + " 0\n" for cl in clauses)
    assert sink.getvalue() == reference
    assert sink.writes == 1 + -(-n // _DIMACS_CHUNK)


def one_line_per_clause(nvars, clauses):
    return f"p cnf {nvars} {len(clauses)}\n" + "".join(" ".join(map(str, cl)) + " 0\n" for cl in clauses)


@pytest.mark.parametrize("name", sorted(os.listdir(INSTANCES)))
def test_write_dimacs_matches_one_line_per_clause_on_bundled_instances(name):
    # the eager formula, which ``encode`` writes, masyu_30x30's 155k clauses
    # among them
    kind = infer_kind(name, None)
    with open(os.path.join(INSTANCES, name)) as f:
        parsed = _PARSERS[kind](f.read())
    b = CnfBuilder()
    _BUILDERS[kind](b, parsed)
    sink = io.StringIO()
    write_dimacs(sink, b.var_count, b.clauses)
    assert sink.getvalue() == one_line_per_clause(b.var_count, b.clauses)


@pytest.mark.parametrize(
    "n", [_FORMAT_BATCH + 1, _DIMACS_CHUNK, _DIMACS_CHUNK + 1, 2 * _DIMACS_CHUNK, 2 * _DIMACS_CHUNK + 1]
)
def test_write_dimacs_matches_one_line_per_clause_on_random_clauses(n):
    # clause lengths 0 to 300 and literals up to 10^7 in magnitude, so each
    # batch mixes many line formats and literal widths
    rng = random.Random(f"write_dimacs/{n}")
    nvars = 10**7
    lengths = [0, 300] + [rng.randint(0, 300) if rng.random() < 0.05 else rng.randint(0, 6) for _ in range(n - 2)]
    rng.shuffle(lengths)
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars) for _ in range(k)] for k in lengths]
    sink = CountingSink()
    write_dimacs(sink, nvars, clauses)
    assert sink.getvalue() == one_line_per_clause(nvars, clauses)
    assert sink.writes == 1 + -(-n // _DIMACS_CHUNK)


def test_parse_dimacs_errors():
    with pytest.raises(ValueError):
        parse_dimacs("1 -2 0\n")  # no header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 5\n1 -2 0\n")  # wrong clause count
    nvars, clauses = parse_dimacs("c comment\np cnf 2 1\n1 -2 0\n")
    assert (nvars, clauses) == (2, [[1, -2]])


def test_parse_dimacs_rejects_variable_above_header():
    with pytest.raises(ValueError, match="-3"):
        parse_dimacs("p cnf 2 1\n1 -3 0\n")
    assert parse_dimacs("p cnf 3 1\n1 -3 0\n") == (3, [[1, -3]])


def test_parse_dimacs_rejects_a_second_header():
    # the second header would shrink the bound that the clauses above it
    # were checked against
    with pytest.raises(ValueError, match="second DIMACS header"):
        parse_dimacs("p cnf 3 2\n3 0\n-3 2 0\np cnf 1 2\n")


@pytest.mark.parametrize("header", ["p cnf -2 0", "p cnf 2 -1"])
def test_parse_dimacs_rejects_a_negative_count(header):
    with pytest.raises(ValueError, match="negative count"):
        parse_dimacs(header + "\n")


def test_parse_dimacs_keeps_a_repeated_literal_once():
    # tautologies stay; a repeated literal would break the solver's watches
    assert parse_dimacs("p cnf 2 3\n1 1 -2 0\n1 -1 0\n-1 2 -1 2\n") == (
        2,
        [[1, -2], [1, -1], [-1, 2]],
    )
