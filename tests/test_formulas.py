"""The formulas themselves: every encoder writes the same formula for the
same board however often and in whatever order it is asked, a grid stamped
from a template is its cold build byte for byte and writes the same .cnf
and .map text, a wrong verifier helper leaves every formula as it was, and
the edge cases of the batch writers (boards of one cell or of clues only,
rings and circles that no layout or pair fits, a unit that two circles
write, a cell closed in by hills) give the clauses their rules ask for."""
import hashlib
import io
import itertools
import json
import os

import pytest

from gridloop import CnfBuilder, graph, maximize
from gridloop.cli import _BUILDERS, _PARSERS, _VERIFIERS, infer_kind
from gridloop.graph import EdgeSpec, VertexSpec, cycle_grid, hcp_grid, make_grid
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


LAZY = pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])


@LAZY
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


# -- grids stamped from a template ----------------------------------------


@pytest.fixture
def stamps(monkeypatch):
    """Counts the boards stamped from a template; every template is
    forgotten before the test and after it."""
    graph.clear_templates()
    count = [0]
    stamp = graph._Template.stamp

    def counted(self, builder, drop):
        count[0] += 1
        return stamp(self, builder, drop)

    monkeypatch.setattr(graph._Template, "stamp", counted)
    yield count
    graph.clear_templates()


def cold(build):
    """``build()`` with no template left from an earlier board."""
    graph.clear_templates()
    return build()


@LAZY
@pytest.mark.parametrize("kind, other", [("masyu", "shingoki"), ("shingoki", "masyu")])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_loop_board_stamped_after_the_other_kind_is_its_cold_build(stamps, kind, other, n, lazy):
    # the other kind's board of the same size, built twice, leaves a
    # template of the shape with its own start or anchors
    board = bundled(f"{kind}_{n}x{n}.{kind}")
    expected = cold(lambda: formula(*board, lazy))
    for _ in range(2):
        formula(*bundled(f"{other}_{n}x{n}.{other}"), lazy)
    before = stamps[0]
    assert formula(*board, lazy) == expected
    assert stamps[0] == before + 1


def grid_formula(encode, rows, cols, arg):
    """A SHA-256 over a fresh builder's formula after make_grid and
    ``encode(builder, grid, arg)``, with the returned edges."""
    b = CnfBuilder()
    out = encode(b, make_grid(b, rows, cols), arg)
    edges = out[0] if isinstance(out, tuple) else out
    text = json.dumps([b.var_count, b.clauses, sorted(b.names.items()), [(e.src, e.dst, e.lit) for e in edges]])
    return hashlib.sha256(text.encode()).hexdigest()


SHAPES = [(1, 1), (1, 4), (4, 1), (2, 2), (2, 3)]


def shape_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_hcp_grid_stamped_for_every_start_is_its_cold_build(stamps, rows, cols):
    starts = [None] + shape_cells(rows, cols)
    expected = [cold(lambda: grid_formula(hcp_grid, rows, cols, s)) for s in starts]
    # each start after every other one, so each is stamped from a template
    # that another start left
    for s, want in zip(starts, expected):
        for prior in starts:
            grid_formula(hcp_grid, rows, cols, prior)
            assert grid_formula(hcp_grid, rows, cols, s) == want, (prior, s)
    # one row or column is encoded directly, every other shape is stamped
    assert (stamps[0] > 0) == (rows > 1 and cols > 1)


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_cycle_grid_stamped_for_any_anchors_is_its_cold_build(stamps, rows, cols):
    cells = shape_cells(rows, cols)
    anchor_sets = [(), tuple(cells)] + [(c,) for c in cells]
    expected = [cold(lambda: grid_formula(cycle_grid, rows, cols, a)) for a in anchor_sets]
    for anchors, want in zip(anchor_sets, expected):
        for prior in anchor_sets:
            grid_formula(cycle_grid, rows, cols, prior)
            assert grid_formula(cycle_grid, rows, cols, anchors) == want, (prior, anchors)
    # every build but the first after the cold ones, which makes the template
    assert stamps[0] == 2 * len(anchor_sets) ** 2 - 1


@LAZY
@pytest.mark.parametrize("kind", ["masyu", "shingoki"])
def test_solving_a_board_changes_no_later_formula(stamps, kind, lazy):
    # the solver reorders the literals of the clause lists it is given: the
    # cold build's, then a stamped board's
    name = f"{kind}_6x6.{kind}"
    expected = cold(lambda: formula(*bundled(name), lazy))
    with open(os.path.join(INSTANCES, name)) as f:
        text = f.read()
    for _ in range(2):
        inst, b, decode, _, propagator = build(kind, text, lazy)
        out = open_internal(b.clauses, b.var_count, propagator)()
        assert out.status == "sat" and _VERIFIERS[kind](inst, decode(out.model.assignment)) is None
        assert formula(*bundled(name), lazy) == expected
    assert stamps[0] == 3  # every build after the one that makes the template


@LAZY
def test_clearing_the_templates_restores_a_cold_build(stamps, lazy):
    # a shape's first build is direct, its second makes the template, and
    # the third is stamped
    board = bundled("masyu_5x5.masyu")
    expected = formula(*board, lazy)
    assert [formula(*board, lazy) for _ in range(2)] == [expected] * 2
    assert stamps[0] == 1
    graph.clear_templates()
    assert formula(*board, lazy) == expected
    assert stamps[0] == 1


@LAZY
def test_a_shape_built_once_among_others_makes_no_template(stamps, lazy):
    small, large = bundled("masyu_5x5.masyu"), bundled("masyu_7x7.masyu")
    for _ in range(3):
        formula(*small, lazy)
    formula(*large, lazy)
    assert graph._TEMPLATES == {}
    formula(*small, lazy)
    assert graph._TEMPLATES == {}
    assert stamps[0] == 1


# -- a stamped board's .cnf and .map, written from its template's text -------


def emitted(b):
    """The builder's .cnf and .map text, through its own writers."""
    cnf, varmap = io.StringIO(), io.StringIO()
    b.emit_dimacs(cnf)
    b.emit_varmap(varmap)
    return cnf.getvalue(), varmap.getvalue()


def plain(b):
    """The builder's .cnf and .map text, one line per clause and per name."""
    cnf = "".join(" ".join(map(str, cl)) + " 0\n" for cl in b.clauses)
    return f"p cnf {b.var_count} {len(b.clauses)}\n" + cnf, "".join(f"{k} {v}\n" for k, v in sorted(b.names.items()))


def grid_builder(encode, rows, cols, arg):
    b = CnfBuilder()
    encode(b, make_grid(b, rows, cols), arg)
    return b


EMIT_SHAPES = [(2, 2), (2, 3), (3, 3), (4, 4)]


@pytest.mark.parametrize("rows, cols", EMIT_SHAPES)
def test_hcp_grid_stamped_for_every_start_writes_its_cold_text(stamps, rows, cols):
    starts = [None] + shape_cells(rows, cols)
    expected = [cold(lambda: emitted(grid_builder(hcp_grid, rows, cols, s))) for s in starts]
    cut = set()
    for s, want in zip(starts, expected):
        # stamped from a template that each prior of the same key left: a
        # start, or none
        for prior in [x for x in starts if (x is None) == (s is None)]:
            for _ in range(2):
                grid_builder(hcp_grid, rows, cols, prior)
            b = grid_builder(hcp_grid, rows, cols, s)
            assert b.stamped is not None
            assert emitted(b) == want == plain(b), (prior, s)
            cut.update(p for lo, hi in b.stamped.template._dropped(b.stamped.drop) for p in (lo, hi))
    # some start leaves out the template's last clause
    assert graph._TEMPLATES["hcp"].size in cut


@pytest.mark.parametrize("rows, cols", [(1, 1)] + EMIT_SHAPES)
def test_cycle_grid_stamped_for_every_anchor_writes_its_cold_text(stamps, rows, cols):
    anchor_sets = [(), tuple(shape_cells(rows, cols))] + [(c,) for c in shape_cells(rows, cols)]
    expected = [cold(lambda: emitted(grid_builder(cycle_grid, rows, cols, a))) for a in anchor_sets]
    cut = set()
    for anchors, want in zip(anchor_sets, expected):
        grid_builder(cycle_grid, rows, cols, anchors)
        b = grid_builder(cycle_grid, rows, cols, anchors)
        assert b.stamped is not None
        assert emitted(b) == want == plain(b), anchors
        cut.update(p for lo, hi in b.stamped.template._dropped(b.stamped.drop) for p in (lo, hi))
    # the first cell's anchor leaves out the template's first clause, on
    # every grid with an edge
    assert (0 in cut) == (rows * cols > 1)


@LAZY
@pytest.mark.parametrize("kind, other", [("masyu", "shingoki"), ("shingoki", "masyu")])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_loop_board_stamped_after_the_other_kind_writes_its_cold_text(stamps, kind, other, n, lazy):
    texts = {}
    for k in (kind, other):
        with open(os.path.join(INSTANCES, f"{k}_{n}x{n}.{k}")) as f:
            texts[k] = f.read()
    expected = cold(lambda: emitted(build(kind, texts[kind], lazy)[1]))
    for _ in range(2):
        build(other, texts[other], lazy)
    b = build(kind, texts[kind], lazy)[1]
    assert b.stamped is not None
    assert emitted(b) == expected == plain(b)


def between():
    """A builder with clauses and names of its own before and after a 3x3
    ``hcp_grid``."""
    b = CnfBuilder()
    before = b.named_vars(["before_0", "before_1"])
    b.add_clause([before[0], -before[1]])
    hcp_grid(b, make_grid(b, 3, 3), (2, 2))
    after = b.named_vars(["after_0", "after_1"])
    b.add_clause([-after[0], before[1]])
    b.add_clause([after[1]])
    return b


def stamped_builder():
    """``between()`` stamped from the template of the two before it."""
    for _ in range(2):
        between()
    b = between()
    assert b.stamped is not None and 0 < b.stamped.first < b.stamped.end < len(b.clauses)
    return b


def test_stamped_span_between_clauses_writes_every_line(stamps):
    expected = cold(lambda: emitted(between()))
    assert emitted(stamped_builder()) == expected


def test_a_stamped_builder_writes_the_same_text_twice(stamps):
    b = stamped_builder()
    first = emitted(b)
    assert emitted(b) == first == plain(b)


def test_stamped_builders_write_their_text_after_the_templates_are_cleared(stamps):
    b = stamped_builder()
    expected = plain(b)
    graph.clear_templates()
    # the builder keeps its template, and the next build is a cold one
    assert emitted(b) == expected
    again = between()
    assert again.stamped is None
    assert emitted(again) == expected


def test_stamped_builder_with_its_clause_list_replaced_formats_every_clause(stamps):
    b = stamped_builder()
    # a copy with one of the span's clauses changed
    b.clauses = [list(cl) for cl in b.clauses]
    b.clauses[b.stamped.first].reverse()
    assert b.stamped.clause_lines(b.clauses) is None
    assert emitted(b) == plain(b)


def test_stamped_builder_cut_short_of_its_span_formats_every_clause(stamps):
    b = stamped_builder()
    del b.clauses[b.stamped.end - 1 :]
    assert b.stamped.clause_lines(b.clauses) is None
    assert emitted(b) == plain(b)


def test_stamped_builder_with_its_name_runs_replaced_formats_every_name(stamps):
    b = stamped_builder()
    # a copy with one of the stamped runs renamed
    b.name_runs = list(b.name_runs)
    first, run = b.name_runs[b.stamped.named]
    b.name_runs[b.stamped.named] = (first, [f"renamed_{i}" for i in range(len(run))])
    assert b.stamped.name_lines(b.name_runs) is None
    assert emitted(b) == plain(b)


def test_stamped_builder_cut_short_of_its_names_formats_every_name(stamps):
    b = stamped_builder()
    del b.name_runs[b.stamped.named + len(b.stamped.template.name_runs) - 1 :]
    assert b.stamped.name_lines(b.name_runs) is None
    assert emitted(b) == plain(b)


def test_boards_stamped_from_one_template_share_its_rows(stamps):
    # no board copies a row: each span is the template's own tuples, less
    # those of its start
    boards = [stamped_builder(), between()]
    tpl = boards[0].stamped.template
    kept = list(itertools.compress(tpl.rows, tpl.keep(boards[0].stamped.drop)))
    for b in boards:
        assert b.stamped.template is tpl
        span = b.clauses[b.stamped.first : b.stamped.end]
        assert len(span) == len(kept) and all(x is y for x, y in zip(span, kept))
        assert all(type(row) is tuple for row in span)


@LAZY
@pytest.mark.parametrize("kind", ["masyu", "shingoki"])
def test_solving_a_stamped_board_leaves_its_template_rows(stamps, kind, lazy):
    with open(os.path.join(INSTANCES, f"{kind}_6x6.{kind}")) as f:
        text = f.read()
    for _ in range(2):
        build(kind, text, lazy)
    inst, b, decode, _, propagator = build(kind, text, lazy)
    rows = b.stamped.template.rows
    before = [list(row) for row in rows]
    out = open_internal(b.clauses, b.var_count, propagator)()
    assert out.status == "sat" and _VERIFIERS[kind](inst, decode(out.model.assignment)) is None
    assert [list(row) for row in rows] == before
    # the span's text still stands for its clauses, as the solver left them
    assert emitted(b) == plain(b)


def every_naming_call():
    """A builder named through every call that names, with a 3x3
    ``hcp_grid`` among them, and its names as a dict built by hand."""
    b = CnfBuilder()
    want = {1: "const_true"}
    b.new_var()
    want[b.new_var("lone")] = "lone"
    b.new_vars(2)
    want.update(zip(b.named_vars(("x", "y")), ("x", "y")))
    grid = make_grid(b, 3, 3)
    want.update((lit, f"cell_{r}_{c}") for (r, c), lit in grid.cells.items())
    edges = hcp_grid(b, grid, (2, 2))
    want.update((e.lit, "edge_{}_{}_{}_{}".format(*e.src, *e.dst)) for e in edges)
    # then the distance labels: 9 vertices on a 2-coloured grid take 3
    # state bits each, named per cell in row-major order
    label = itertools.count(edges[-1].lit + 1)
    want.update((next(label), f"dist_{rc}_{i}") for rc in grid.cells for i in (1, 2, 3))
    b.add_clause([b.new_var()])
    want[b.new_var("last")] = "last"
    return b, want


def test_names_from_every_naming_call_are_the_dict_built_by_hand(stamps):
    for _ in range(3):
        b, want = every_naming_call()
        assert dict(b.names) == want
        assert list(b.names) == sorted(want)
    # the third build was stamped from the template that the second made
    assert stamps[0] == 1 and b.stamped is not None


def test_varmap_lists_the_sorted_names(stamps):
    for _ in range(3):
        b, _ = every_naming_call()
        assert emitted(b)[1] == "".join(f"{k} {v}\n" for k, v in sorted(b.names.items()))
    assert b.stamped is not None


def test_names_cannot_be_written():
    b = CnfBuilder()
    b.named_vars(["x_0", "x_1"])
    with pytest.raises(TypeError):
        b.names[b.var_count] = "x"
    with pytest.raises(TypeError):
        del b.names[1]


# SHA-256 over the .cnf and .map text of hcp (both directions of each
# edge) and scc on three graphs with an odd cycle, whose labels take the
# path that names and bans every bit: no bundled board or workload reaches it
ODD_GRAPHS = {
    "cycle5": (5, [(i, (i + 1) % 5) for i in range(5)]),
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "K8": (8, list(itertools.combinations(range(8), 2))),
}
ODD_GRAPH_TEXT = {
    ("hcp", "cycle5"): "0d43fa24efcce5351a9586cb7ec701d2f172bca79e716b1566956241b82e79cf",
    ("hcp", "K4"): "66cfdc549f7a06e2a9e7ad4232607ad2c86da0ec9780bbad56b34bbbf52fc747",
    ("hcp", "K8"): "1b6d62add9b1768b5cd953e7ea7928d253b0d5e4e7fdab8bf2287f920f82ecaa",
    ("scc", "cycle5"): "2dfddada9b98c69fdb5a173c3c5cfaa2ae626dacf8ef2670415fe258914c3ad5",
    ("scc", "K4"): "b4ea6a73a1f2d23a4b5859f84918f5f927b46a536925ec6dfc726a77371962c6",
    ("scc", "K8"): "4e04604c470d5ec989fe531c1c1fd0b460729fd79065e3b102da5d6c86efd804",
}


def odd_graph_builder(kind, graph_name):
    """A builder holding ``kind`` over the graph ``ODD_GRAPHS[graph_name]``."""
    n, pairs = ODD_GRAPHS[graph_name]
    b = CnfBuilder()
    vs = [VertexSpec(i, lit) for i, lit in enumerate(b.named_vars([f"in_{i}" for i in range(n)]))]
    if kind == "hcp":
        pairs = pairs + [(j, i) for i, j in pairs]
    lits = b.named_vars([f"edge_{i}_{j}" for i, j in pairs])
    getattr(graph, kind)(b, vs, [EdgeSpec(i, j, e) for (i, j), e in zip(pairs, lits)])
    return b


@pytest.mark.parametrize("kind, graph_name", sorted(ODD_GRAPH_TEXT))
def test_labels_on_a_graph_with_an_odd_cycle_keep_their_text(kind, graph_name):
    b = odd_graph_builder(kind, graph_name)
    cnf, varmap = emitted(b)
    assert hashlib.sha256((cnf + varmap).encode()).hexdigest() == ODD_GRAPH_TEXT[kind, graph_name]
    # every bit is state, named from 0
    prefix = "dist" if kind == "hcp" else "sdist"
    assert all(f"{prefix}_{i}_0" in b.names.values() for i in range(ODD_GRAPHS[graph_name][0]))


@pytest.mark.parametrize("kind", ["hcp", "scc"])
def test_a_label_is_not_its_own_zero_state_ban(monkeypatch, kind):
    # each label's ban is a clause with its literals, but a list of its own
    labels = []

    def recorded(*args):
        labels.extend(distance_labels(*args))
        return labels

    distance_labels = graph._distance_labels
    monkeypatch.setattr(graph, "_distance_labels", recorded)
    b = odd_graph_builder(kind, "cycle5")
    assert len(labels) == 5 and all(d in b.clauses for d in labels)
    assert all(cl is not d for d in labels for cl in b.clauses)


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

