"""Oracle-backed tests for the hcp/scc encodings."""
import itertools
import random

import pytest

from gridloop import (
    CnfBuilder,
    EdgeSpec,
    GridVars,
    VertexSpec,
    hcp,
    hcp_grid,
    make_grid,
    scc,
    scc_grid,
    solve_internal,
)

from oracles import (
    connected_in_graph,
    directed_cycles,
    has_ham_cycle_grid,
    orthogonally_connected,
)


def complete_digraph(b, n):
    vs = [VertexSpec(i, b.new_var()) for i in range(n)]
    es = [
        EdgeSpec(i, j, b.new_var())
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return vs, es


def force_in(b, vs, members):
    for v in vs:
        b.add_clause([v.in_lit] if v.term in members else [-v.in_lit])


def grid_cells(rows, cols):
    return [(r, c) for r in range(1, rows + 1) for c in range(1, cols + 1)]


def check_grid_with_holes(rows, cols, encode, oracle):
    """For every non-empty set of present cells (the others are holes with
    no literal), the SAT status of every in-subset against the oracle."""
    cells = grid_cells(rows, cols)
    for present_mask in range(1, 1 << len(cells)):
        present = [cell for i, cell in enumerate(cells) if present_mask >> i & 1]
        b = CnfBuilder()
        grid = GridVars(rows, cols, {cell: b.new_var() for cell in present})
        encode(b, grid)
        for mask in range(1 << len(present)):
            subset = {cell for i, cell in enumerate(present) if mask >> i & 1}
            units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
            got = solve_internal(b.clauses + units, b.var_count).is_sat
            assert got == oracle(subset), (present, subset)


def enumerate_selector_models(b, selectors):
    """All distinct projections onto the selector literals."""
    clauses = list(b.clauses)
    found = []
    while True:
        out = solve_internal(clauses, b.var_count)
        if not out.is_sat:
            return found
        bits = tuple(out.model[s] for s in selectors)
        found.append(bits)
        clauses.append([-s if bit else s for s, bit in zip(selectors, bits)])


# -- hcp ------------------------------------------------------------------

def test_hcp_triangle_all_in():
    b = CnfBuilder()
    vs, es = complete_digraph(b, 3)
    assert hcp(b, vs, es) is None  # no counter unless a caller asks for one
    force_in(b, vs, {0, 1, 2})
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    succ = {e.src: e.dst for e in es if out.model[e.lit]}
    walk, cur = [0], succ[0]
    while cur != 0:
        walk.append(cur)
        cur = succ[cur]
    assert sorted(walk) == [0, 1, 2]


def test_hcp_missing_return_edge_unsat():
    b = CnfBuilder()
    vs = [VertexSpec(1, b.new_var()), VertexSpec(2, b.new_var())]
    es = [EdgeSpec(1, 2, b.new_var())]
    hcp(b, vs, es)
    force_in(b, vs, {1, 2})
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_hcp_singleton_sat():
    b = CnfBuilder()
    vs = [VertexSpec(1, b.new_var())]
    hcp(b, vs, [])
    b.add_clause([vs[0].in_lit])
    assert solve_internal(b.clauses, b.var_count).is_sat


def test_hcp_isolated_vertex_repeats_no_clause():
    # vertex 2 has no edge, so it can be in only as a one-vertex cycle
    b = CnfBuilder()
    vs = [VertexSpec(i, b.new_var()) for i in range(3)]
    hcp(b, vs, [EdgeSpec(0, 1, b.new_var()), EdgeSpec(1, 0, b.new_var())])
    assert len({frozenset(cl) for cl in b.clauses}) == len(b.clauses)
    for members, want in [({2}, True), ({0, 1}, True), ({0, 2}, False), ({0, 1, 2}, False)]:
        units = [[v.in_lit] if v.term in members else [-v.in_lit] for v in vs]
        assert solve_internal(b.clauses + units, b.var_count).is_sat == want, members


def test_hcp_empty_forbidden_by_default():
    b = CnfBuilder()
    vs, es = complete_digraph(b, 3)
    hcp(b, vs, es)
    force_in(b, vs, set())
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_hcp_distances_bijection():
    # labels carry no bound and the start's is not pinned, but 4 vertices
    # fill the 2-bit width: three steps from the start without overflow
    # leave only {0..3}
    b = CnfBuilder()
    vs, es = complete_digraph(b, 4)
    hcp(b, vs, es)
    force_in(b, vs, {0, 1, 2, 3})
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    # distance bits are named dist_<term>_<i>
    by_vertex = {i: [] for i in range(4)}
    for idx, name in b.names.items():
        if name.startswith("dist_"):
            _, term, bit = name.split("_")
            by_vertex[int(term)].append((int(bit), idx))
    values = []
    for term, bits in by_vertex.items():
        v = 0
        for bit, idx in bits:
            if out.model.assignment[idx]:
                v |= 1 << bit
        values.append(v)
    assert sorted(values) == [0, 1, 2, 3]


def test_hcp_random_digraphs_vs_oracle():
    # each ordered pair is an edge on its own coin, so an edge's reverse may
    # be missing; the formula admits exactly the single directed cycles
    rng = random.Random(5)
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(6):
            edges = [p for p in pairs if rng.random() < 0.5]
            b = CnfBuilder()
            vs = [VertexSpec(i, b.new_var()) for i in range(n)]
            es = [EdgeSpec(i, j, b.new_var()) for i, j in edges]
            hcp(b, vs, es)
            got = {
                (
                    frozenset(v.term for v, bit in zip(vs, bits) if bit),
                    frozenset((e.src, e.dst) for e, bit in zip(es, bits[n:]) if bit),
                )
                for bits in enumerate_selector_models(b, [v.in_lit for v in vs] + [e.lit for e in es])
            }
            assert got == directed_cycles(n, edges), edges


def test_hcp_rejects_bad_input():
    b = CnfBuilder()
    v1, v2 = VertexSpec(1, b.new_var()), VertexSpec(2, b.new_var())
    with pytest.raises(ValueError):
        hcp(b, [v1, VertexSpec(1, b.new_var())], [])
    with pytest.raises(ValueError):
        hcp(b, [v1, v2], [EdgeSpec(1, 1, b.new_var())])
    with pytest.raises(ValueError):
        hcp(b, [v1, v2], [EdgeSpec(1, 3, b.new_var())])
    e = EdgeSpec(1, 2, b.new_var())
    with pytest.raises(ValueError):
        hcp(b, [v1, v2], [e, EdgeSpec(1, 2, b.new_var())])


# -- hcp_grid -------------------------------------------------------------

def test_hcp_grid_2x2_square():
    b = CnfBuilder()
    grid = make_grid(b, 2, 2)
    edges = hcp_grid(b, grid)
    for r, c in grid_cells(2, 2):
        b.add_clause([grid.cell(r, c)])
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    assert sum(1 for e in edges if out.model[e.lit]) == 4


def test_hcp_grid_3x3_full_unsat():
    # 9-cell cycle impossible: grid graphs are bipartite (no odd cycles)
    b = CnfBuilder()
    grid = make_grid(b, 3, 3)
    hcp_grid(b, grid)
    for r, c in grid_cells(3, 3):
        b.add_clause([grid.cell(r, c)])
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_hcp_grid_1x3_unsat():
    b = CnfBuilder()
    grid = make_grid(b, 1, 3)
    hcp_grid(b, grid)
    for r, c in grid_cells(1, 3):
        b.add_clause([grid.cell(r, c)])
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_hcp_grid_edge_order_deterministic():
    b = CnfBuilder()
    grid = make_grid(b, 2, 2)
    edges = hcp_grid(b, grid)
    # row-major, per cell up/down/left/right filtered to the grid
    assert [(e.src, e.dst) for e in edges[:4]] == [
        ((1, 1), (2, 1)),
        ((1, 1), (1, 2)),
        ((1, 2), (2, 2)),
        ((1, 2), (1, 1)),
    ]


def test_hcp_grid_exhaustive_2x3():
    # every in-subset of every 2x3 grid with holes against brute-force
    # cycle search
    check_grid_with_holes(2, 3, hcp_grid, has_ham_cycle_grid)


# -- scc ------------------------------------------------------------------

def test_scc_pair_with_edge():
    b = CnfBuilder()
    vs = [VertexSpec(1, b.new_var()), VertexSpec(2, b.new_var())]
    e = EdgeSpec(1, 2, b.new_var())
    assert scc(b, vs, [e]) is None  # no counter unless a caller asks for one
    force_in(b, vs, {1, 2})
    b.add_clause([e.lit])
    assert solve_internal(b.clauses, b.var_count).is_sat


def test_scc_pair_without_edge_unsat():
    b = CnfBuilder()
    vs = [VertexSpec(1, b.new_var()), VertexSpec(2, b.new_var())]
    scc(b, vs, [])
    force_in(b, vs, {1, 2})
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_scc_empty_subgraph_sat():
    b = CnfBuilder()
    vs = [VertexSpec(i, b.new_var()) for i in range(3)]
    scc(b, vs, [EdgeSpec(0, 1, b.new_var()), EdgeSpec(1, 2, b.new_var())])
    force_in(b, vs, set())
    assert solve_internal(b.clauses, b.var_count).is_sat


def test_scc_edge_implies_endpoints():
    b = CnfBuilder()
    vs = [VertexSpec(1, b.new_var()), VertexSpec(2, b.new_var())]
    e = EdgeSpec(1, 2, b.new_var())
    scc(b, vs, [e])
    b.add_clause([e.lit])
    b.add_clause([-vs[0].in_lit])
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_scc_random_graphs_vs_oracle():
    # SAT iff the in-subset is connected in the given graph (edges free)
    rng = random.Random(7)
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(6):
            edges = [p for p in pairs if rng.random() < 0.5]
            b = CnfBuilder()
            vs = [VertexSpec(i, b.new_var()) for i in range(n)]
            es = [EdgeSpec(a, c, b.new_var()) for a, c in edges]
            scc(b, vs, es)
            for mask in range(1 << n):
                subset = {i for i in range(n) if mask >> i & 1}
                units = [
                    [v.in_lit] if v.term in subset else [-v.in_lit] for v in vs
                ]
                got = solve_internal(b.clauses + units, b.var_count).is_sat
                assert got == connected_in_graph(subset, edges), (edges, subset)


# -- scc_grid -------------------------------------------------------------

def test_scc_grid_diagonal_unsat():
    b = CnfBuilder()
    grid = make_grid(b, 2, 2)
    scc_grid(b, grid)
    b.add_clause([grid.cell(1, 1)])
    b.add_clause([-grid.cell(1, 2)])
    b.add_clause([-grid.cell(2, 1)])
    b.add_clause([grid.cell(2, 2)])
    assert solve_internal(b.clauses, b.var_count).is_unsat


def test_scc_grid_single_cell_sat():
    b = CnfBuilder()
    grid = make_grid(b, 2, 2)
    scc_grid(b, grid)
    b.add_clause([grid.cell(1, 1)])
    for r, c in [(1, 2), (2, 1), (2, 2)]:
        b.add_clause([-grid.cell(r, c)])
    assert solve_internal(b.clauses, b.var_count).is_sat


def test_scc_grid_exhaustive_2x3():
    check_grid_with_holes(2, 3, scc_grid, orthogonally_connected)


@pytest.mark.parametrize("encode", [hcp_grid, scc_grid])
def test_grid_encoding_30x30_size(encode):
    # without a counter nobody reads, a 30x30 grid encodes in O(n log n)
    # clauses; a totalizer over its 900 cells alone costs about 827k
    b = CnfBuilder()
    encode(b, make_grid(b, 30, 30))
    assert len(b.clauses) < 250_000
