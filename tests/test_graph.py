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
    label_step,
    orthogonally_connected,
    sat_under,
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
    # a complete digraph has odd cycles, so all 3 bits of each label are
    # the shift register's state (2^3 - 1 > 4 - 1): each active edge into a
    # vertex but the start shifts the label once, and the four labels round
    # the cycle are distinct and nonzero
    b = CnfBuilder()
    vs, es = complete_digraph(b, 4)
    hcp(b, vs, es)
    force_in(b, vs, {0, 1, 2, 3})
    out = solve_internal(b.clauses, b.var_count)
    assert out.is_sat
    d = labels(b, out.model, "dist", range(4))
    for e in es:
        if out.model[e.lit] and e.dst != 0:
            assert d[e.dst] == label_step(d[e.src], 3, coloured=False), e
    assert len(set(d.values())) == 4 and 0 not in d.values()


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


def test_hcp_started_random_digraphs_vs_oracle():
    # with a start, which the caller puts in, the formula admits exactly
    # the single directed cycles through it
    rng = random.Random(6)
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for _ in range(4):
            edges = [p for p in pairs if rng.random() < 0.5]
            for start in range(n):
                b = CnfBuilder()
                vs = [VertexSpec(i, b.new_var()) for i in range(n)]
                es = [EdgeSpec(i, j, b.new_var()) for i, j in edges]
                hcp(b, vs, es, start=start)
                b.add_clause([vs[start].in_lit])
                got = {
                    (
                        frozenset(v.term for v, bit in zip(vs, bits) if bit),
                        frozenset((e.src, e.dst) for e, bit in zip(es, bits[n:]) if bit),
                    )
                    for bits in enumerate_selector_models(b, [v.in_lit for v in vs] + [e.lit for e in es])
                }
                want = {c for c in directed_cycles(n, edges) if start in c[0]}
                assert got == want, (edges, start)


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
    with pytest.raises(ValueError):
        hcp(b, [v1, v2], [e], start=3)


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


@pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 3)])
def test_hcp_grid_started_exhaustive(rows, cols):
    # every subset against brute-force cycle search, for every start, which
    # the caller puts in.  The full 2x2 with its start at (1, 2) or (2, 1),
    # whose label bit 0 is TRUE, needs a step that wraps: its labels run
    # 1, 2, 3, 0 or 3, 0, 1, 2
    cells = grid_cells(rows, cols)
    for start in cells:
        b = CnfBuilder()
        grid = make_grid(b, rows, cols)
        hcp_grid(b, grid, start=start)
        b.add_clause([grid.cell(*start)])
        for mask in range(1 << len(cells)):
            subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
            units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
            got = solve_internal(b.clauses + units, b.var_count).is_sat
            assert got == (start in subset and has_ham_cycle_grid(subset)), (start, subset)


def labels(b, model, prefix, terms, bit0=None):
    """Each term's label in ``model``: its bits named ``<prefix>_<term>_<i>``,
    and with ``bit0`` bit 0 from ``bit0(term)`` in place of a variable."""
    lit = {name: v for v, name in b.names.items()}
    out = {}
    for term in terms:
        low = 0 if bit0 is None else 1  # a constant bit 0 is no variable
        assert (f"{prefix}_{term}_0" in lit) == (low == 0)
        bits = itertools.takewhile(bool, (lit.get(f"{prefix}_{term}_{i}") for i in itertools.count(low)))
        out[term] = sum(model[v] << i for i, v in enumerate(bits, start=low)) | (bit0(term) if low else 0)
    return out


def colour(rc):
    return sum(rc) % 2


@pytest.mark.parametrize("started", [False, True])
def test_hcp_grid_label_bit_0_is_the_cell_colour(started):
    # on a full grid the side of (1, 1) is FALSE, so bit 0 of a cell's label
    # is (r + c) odd, and 3 state bits sit above it (2^3 - 1 > 11 // 2); in
    # every model found, each active edge into a cell other than the start
    # steps the label (the state shifts out of a TRUE cell only), and the
    # labels round the cycle are distinct with nonzero states
    rows, cols = 3, 4
    cells = grid_cells(rows, cols)
    for mask in range(1, 1 << len(cells)):
        subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        if not has_ham_cycle_grid(subset):
            continue
        start = min(subset)
        b = CnfBuilder()
        grid = make_grid(b, rows, cols)
        edges = hcp_grid(b, grid, start=start if started else None)
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        out = solve_internal(b.clauses + units, b.var_count)
        d = labels(b, out.model, "dist", cells, colour)
        assert all(d[rc] < 1 << 4 for rc in cells)
        for e in edges:
            if out.model[e.lit] and e.dst != start:
                assert d[e.dst] == label_step(d[e.src], 3, coloured=True), (subset, e)
        if len(subset) > 1:
            assert len({d[rc] for rc in subset}) == len(subset), subset
            assert all(d[rc] >> 1 for rc in subset), subset


def test_scc_grid_label_bit_0_is_the_cell_colour():
    # every in-cell but the root, the first in row-major order, has an
    # in-neighbour whose label steps to its own (3 state bits: 2^3 - 1 >
    # 8 // 2), and every in-cell's state is nonzero
    rows, cols = 3, 3
    cells = grid_cells(rows, cols)
    for mask in range(1, 1 << len(cells)):
        subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        if not orthogonally_connected(subset):
            continue
        b = CnfBuilder()
        grid = make_grid(b, rows, cols)
        scc_grid(b, grid)
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        out = solve_internal(b.clauses + units, b.var_count)
        d = labels(b, out.model, "sdist", cells, colour)
        assert all(d[rc] < 1 << 4 for rc in cells)
        for r, c in subset - {min(subset)}:
            nbrs = {(r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)} & subset
            assert any(d[(r, c)] == label_step(d[nb], 3, coloured=True) for nb in nbrs), (subset, (r, c))
        if len(subset) > 1:
            assert all(d[rc] >> 1 for rc in subset), subset


@pytest.mark.parametrize("hole", [None, (2, 1)], ids=["n8", "n7"])
def test_hcp_grid_labels_where_the_width_steps_up(hole):
    # every in-subset of a 2x4 grid, whole (n = 8) and without a corner
    # (n = 7), against brute-force cycle search: from n = 7 the labels need
    # 3 state bits (2^2 - 1 = 3 = 6 // 2), and with 2 a cycle of the 6 cells
    # right of (1, 1), the start, would go round in 3 shifts
    cells = [rc for rc in grid_cells(2, 4) if rc != hole]
    b = CnfBuilder()
    grid = GridVars(2, 4, {cell: b.new_var() for cell in cells})
    hcp_grid(b, grid)
    for mask in range(1 << len(cells)):
        subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        units = [[lit] if cell in subset else [-lit] for cell, lit in grid.cells.items()]
        assert solve_internal(b.clauses + units, b.var_count).is_sat == has_ham_cycle_grid(subset), subset


@pytest.mark.parametrize("hole", [None, (2, 1)], ids=["n8", "n7"])
def test_scc_labels_where_the_width_steps_up(hole):
    # scc over the same 2x4 grid graph with its edges free: every in-subset
    # with every set of active edges inside it, against flood fill.  With 2
    # state bits, a lone (1, 1), the root, beside a parent cycle round the 6
    # cells right of it would pass
    cells = [rc for rc in grid_cells(2, 4) if rc != hole]
    b = CnfBuilder()
    vs = [VertexSpec(rc, b.new_var()) for rc in cells]
    es = [EdgeSpec(u, w, b.new_var()) for u, w in itertools.combinations(cells, 2)
          if abs(u[0] - w[0]) + abs(u[1] - w[1]) == 1]
    scc(b, vs, es)
    for mask in range(1 << len(cells)):
        subset = {cell for i, cell in enumerate(cells) if mask >> i & 1}
        inside = [e for e in es if e.src in subset and e.dst in subset]
        for edge_mask in range(1 << len(inside)):
            active = {e.lit: (e.src, e.dst) for i, e in enumerate(inside) if edge_mask >> i & 1}
            units = [v.in_lit if v.term in subset else -v.in_lit for v in vs]
            units += [e.lit if e.lit in active else -e.lit for e in es]
            want = connected_in_graph(subset, list(active.values()))
            assert sat_under(b.clauses, b.var_count, units).is_sat == want, (subset, active)


def compositions(n):
    """Every ordered split of n into positive parts."""
    for cuts in itertools.product([False, True], repeat=n - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 0
            size += 1
        yield parts + [size]


@pytest.mark.parametrize("encode", [hcp, scc])
@pytest.mark.parametrize("n", [4, 8])
def test_complete_graph_labels_where_the_width_steps_up(encode, n):
    # every vertex of a complete graph in, and its edges fixed to disjoint
    # cycles over 0..n-1 in order, one per part of a composition of n (a
    # part of 1 is a lone vertex, of 2 one edge, or a 2-cycle for hcp):
    # satisfiable as the oracle says.  n = 4 and 8 are where the labels
    # need one bit more (2^m - 1 > n - 1); with a bit less, a lone vertex 0,
    # the start or root, beside one cycle of n - 1 would pass
    for parts in compositions(n):
        b = CnfBuilder()
        vs = [VertexSpec(i, b.new_var()) for i in range(n)]
        pairs = itertools.permutations(range(n), 2) if encode is hcp else itertools.combinations(range(n), 2)
        es = {p: EdgeSpec(*p, b.new_var()) for p in pairs}
        encode(b, vs, list(es.values()))
        on, first = set(), 0
        for size in parts:
            ring = list(range(first, first + size))
            on |= {(u, w) for u, w in zip(ring, ring[1:] + ring[:1]) if u != w}
            first += size
        if encode is scc:
            on = {tuple(sorted(p)) for p in on}
            want = connected_in_graph(set(range(n)), sorted(on))
        else:
            want = (frozenset(range(n)), frozenset(on)) in directed_cycles(n, sorted(on))
        units = [v.in_lit for v in vs] + [e.lit if p in on else -e.lit for p, e in es.items()]
        assert sat_under(b.clauses, b.var_count, units).is_sat == want, parts


@pytest.mark.parametrize("encode", [hcp, scc])
def test_an_odd_cycle_keeps_a_free_bit_0(encode):
    # a 5-cycle (a triangle would fit in 2 bits) cannot be 2-coloured: each
    # label keeps a variable for bit 0, and the full cycle is a model
    b = CnfBuilder()
    vs = [VertexSpec(i, b.new_var()) for i in range(5)]
    es = [EdgeSpec(i, (i + 1) % 5, b.new_var()) for i in range(5)]
    encode(b, vs, es)
    prefix = "dist" if encode is hcp else "sdist"
    assert {f"{prefix}_{i}_0" for i in range(5)} <= set(b.names.values())
    force_in(b, vs, set(range(5)))
    assert solve_internal(b.clauses, b.var_count).is_sat


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
