"""Graph reachability constraints compiled to CNF.

Two families are provided:

* ``hcp`` — the active directed edges form a single cycle covering exactly
  the in-vertices (distance encoding: the given start vertex, or without
  one the lowest-index in-vertex, is the start, and every active edge into
  another vertex steps the label once).
* ``scc`` — the in-vertices with their active undirected edges form one
  connected component (tree encoding: the lowest-index in-vertex is the
  root, every other in-vertex picks a parent, and the label steps once
  from parent to child).

The step rule alone bans sub-cycles and detached parts (Miller, Tucker &
Zemlin, JACM 1960).  It needs no +1, only a step that no short cycle of
labels can follow: a step is one move of a maximal-length shift register
(``CnfBuilder.lfsr_successors``), whose nonzero states of m bits form one
cycle of P = 2^m - 1 shifts.  Labels ban the zero state, and P is larger
than the number of shifts on any cycle that avoids the start (or root):
P > n - 1 over n vertices.  So labels carry no bound and the start's label
is not pinned.  On a bipartite graph, every grid among them, each step
crosses from one side to the other, so bit 0 of each label is its vertex's
side, a constant; a step from the FALSE side keeps the state and one from
the TRUE side shifts it, so a cycle of 2k steps shifts k times, and
P > (n - 1) // 2 is enough.

Plus grid variants that synthesize the orthogonal-adjacency edges of a cell
grid, and ``cycle_grid``, whose cycles are cut down to one during the
search by its propagator, ``OneCycle``.

Clauses go in unchecked, appended to ``CnfBuilder.clauses`` in batches
under the clause contract that ``CnfBuilder`` states, so every vertex and
edge literal given to these functions must be over a variable of its own.

On a grid that ``make_grid`` made, ``hcp_grid`` and ``cycle_grid`` stamp a
shape built twice in a row from a template (``_Template``);
``clear_templates`` forgets them.
"""
from __future__ import annotations

import functools
import itertools
from array import array
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .cnf import CnfBuilder, Lit, Rendered, UnaryCount, dimacs_text, varmap_text
from .solver import Propagator

Cell = tuple[int, int]


@dataclass
class VertexSpec:
    term: Hashable
    in_lit: Lit


@dataclass
class EdgeSpec:
    src: Hashable
    dst: Hashable
    lit: Lit


@dataclass
class GridVars:
    """The cells of a rows x cols board that can be in, and only those: a
    cell missing from ``cells`` gets no vertex and no edge."""

    rows: int
    cols: int
    cells: dict[tuple[int, int], Lit]  # 1-based (row, col) -> literal, row-major

    def cell(self, r: int, c: int) -> Lit:
        """Cell literal at 1-based (row, col)."""
        return self.cells[(r, c)]

    def read(self, assignment: Mapping[int, bool]) -> list[list[int]]:
        """0/1 per cell, row by row; a cell that cannot be in reads 0."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), lit in self.cells.items():
            if assignment[lit]:
                grid[r - 1][c - 1] = 1
        return grid


@functools.lru_cache(maxsize=1)
def _grid_shape(rows: int, cols: int) -> tuple[tuple[Cell, ...], tuple[str, ...]]:
    """The cells of the whole rows x cols rectangle in row-major order, and
    their names, kept for the last shape asked for."""
    keys = tuple((r, c) for r in range(1, rows + 1) for c in range(1, cols + 1))
    return keys, tuple(f"cell_{r}_{c}" for r, c in keys)


def make_grid(builder: CnfBuilder, rows: int, cols: int) -> GridVars:
    """A grid in which every cell can be in: the whole rectangle, its cells
    numbered in row-major order from the builder's next variable.
    ``hcp_grid`` and ``cycle_grid`` stamp such a grid's clauses from a
    template of its shape (see ``_Template``), once it has been built twice
    in a row.  Every board of the shape shares one tuple of cell names as
    its run of ``CnfBuilder.name_runs``, and gets its own ``cells`` dict."""
    if rows < 1 or cols < 1:
        raise ValueError("grid must be at least 1x1")
    keys, names = _grid_shape(rows, cols)
    return GridVars(rows, cols, dict(zip(keys, builder.named_vars(names))))


def _numbered_from(grid: GridVars) -> int | None:
    """The first cell variable of a grid laid out as ``make_grid`` lays one
    out (every cell of the rectangle, in row-major order, numbered up from
    it), else None."""
    cells = grid.cells
    if len(cells) != grid.rows * grid.cols:
        return None
    first = next(iter(cells.values()))
    if tuple(cells) != _grid_shape(grid.rows, grid.cols)[0]:
        return None
    return first if list(cells.values()) == list(range(first, first + len(cells))) else None


def _position(grid: GridVars, cell: Cell) -> int:
    """The row-major index of ``cell`` in a grid laid out as ``make_grid``
    lays one out; KeyError if it is not one of its cells."""
    if cell not in grid.cells:
        raise KeyError(cell)
    return (cell[0] - 1) * grid.cols + cell[1] - 1


class _Template:
    """What one grid encoder added to a builder under one key, kept compact
    to be stamped into every later builder that asks for the same key.

    The key names the encoder's grid (rows, cols, first cell variable), the
    first variable the encoder allocates and its variant; every literal,
    name and the variable count after the build are then the same on each
    board.  ``rows`` holds the clauses in order, each a tuple, with one int
    object per distinct literal: for a 20x20 ``hcp`` 35,088 tuples over
    11,440 ints, about 2.8 MB.  A board's span is these very tuples, not
    copies (the clause contract in ``CnfBuilder`` lets a shared row be a
    tuple, which nobody changes), so a stamped Masyu 20x20 holds about
    0.5 MB of clauses of its own, where fresh lists took about 6.6 MB.  No
    clause is empty.  ``bounds[at[v]:at[v + 1]]`` holds, pairwise, the
    (first, end) positions, counted from the first clause, of the clauses
    that a board leaves out when vertex v is its start or one of its
    anchors.  ``name_runs`` (the build's runs of ``CnfBuilder.name_runs``),
    ``edges`` and ``extra`` are shared by every board stamped too, which
    read them and never change them.

    A stamp records its span and its name runs on the builder (``_Stamp``).
    The first time a builder stamped from the template writes its DIMACS
    (``CnfBuilder.emit_dimacs``), the template renders the lines of all its
    clauses once, with where each line starts (``clause_text``; for a 20x20
    ``hcp`` about 602 KiB of lines and 137 KiB of line starts).  Every
    board's span is then written as slices of that text, cut where its
    dropped groups' clauses were.  Its ``.map`` lines are rendered once too,
    at the first ``CnfBuilder.emit_varmap`` (``name_text``), and written as
    they are.  The rows and the text live as long as the template, which
    goes when another key comes (``_repeats``) or at ``clear_templates``,
    or as a builder stamped from it."""

    def __init__(self, key, builder: CnfBuilder, base: int, named: int, groups, edges, extra):
        one = {}  # literal -> the int object that every row holding it shares
        self.key = key
        self.rows = [tuple(map(one.setdefault, cl, cl)) for cl in itertools.islice(builder.clauses, base, None)]
        self.size = len(self.rows)
        groups = groups or ()
        self.at = array("i", itertools.accumulate((2 * len(g) for g in groups), initial=0))
        self.bounds = array("i", (p - base for g in groups for lo_hi in g for p in lo_hi))
        self.name_runs = builder.name_runs[named:]
        self.var_count = builder.var_count
        self.edges = tuple(edges)
        self.extra = extra
        self._clause_text: tuple[str, array] | None = None
        self._name_text: str | None = None

    def _dropped(self, drop: Sequence[int]) -> list[tuple[int, int]]:
        """The (first, end) clause ranges that the vertices of ``drop``
        leave out, in order."""
        at, bounds = self.at, self.bounds
        return sorted((bounds[i], bounds[i + 1]) for v in drop for i in range(at[v], at[v + 1], 2))

    def keep(self, drop: Sequence[int]) -> bytearray:
        """One byte per clause: 0 where a vertex of ``drop`` leaves it out."""
        mask = bytearray(b"\x01") * self.size
        for lo, hi in self._dropped(drop):
            mask[lo:hi] = bytes(hi - lo)
        return mask

    def stamp(self, builder: CnfBuilder, drop: Sequence[int]) -> list[EdgeSpec]:
        """Add the template's rows to ``builder`` less the clauses of
        ``drop``'s vertices, and its name runs, and record both spans on it
        (``builder.stamped``); returns a fresh list of the shared edges."""
        clauses, name_runs = builder.clauses, builder.name_runs
        first, named = len(clauses), len(name_runs)
        clauses += itertools.compress(self.rows, self.keep(drop)) if drop else self.rows
        name_runs += self.name_runs
        builder.var_count = self.var_count
        builder.stamped = _Stamp(self, clauses, first, len(clauses), tuple(drop), name_runs, named)
        return list(self.edges)

    def clause_text(self) -> tuple[str, array]:
        """``dimacs_text`` of every clause, rendered at the first call."""
        if self._clause_text is None:
            self._clause_text = dimacs_text(self.rows)
        return self._clause_text

    def name_text(self) -> str:
        """``varmap_text`` of the name runs, rendered at the first call."""
        if self._name_text is None:
            self._name_text = varmap_text(self.name_runs)
        return self._name_text


class _Stamp(NamedTuple):
    """Where a template was stamped into a builder: its span is
    ``clauses[first:end]`` of the list it was made in, less the clauses of
    the vertices of ``drop``, and its names are the template's runs from
    ``name_runs[named]`` on, of the list they were added to.

    The span holds the template's rows, tuples that nobody changes, so a
    solver that takes the builder's clauses leaves them, and their text,
    as they were.  The text stands for the span only while the span still
    lies where it was stamped: the writers fall back to formatting every
    clause, or every name, when ``builder.clauses`` or ``builder.name_runs``
    has been replaced or no longer reaches the span's end, but a clause or
    run inserted or removed before the span goes unseen."""

    template: _Template
    clauses: list[Sequence[Lit]]
    first: int
    end: int
    drop: tuple[int, ...]
    name_runs: list[tuple[int, Sequence[str]]]
    named: int

    def clause_lines(self, clauses: list[Sequence[Lit]]) -> Rendered | None:
        """The span's clause lines for ``clauses``, the builder's list; None
        unless the span still lies in it."""
        if clauses is not self.clauses or len(clauses) < self.end:
            return None
        text, starts = self.template.clause_text()
        cuts, at = [], 0
        for lo, hi in self.template._dropped(self.drop) + [(self.template.size, self.template.size)]:
            if lo > at:
                cuts.append((starts[at], starts[lo]))
            at = hi
        return Rendered(self.first, self.end, text, cuts)

    def name_lines(self, name_runs: list[tuple[int, Sequence[str]]]) -> Rendered | None:
        """The ``.map`` lines of the stamped runs for ``name_runs``, the
        builder's list; None unless the runs still lie in it."""
        end = self.named + len(self.template.name_runs)
        if name_runs is not self.name_runs or len(name_runs) < end:
            return None
        text = self.template.name_text()
        return Rendered(self.named, end, text, [(0, len(text))])


# Per encoder, the key of its last build, and its template: one at most,
# of that key.
_LAST_KEYS: dict[str, tuple] = {}
_TEMPLATES: dict[str, _Template] = {}


def clear_templates() -> None:
    """Forget every grid template, so that the next build of each shape is
    a cold one."""
    _LAST_KEYS.clear()
    _TEMPLATES.clear()
    _grid_shape.cache_clear()


def _repeats(name: str, key) -> bool:
    """Whether encoder ``name``'s last build had ``key`` too.  Only such a
    key gets a template: a shape built once among boards of other shapes
    (the one 30x30 among 20x20s, or a one-off ``encode``) is encoded
    directly and never copied, which would raise the peak memory of its
    build, and the template of another key is let go first."""
    last, _LAST_KEYS[name] = _LAST_KEYS.get(name), key
    if last != key:
        _TEMPLATES.pop(name, None)
    return last == key


def _stamped(name: str, key, builder: CnfBuilder, drop: Sequence[int], build: Callable[[], tuple]) -> tuple:
    """(edges, extra) of encoder ``name`` for a key that ``_repeats``:
    stamped from its template, or on a miss built by ``build()``, which
    writes every group's clauses into ``builder`` and returns (edges, groups
    as absolute positions, extra); its compact copy becomes the template,
    and the clauses of ``drop``'s vertices are then taken out of the
    builder."""
    tpl = _TEMPLATES.get(name)
    if tpl is not None and tpl.key == key:
        return tpl.stamp(builder, drop), tpl.extra
    base, named = len(builder.clauses), len(builder.name_runs)
    edges, groups, extra = build()
    tpl = _TEMPLATES[name] = _Template(key, builder, base, named, groups, edges, extra)
    if drop:
        clauses = builder.clauses
        clauses[base:] = itertools.compress(itertools.islice(clauses, base, None), tpl.keep(drop))
    return edges, extra


def _check_vertices_edges(vs, es, directed: bool):
    if not vs:
        raise ValueError("need at least one vertex")
    index = {}
    for i, v in enumerate(vs):
        if v.term in index:
            raise ValueError(f"duplicate vertex term {v.term!r}")
        index[v.term] = i
    seen = set()
    for e in es:
        if e.src == e.dst:
            raise ValueError(f"self-loop on {e.src!r}")
        if e.src not in index or e.dst not in index:
            raise ValueError(f"edge ({e.src!r}, {e.dst!r}) references undeclared vertex")
        key = (e.src, e.dst) if directed else frozenset((e.src, e.dst))
        if key in seen:
            raise ValueError(f"duplicate edge ({e.src!r}, {e.dst!r})")
        seen.add(key)
    return index


def _edge_ends(
    builder: CnfBuilder, es: Sequence[EdgeSpec], index: Mapping[Hashable, int], in_lits: Sequence[Lit]
) -> list[tuple[int, int]]:
    """The (src, dst) vertex indices of each edge, whose literal puts both
    of its ends in."""
    ends = [(index[e.src], index[e.dst]) for e in es]
    builder.clauses += [c for e, (i, j) in zip(es, ends) for c in ([-e.lit, in_lits[i]], [-e.lit, in_lits[j]])]
    return ends


def _start_chain(builder: CnfBuilder, in_lits: Sequence[Lit]) -> tuple[list[Lit], list[Lit]]:
    """Literals per vertex i: (start_i, seen_i).  seen_i is true iff some
    vertex among 0..i is in; start_i implies that i is the lowest-index
    in-vertex, and start_0 is in_0.

    Prefix-occupancy chain: seen_i <-> seen_{i-1} or in_i; start_i -> in_i
    and not seen_{i-1}, one way only, since every reader reads start_i
    positively.  So at most one start is true, and possibly none.
    """
    # per vertex after the first, two fresh variables: start_i, then seen_i
    first, n = builder.var_count + 1, len(in_lits)
    builder.var_count += 2 * (n - 1)
    starts = [in_lits[0], *range(first, first + 2 * (n - 1), 2)]
    seen = [in_lits[0], *range(first + 1, first + 2 * (n - 1), 2)]
    builder.clauses += [
        cl
        for in_i, s, prev, o in zip(in_lits[1:], starts[1:], seen, seen[1:])
        for cl in ([-s, in_i], [-s, -prev], [o, -prev], [o, -in_i], [-o, prev, in_i])
    ]
    return starts, seen


def _sides(n: int, ends: Sequence[tuple[int, int]]) -> list[Lit] | None:
    """A 2-colouring of the vertices 0..n-1 under the edges ``ends``, as the
    constant bit 0 of each label: ``FALSE`` on the side of each connected
    part's lowest vertex, ``TRUE`` on the other.  None if an edge joins two
    vertices of one side, which an odd cycle makes unavoidable."""
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in ends:
        nbrs[i].append(j)
        nbrs[j].append(i)
    side = [0] * n  # 0: not reached yet
    for root in range(n):
        if side[root]:
            continue
        side[root] = CnfBuilder.FALSE
        stack = [root]
        while stack:
            i = stack.pop()
            for j in nbrs[i]:
                if not side[j]:
                    side[j] = -side[i]
                    stack.append(j)
                elif side[j] == side[i]:
                    return None
    return side


def _distance_labels(
    builder: CnfBuilder, vs: Sequence[VertexSpec], ends: Sequence[tuple[int, int]], prefix: str
) -> list[list[Lit]]:
    """One label per vertex for ``CnfBuilder.lfsr_successors``, its bits
    named ``<prefix>_<term>_<i>``; only the caller's step clauses and a ban
    on the shift register's zero state constrain it.  Where ``_sides``
    2-colours the graph, bit 0 is its vertex's side, a constant, and the
    other m bits are the state, with 2^m - 1 > (n - 1) // 2; only the TRUE
    side bans zero, since a step out of it shifts a nonzero state to a
    nonzero one, and a step out of the FALSE side keeps the state.
    Otherwise all m bits are state, 2^m - 1 > n - 1, and every label bans
    zero."""
    n = len(vs)
    sides = _sides(n, ends)
    if sides is None:
        width = n.bit_length()
        lits = builder.named_vars([f"{prefix}_{v.term}_{i}" for v in vs for i in range(width)])
        labels = [lits[k : k + width] for k in range(0, len(lits), width)]
        builder.clauses += [d[:] for d in labels]
        return labels
    width = 1 + ((n - 1) // 2 + 1).bit_length()
    lits = builder.named_vars([f"{prefix}_{v.term}_{i}" for v in vs for i in range(1, width)])
    labels = [[side] + lits[k : k + width - 1] for side, k in zip(sides, range(0, len(lits), width - 1))]
    builder.clauses += [d[1:] for d in labels if d[0] == builder.TRUE]
    return labels


def hcp(
    builder: CnfBuilder, vs: Sequence[VertexSpec], es: Sequence[EdgeSpec], start: Hashable | None = None
) -> None:
    """Constrain the active edges to form a single directed cycle covering
    exactly the in-vertices.

    A single in-vertex with no active edges counts as a (degenerate) cycle.
    ``start`` is a vertex term that every model has in, and the caller puts
    it in; no start chain is then built.  Without it the empty subgraph is
    forbidden, and the start is the lowest-index in-vertex.  No counter
    over the in-literals is built.

    Every in-vertex but the start has exactly one active out-edge and one
    active in-edge; the start has at most one of each and no degree clause.
    Counting edges then gives the start as many out-edges as in-edges.  If
    it had none, the other in-vertices would form cycles that avoid the
    start, and the step rule ``d_j = f(d_i)`` (for every active edge into a
    non-start j, f a step of ``CnfBuilder.lfsr_successors``) admits none:
    going round a cycle shifts a nonzero state a multiple of P = 2^m - 1
    times, and ``_distance_labels`` makes P larger than the shifts of a
    cycle of at most n - 1 vertices.

    The start chain's start_i only implies that i is the lowest in-vertex,
    so a model could set every start_i false.  Then every in-vertex has its
    degree clauses and every active edge steps, so the in-vertices lie on
    cycles that each shift a multiple of P times: one cycle through all n
    vertices (n = 2P on a 2-coloured graph, n = P otherwise), a valid
    answer, except that vertex 0 is then in and start_0 is in_0.  So every
    model has its start.
    """
    _hcp(builder, vs, es, start, None)


def _hcp(
    builder: CnfBuilder,
    vs: Sequence[VertexSpec],
    es: Sequence[EdgeSpec],
    start: Hashable | None,
    groups: list[list[tuple[int, int]]] | None,
) -> None:
    """``hcp``; with ``groups`` (one empty list per vertex) and a ``start``,
    it writes for every vertex, the start too, the clauses that ``hcp``
    leaves out at the start, and appends to groups[v] the (first, end)
    positions in ``builder.clauses`` of those that a start at v leaves out:
    its two degree clauses and the steps of the edges into it."""
    index = _check_vertices_edges(vs, es, directed=True)
    n = len(vs)
    in_lits = [v.in_lit for v in vs]
    ends = _edge_ends(builder, es, index, in_lits)

    if start is not None:
        if start not in index:
            raise ValueError(f"start {start!r} is not a vertex")
        start, starts = index[start], None
    else:
        # vertex 0 is the start whenever it is in
        start, (starts, seen) = 0, _start_chain(builder, in_lits)
        builder.clauses.append([seen[-1]])
    skip = start if groups is None else -1  # the vertex whose clauses are left out

    # every in-vertex but the start: exactly one out-edge and one in-edge
    outgoing: list[list[Lit]] = [[] for _ in range(n)]
    incoming: list[list[Lit]] = [[] for _ in range(n)]
    for e, (i, j) in zip(es, ends):
        outgoing[i].append(e.lit)
        incoming[j].append(e.lit)
    clauses = builder.clauses
    add = clauses.append
    for i in range(n):
        for lits in (outgoing[i], incoming[i]):
            if groups is not None:
                groups[i].append((len(clauses), len(clauses) + 1))
            if i != skip:
                add(([starts[i], -in_lits[i]] if starts else [-in_lits[i]]) + lits)
            if not lits:
                break  # the clause above subsumes the other direction's clause
            if len(lits) > 1:
                builder.at_most_one(lits)

    # active edge (i, j), j not the start -> d_j = f(d_i)
    dist = _distance_labels(builder, vs, ends, "dist")
    steps: list[list[tuple[list[Lit], list[Lit]]]] = [[] for _ in range(n)]
    into: list[list[int]] = [[] for _ in range(n)]
    for e, (i, j) in zip(es, ends):
        if j != skip:
            steps[i].append((dist[j], [e.lit, -starts[j]] if starts else [e.lit]))
            into[i].append(j)
    for i in range(n):
        if steps[i]:
            bounds = builder.lfsr_successors(dist[i], steps[i])
            if groups is not None:
                for j, lo, hi in zip(into[i], bounds, bounds[1:]):
                    groups[j].append((lo, hi))


def grid_graph_edges(builder: CnfBuilder, grid: GridVars) -> list[EdgeSpec]:
    """Directed edges between orthogonally adjacent cells, in row-major,
    direction-stable order (per cell: up, down, left, right)."""
    cells = grid.cells
    ends = [((r, c), b) for r, c in cells for b in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)) if b in cells]
    lits = builder.named_vars([f"edge_{r}_{c}_{r2}_{c2}" for (r, c), (r2, c2) in ends])
    return [EdgeSpec(a, b, e) for (a, b), e in zip(ends, lits)]


def _grid_vertices(grid: GridVars) -> list[VertexSpec]:
    return [VertexSpec(rc, lit) for rc, lit in grid.cells.items()]


def hcp_grid(builder: CnfBuilder, grid: GridVars, start: Cell | None = None) -> list[EdgeSpec]:
    """Apply hcp over the grid's cells, with ``start`` as hcp's; returns
    the edge list.

    A grid from ``make_grid`` of two rows and two columns or more is
    stamped from a template (``_Template``, about 2.8 MB of rows for
    20x20) keyed by rows, cols, the first cell variable, the first edge
    variable and whether there is a start, once that key has been built
    twice in a row (``_repeats``).  The template holds every vertex's
    degree clauses and steps: a start at v leaves out v's two degree
    clauses and the steps of the edges into v, as ``hcp`` does.  On one row
    or column an edge into the start can be its source's only step, whose
    shift-register gates would go too, so such a grid, and every grid not
    from ``make_grid``, is encoded directly.  The clause rows, names and EdgeSpecs are shared by
    the boards of one template."""
    first = _numbered_from(grid) if grid.rows > 1 and grid.cols > 1 else None
    key = (grid.rows, grid.cols, first, builder.var_count + 1, start is None)
    if first is None or not _repeats("hcp", key):
        edges = grid_graph_edges(builder, grid)
        hcp(builder, _grid_vertices(grid), edges, start)
        return edges
    try:
        drop = () if start is None else (_position(grid, start),)
    except KeyError:
        raise ValueError(f"start {start!r} is not a vertex") from None

    def build():
        edges = grid_graph_edges(builder, grid)
        groups = None if start is None else [[] for _ in grid.cells]
        _hcp(builder, _grid_vertices(grid), edges, start, groups)
        return edges, groups, None

    return _stamped("hcp", key, builder, drop, build)[0]


def scc(
    builder: CnfBuilder,
    vs: Sequence[VertexSpec],
    es: Sequence[EdgeSpec],
) -> None:
    """Constrain the in-vertices with active undirected edges to form one
    connected component.  Each EdgeSpec is one undirected edge; the reverse
    orientation shares its literal.  The empty subgraph is accepted.  No
    counter over the in-literals is built.

    Every in-vertex but the root (the lowest-index in-vertex) selects a
    parent over an active edge, and its label is one step of
    ``CnfBuilder.lfsr_successors`` from its parent's.  A chain of parents
    that repeats a vertex without passing the root would be a cycle of at
    most n - 1 vertices, which the labels cannot go round (see ``hcp``); so
    every chain ends at the root.  No label bound is needed.  A model with
    every one-way root_i false would have every in-vertex pick a parent, on
    a parent cycle through all n vertices; vertex 0 is then in, and root_0
    is in_0, so every model with an in-vertex has its root.
    """
    index = _check_vertices_edges(vs, es, directed=False)
    n = len(vs)
    in_lits = [v.in_lit for v in vs]
    ends = _edge_ends(builder, es, index, in_lits)

    roots, _ = _start_chain(builder, in_lits)
    dist = _distance_labels(builder, vs, ends, "sdist")

    # parent selection per vertex over its incident edges; vertex 0 is the
    # root whenever it is in, so it needs no parent
    incident: list[list[tuple[Lit, int]]] = [[] for _ in range(n)]
    for e, (i, j) in zip(es, ends):
        incident[i].append((e.lit, j))
        incident[j].append((e.lit, i))

    # selected parent j of i -> d_i = f(d_j)
    steps: list[list[tuple[list[Lit], list[Lit]]]] = [[] for _ in range(n)]
    clauses = builder.clauses
    for i in range(1, n):
        parents = builder.new_vars(len(incident[i]))
        clauses += [[-p, elit] for p, (elit, _) in zip(parents, incident[i])]
        for p, (_, j) in zip(parents, incident[i]):
            steps[j].append((dist[i], [p]))
        clauses.append([roots[i], -in_lits[i]] + parents)
        if len(parents) > 1:
            builder.at_most_one(parents)
    for j in range(n):
        if steps[j]:
            builder.lfsr_successors(dist[j], steps[j])


def scc_grid(builder: CnfBuilder, grid: GridVars) -> None:
    """scc over the grid cells, with one undirected edge literal per
    orthogonally adjacent pair, defined as the conjunction of the two cells."""
    cells = grid.cells
    ends = [((r, c), b) for r, c in cells for b in ((r + 1, c), (r, c + 1)) if b in cells]
    lits = builder.named_vars([f"uedge_{r}_{c}_{r2}_{c2}" for (r, c), (r2, c2) in ends])
    # scc's endpoint clauses give g -> a and g -> b
    builder.clauses += [[g, -cells[a], -cells[b]] for (a, b), g in zip(ends, lits)]
    scc(builder, _grid_vertices(grid), [EdgeSpec(a, b, g) for (a, b), g in zip(ends, lits)])


def cycle_grid(
    builder: CnfBuilder, grid: GridVars, anchors: Sequence[Cell] = (), count: UnaryCount | None = None
) -> tuple[list[EdgeSpec], OneCycle]:
    """The lazy twin of ``hcp_grid``: one literal per undirected edge, an
    active edge puts both of its cells in, and every in-cell has exactly two
    active edges, so the active edges form disjoint cycles.  No distance
    label bans a second cycle; the returned propagator (see ``OneCycle``)
    does that during the search.  The caller puts a cell in: ``anchors`` are
    cells that every model has in (a circle, say), and the caller asserts
    each one as a unit, so no clause here says that an edge puts an anchor
    in.

    ``count``, a counter over the cell literals, lets a cycle have one or two
    cells, as in ``hcp``: an in-cell needs an active edge only if the count
    is at least 2, and two only if it is at least 3.  Those guards read
    outputs 2 and 3 as false, so both must be exact (``unary_count`` with
    ``exact`` at least 3).  Returns the edges,
    row-major as (up or left cell, other), and the propagator.

    A grid from ``make_grid`` with no ``count`` is stamped from a template
    (``_Template``) keyed by rows, cols, the first cell variable and the
    first edge variable, once that key has been built twice in a row
    (``_repeats``).  The template holds every cell's ``[-e, in]`` clauses,
    and each anchor leaves its own out.  Each board gets its own
    ``OneCycle`` state; the clause rows, names, EdgeSpecs and the
    propagator's tables are shared by the boards of one template.  Other
    grids, Road Runner's with their counter among them, are encoded
    directly, with the same tables."""
    first = _numbered_from(grid) if count is None else None
    key = (grid.rows, grid.cols, first, builder.var_count + 1)
    if first is None or not _repeats("cycle", key):
        edges, tables = _cycle_grid(builder, grid, anchors, count)
        return edges, OneCycle(tables, anchors)
    drop = [_position(grid, a) for a in anchors]

    def build():
        at = len(builder.clauses)
        edges, tables = _cycle_grid(builder, grid, (), None)
        # the edge clauses come first, [-e, in_a] then [-e, in_b] per edge
        groups: list[list[tuple[int, int]]] = [[] for _ in grid.cells]
        for p, e in zip(range(at, at + 2 * len(edges), 2), edges):
            groups[tables.index[e.src]].append((p, p + 1))
            groups[tables.index[e.dst]].append((p + 1, p + 2))
        return edges, groups, tables

    edges, tables = _stamped("cycle", key, builder, drop, build)
    return edges, OneCycle(tables, anchors)


class _CycleTables(NamedTuple):
    """A grid's tables for ``OneCycle``, which only reads them."""

    index: dict[Cell, int]  # cell -> its place in the grid's cells, row-major
    in_lits: list[Lit]  # per cell index
    incident: list[list[tuple[Lit, int]]]  # per cell index: (edge literal, other cell index)
    ends_of: list[tuple[int, int] | None]  # edge variable -> its two cell indices


def _cycle_grid(
    builder: CnfBuilder, grid: GridVars, anchors: Sequence[Cell], count: UnaryCount | None
) -> tuple[list[EdgeSpec], _CycleTables]:
    """``cycle_grid``'s clauses, written directly; returns the edges and the
    tables for ``OneCycle``."""
    cells = grid.cells
    index = {rc: i for i, rc in enumerate(cells)}
    ends = [((r, c), b) for r, c in cells for b in ((r + 1, c), (r, c + 1)) if b in cells]
    lits = builder.named_vars([f"edge_{r}_{c}_{r2}_{c2}" for (r, c), (r2, c2) in ends])
    edges = [EdgeSpec(a, b, e) for (a, b), e in zip(ends, lits)]
    # an active edge puts each of its cells in, unless it is an anchor
    anchored = set(anchors)
    free = {rc: lit for rc, lit in cells.items() if rc not in anchored}
    clauses = builder.clauses
    clauses += [[-e, free[x]] for (a, b), e in zip(ends, lits) for x in (a, b) if x in free]
    # per cell, its edges up, left, down, right, as far as they exist, each
    # with the cell at its other end
    incident: list[list[tuple[Lit, int]]] = [[] for _ in cells]
    ends_of: list[tuple[int, int] | None] = [None] * (lits[-1] + 1 if lits else 1)
    for (a, b), e in zip(ends, lits):
        i, j = index[a], index[b]
        ends_of[e] = (i, j)
        incident[i].append((e, j))
        incident[j].append((e, i))
    # a counter over fewer than three cells lacks an output, which is false
    at_least_2, at_least_3 = (count.outputs + [builder.FALSE] * 2)[1:3] if count else (None, None)
    # per cell, written out by its number of edges: no three edges on, then
    # (in -> some other edge besides each one) at least two on
    for x, pairs in zip(cells.values(), incident):
        inc = [e for e, _ in pairs]
        guard = [-x, -at_least_3] if count else [-x]
        if len(inc) == 4:
            a, b, c, d = inc
            trios = ([-a, -b, -c], [-a, -b, -d], [-a, -c, -d], [-b, -c, -d])
            others = (guard + [b, c, d], guard + [a, c, d], guard + [a, b, d], guard + [a, b, c])
        elif len(inc) == 3:
            a, b, c = inc
            trios, others = ([-a, -b, -c],), (guard + [b, c], guard + [a, c], guard + [a, b])
        elif len(inc) == 2:
            a, b = inc
            trios, others = (), (guard + [b], guard + [a])
        else:
            trios, others = (), (guard,)
        clauses += trios
        if count:
            clauses.append([-x, -at_least_2] + inc)
        clauses += others
    return edges, _CycleTables(index, list(cells.values()), incident, ends_of)


class OneCycle(Propagator):
    """The propagator of ``cycle_grid``: it bans a model of two or more
    cycles with the generalized subtour elimination constraint (Balas, "The
    prize collecting traveling salesman problem", Networks 1989).  For a
    cycle S, a cell u in S and a cell v outside it, the cut is ``¬in_u ∨
    ¬in_v ∨ OR(edges with one end in S)``: one cycle through u and v leaves
    S.  u is the first anchor in S, else S's first cell in row-major order.
    Where u and v are anchors it is the boundary cut of Dantzig, Fulkerson &
    Johnson (1954).

    ``check`` reads the true edge literals of the trail in order and keeps,
    for each end of a path of them, the path's other end (``end``, indexed
    by cell), with an undo log keyed by trail position, so each new true
    edge costs O(1).  When an edge joins the two ends of one path, it closes
    a cycle S.  If a cell outside S is in, v is the first such anchor, else
    the first such cell in row-major order, where a cell is in if its
    literal is true on the trail, and ``check`` returns the cut.  The cut is
    false there: its cells are in, and the degree clauses have turned off
    every other edge of S's cells.

    That is complete, with no check on the total model: in a model of two
    or more cycles, the edge that comes last on the trail among those that
    close a cycle is read at a fixpoint where every other cycle's edges,
    and so their cells, are in, and it gets a cut.  ``decode_loop`` and
    ``decode_roadrunner`` still raise on a model of two cycles, so a fault
    here shows as a rejected answer (exit 1), never as a wrong VERIFIED."""

    def __init__(self, tables: _CycleTables, anchors: Sequence[Cell]):
        # cells by their row-major index, which orders them; the tables are
        # the grid's, shared with every other OneCycle over it
        _, self.in_lits, self.incident, self.ends_of = tables
        self.anchors = [tables.index[a] for a in anchors]
        # end[c]: the other end of the path that ends at c, c itself if c has
        # no true edge; stale at a cell inside a path, which no edge reaches
        self.end = list(range(len(self.in_lits)))
        self.log: list[tuple[int, int, int]] = []  # (trail position, cell, old end)
        self.head = 0  # the trail entries before head have been read

    def check(self, solver) -> list[list[Lit]]:
        trail = solver.trail
        ends_of, end, log = self.ends_of, self.end, self.log
        top = len(ends_of)
        pos, stop = self.head, len(trail)
        while pos < stop:
            lit = trail[pos]
            pos += 1
            if not 0 < lit < top or ends_of[lit] is None:
                continue
            a, b = ends_of[lit]
            ea, eb = end[a], end[b]
            if ea == b:
                cut = self._closed(solver, a, b)
                if cut is not None:
                    self.head = pos
                    return [cut]
                continue
            log.append((pos - 1, ea, end[ea]))
            log.append((pos - 1, eb, end[eb]))
            end[ea], end[eb] = eb, ea
        self.head = pos
        return []

    def undo(self, trail_len: int) -> None:
        end, log = self.end, self.log
        while log and log[-1][0] >= trail_len:
            _, cell, old = log.pop()
            end[cell] = old
        self.head = min(self.head, trail_len)

    def _closed(self, solver, a: int, b: int) -> list[Lit] | None:
        """The cut for the cycle that the true edge (a, b) closes, or None
        if no cell outside it is in."""
        n, val = solver.nvars, solver.val
        incident, in_lits = self.incident, self.in_lits
        cycle, prev, cur = [a], b, a
        while cur != b:
            # cur has two true edges, and the one that goes on is not to prev
            prev, cur = cur, next(o for e, o in incident[cur] if o != prev and val[e + n] == 1)
            cycle.append(cur)
        inside = set(cycle)
        outside_in = (c for c in itertools.chain(self.anchors, range(len(in_lits)))
                      if c not in inside and val[in_lits[c] + n] == 1)
        v = next(outside_in, None)
        return None if v is None else self._cut(inside, v)

    def _cut(self, inside: set[int], v: int) -> list[Lit]:
        u = next((c for c in self.anchors if c in inside), min(inside))
        leaving = sorted(e for c in inside for e, o in self.incident[c] if o not in inside)
        return [-self.in_lits[u], -self.in_lits[v]] + leaving


def grid_cycles(
    assignment: dict[int, bool], grid: GridVars, edges: Sequence[EdgeSpec]
) -> list[list[Cell]]:
    """The cycles of the active edges, read without their direction: each is
    walked from its first cell in row-major order along that cell's first
    active edge, and they are listed in that order.  Raises RuntimeError
    unless every cell has none or two active edges; a directed 2-cycle, one
    active edge each way, counts as two."""
    nbrs: dict[Cell, list[Cell]] = {}
    for e in edges:
        if assignment[e.lit]:
            nbrs.setdefault(e.src, []).append(e.dst)
            nbrs.setdefault(e.dst, []).append(e.src)
    for cell, ns in nbrs.items():
        if len(ns) != 2:
            raise RuntimeError(f"active-edge degree {len(ns)} at {cell}, not 0 or 2")
    cycles = []
    seen: set[Cell] = set()
    for start in grid.cells:
        if start not in nbrs or start in seen:
            continue
        cycle = [start]
        prev, cur = start, nbrs[start][0]
        while cur != start:
            cycle.append(cur)
            x, y = nbrs[cur]
            prev, cur = cur, y if x == prev else x
        seen.update(cycle)
        cycles.append(cycle)
    return cycles
