"""Brute-force reference implementations used as test oracles.

Nothing in this module shares code with the encodings under test: cycles are
found by backtracking search, connectivity by flood fill, Tapa layouts by
filtering all bit patterns, Roadrunner optima by enumerating laser subsets,
and a label step of the shift register on integers (it reads only the
encoder's tap table).
``Recording`` wraps a propagator and keeps the clauses it returns, for tests
that hold them against these oracles; ``check_on`` runs a propagator's
check on a trail of one's choosing, ``all_kept_models`` enumerates the
models of a formula, and ``deadline`` turns a call that hangs into a failed
test.
"""
from __future__ import annotations

import contextlib
import itertools
import signal

from gridloop import solve_internal
from gridloop.cnf import _LFSR_TAPS, lit_value
from gridloop.solver import Propagator, _Solver


def eval_clauses(clauses, assignment):
    for cl in clauses:
        if not any(assignment[abs(l)] == (l > 0) for l in cl):
            return False
    return True


def all_models(clauses, nvars):
    """Every satisfying total assignment, by exhaustive enumeration."""
    models = []
    for mask in range(1 << nvars):
        a = {v: bool(mask >> (v - 1) & 1) for v in range(1, nvars + 1)}
        if eval_clauses(clauses, a):
            models.append(a)
    return models


def satisfiable(clauses, nvars):
    for mask in range(1 << nvars):
        a = {v: bool(mask >> (v - 1) & 1) for v in range(1, nvars + 1)}
        if eval_clauses(clauses, a):
            return True
    return False


def sat_under(clauses, nvars, units):
    """Solve with extra unit clauses; returns the SolveOutcome."""
    return solve_internal(list(clauses) + [[l] for l in units], nvars)


def input_projection(clauses, nvars, input_lits):
    """The set of input-variable assignments extendable to a model, as
    frozensets of signed literals."""
    out = set()
    for bits in itertools.product([False, True], repeat=len(input_lits)):
        units = [l if b else -l for l, b in zip(input_lits, bits)]
        if sat_under(clauses, nvars, units).is_sat:
            out.add(tuple(bits))
    return out


def lfsr_step(m, v):
    """The m-bit state v one shift on: v times x modulo the polynomial
    ``_LFSR_TAPS[m]``."""
    return (v << 1 & (1 << m) - 1) ^ (_LFSR_TAPS[m] if v >> (m - 1) else 0)


def label_value(label, assignment):
    """The unsigned integer that ``label``, a little-endian list of
    literals, reads under ``assignment``."""
    return sum(1 << i for i, bit in enumerate(label) if lit_value(bit, assignment))


def label_step(d, m, coloured):
    """The label one step after d.  With ``coloured``, bit 0 of d is its
    side and the m bits above it the state: a step from side 0 keeps the
    state, one from side 1 shifts it, and each flips the side.  Otherwise
    all of d is the state, and a step shifts it."""
    if not coloured:
        return lfsr_step(m, d)
    return d | 1 if d & 1 == 0 else lfsr_step(m, d >> 1) << 1


# -- graphs ---------------------------------------------------------------

def grid_adjacent(a, b):
    return abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1


def has_ham_cycle_grid(cells):
    """Closed walk over orthogonal steps visiting every cell exactly once.
    A singleton counts, as does a mutually adjacent pair (2-cycle)."""
    cells = set(cells)
    if not cells:
        return False
    if len(cells) == 1:
        return True
    if len(cells) == 2:
        a, b = cells
        return grid_adjacent(a, b)
    start = min(cells)
    path = [start]
    used = {start}

    def bt():
        if len(path) == len(cells):
            return grid_adjacent(path[-1], start)
        for nxt in sorted(cells):
            if nxt not in used and grid_adjacent(path[-1], nxt):
                used.add(nxt)
                path.append(nxt)
                if bt():
                    return True
                path.pop()
                used.remove(nxt)
        return False

    return bt()


def grid_loops(n):
    """Every closed walk that a loop model on the n x n grid can stand for,
    as a cell list in walk order: each cell alone, each pair of adjacent
    cells (a 2-cycle), and each simple cycle, once, found by depth-first
    search from its lowest cell with its second cell below its last."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    loops = [[cell] for cell in cells]
    loops += [[a, b] for a, b in itertools.combinations(cells, 2) if grid_adjacent(a, b)]

    def extend(path):
        r, c = path[-1]
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nxt == path[0] and len(path) > 2 and path[1] < path[-1]:
                loops.append(list(path))
            elif nxt > path[0] and nxt in cell_set and nxt not in path:
                extend(path + [nxt])

    cell_set = set(cells)
    for cell in cells:
        extend([cell])
    return loops


def straight_run(cycle, i, step):
    """Cells passed from ``cycle[i]`` walking by ``step`` (+1 or -1) along
    the cycle before the walk first turns."""
    n = len(cycle)
    (r0, c0), (r1, c1) = cycle[i], cycle[(i + step) % n]
    dr, dc = r1 - r0, c1 - c0
    run = 1
    while True:
        (ra, ca), (rb, cb) = cycle[(i + run * step) % n], cycle[(i + (run + 1) * step) % n]
        if (rb - ra, cb - ca) != (dr, dc):
            return run
        run += 1


def directed_cycles(n, edges):
    """Every single directed cycle of the digraph on vertices 0..n-1, as
    (vertex set, edge set) frozensets; each vertex alone, with no edge,
    counts as a one-vertex cycle.  Found by depth-first search from each
    cycle's lowest vertex."""
    succ = {v: sorted(b for a, b in edges if a == v) for v in range(n)}
    cycles = {(frozenset([v]), frozenset()) for v in range(n)}

    def extend(start, path):
        for nxt in succ[path[-1]]:
            if nxt == start and len(path) > 1:
                steps = zip(path, path[1:] + [start])
                cycles.add((frozenset(path), frozenset(steps)))
            elif nxt > start and nxt not in path:
                extend(start, path + [nxt])

    for v in range(n):
        extend(v, [v])
    return cycles


def orthogonally_connected(cells):
    """Flood fill; the empty set counts as connected."""
    cells = set(cells)
    if not cells:
        return True
    seen = set()
    stack = [next(iter(cells))]
    while stack:
        r, c = stack.pop()
        if (r, c) in seen:
            continue
        seen.add((r, c))
        for nb in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nb in cells:
                stack.append(nb)
    return seen == cells


def connected_in_graph(subset, edges):
    """Connectivity of ``subset`` using only edges with both ends inside.
    Empty and singleton subsets count as connected."""
    subset = set(subset)
    if len(subset) <= 1:
        return True
    adj = {v: set() for v in subset}
    for a, b in edges:
        if a in subset and b in subset:
            adj[a].add(b)
            adj[b].add(a)
    seen = set()
    stack = [next(iter(subset))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adj[v] - seen)
    return seen == subset


# -- tapa -----------------------------------------------------------------

def ring_run_lengths(pattern, circular):
    """1-run lengths of a ring pattern, independent reimplementation."""
    n = len(pattern)
    if not any(pattern):
        return []
    if circular and all(pattern):
        return [n]
    if circular:
        # rotate so the pattern starts just after a 0
        start = next(i for i in range(n) if not pattern[i])
        pattern = pattern[start:] + pattern[:start]
    runs, cur = [], 0
    for bit in pattern:
        if bit:
            cur += 1
        elif cur:
            runs.append(cur)
            cur = 0
    if cur:
        runs.append(cur)
    return runs


def tapa_layout_patterns(clues, ring_len, circular):
    """All 0/1 patterns whose run multiset equals the (nonzero) clues."""
    want = sorted(cl for cl in clues if cl > 0)
    out = set()
    for mask in range(1 << ring_len):
        pattern = [mask >> i & 1 for i in range(ring_len)]
        if sorted(ring_run_lengths(pattern, circular)) == want:
            out.add(tuple(pattern))
    return out


# -- roadrunner -----------------------------------------------------------

def rr_segments(inst):
    """Maximal hill-free row/column runs, recomputed from the instance."""
    segs = []
    for y in range(1, inst.max_y + 1):
        run = []
        for x in range(1, inst.max_x + 2):
            if x <= inst.max_x and not inst.is_hill(x, y):
                run.append((x, y))
            elif run:
                segs.append(run)
                run = []
    for x in range(1, inst.max_x + 1):
        run = []
        for y in range(1, inst.max_y + 2):
            if y <= inst.max_y and not inst.is_hill(x, y):
                run.append((x, y))
            elif run:
                segs.append(run)
                run = []
    return segs


def rr_optimum(inst):
    """Exhaustive optimum road length over all laser placements, or None if
    no placement yields a nonempty single circuit of safe cells."""
    whites = inst.white_cells()
    segs = rr_segments(inst)
    clue_nbrs = {
        (x, y, num): [
            p
            for p in ((x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1))
            if inst.in_bounds(*p) and not inst.is_hill(*p)
        ]
        for x, y, num in inst.clues
    }
    best = None
    for bits in itertools.product([0, 1], repeat=len(whites)):
        lasers = {w for w, b in zip(whites, bits) if b}
        if any(sum(1 for p in seg if p in lasers) > 1 for seg in segs):
            continue
        if any(
            sum(1 for p in nbrs if p in lasers) != num
            for (_, _, num), nbrs in clue_nbrs.items()
        ):
            continue
        covered = set()
        for seg in segs:
            if any(p in lasers for p in seg):
                covered.update(seg)
        safe = [w for w in whites if w not in covered]
        if not safe or not has_ham_cycle_grid(safe):
            continue
        if best is None or len(safe) > best:
            best = len(safe)
    return best


def clause_faults(clauses, nvars):
    """Why each clause, if any, breaks the contract of clauses that reach
    the internal solver unchecked: a list, or a tuple (a template's shared
    row), of ints, each over a variable in 1..nvars, with no literal
    repeated and no complementary pair."""
    faults = []
    for i, cl in enumerate(clauses):
        if type(cl) not in (list, tuple):
            why = f"a {type(cl).__name__}, not a list or a tuple"
        elif not all(type(l) is int for l in cl):
            why = "a literal that is not an int"
        elif not all(0 < abs(l) <= nvars for l in cl):
            why = f"a literal over no variable in 1..{nvars}"
        elif len(set(cl)) != len(cl):
            why = "a repeated literal"
        elif len({abs(l) for l in cl}) != len(cl):
            why = "a complementary pair"
        else:
            continue
        faults.append(f"clause {i} {cl!r}: {why}")
    return faults


class Recording(Propagator):
    """A propagator that passes every call on to ``inner`` and keeps a copy
    of each clause that it returns in ``clauses``, each of them asserted
    false under the solver's trail.  ``_Solver._take`` also refuses a
    clause that is not false; this assertion is kept apart from it, so that
    a weaker check there still shows."""

    def __init__(self, inner):
        self.inner = inner
        self.clauses = []

    def check(self, solver):
        clauses = self.inner.check(solver)
        for cl in clauses:
            assert all(solver.val[lit + solver.nvars] == -1 for lit in cl), cl
            self.clauses.append(list(cl))
        return clauses

    def undo(self, trail_len):
        self.inner.undo(trail_len)


class Enumerator(Propagator):
    """Every model of a formula, told apart by the variables ``kept``: at
    each total trail ``check`` records their values in ``models`` and
    returns the clause that blocks them, so one search goes on until no
    model is left.  ``kept`` holds two or more variables: the solver
    refuses a propagator clause of one literal."""

    def __init__(self, kept):
        self.kept = kept
        self.models = []

    def check(self, solver):
        n = solver.nvars
        if len(solver.trail) < n:
            return []
        model = {v: solver.val[v + n] == 1 for v in self.kept}
        self.models.append(model)
        return [[-v if model[v] else v for v in self.kept]]


def on_trail(nvars, lits):
    """A solver over ``nvars`` variables and no clauses whose trail holds
    ``lits`` in order, at level 0: a trail for a propagator's check."""
    solver = _Solver([], nvars)
    solver._load()
    for lit in lits:
        solver._assign(lit, None)
    return solver


def check_on(propagator, assignment, order=None):
    """What ``propagator``'s check returns, read from the start, on a trail
    that holds ``assignment`` with its variables in ``order`` (default: the
    assignment's)."""
    propagator.undo(0)
    lits = [v if assignment[v] else -v for v in order or assignment]
    return propagator.check(on_trail(len(assignment), lits))


def all_kept_models(clauses, nvars, kept):
    """Every model of ``clauses`` over the variables ``kept``, once each, as
    a dict from variable to value, by one search with an ``Enumerator``."""
    enumerator = Enumerator(kept)
    assert _Solver(clauses, nvars, enumerator).solve().is_unsat
    return enumerator.models


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``, so that
    a search that would hang fails its test instead (POSIX, main thread)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
