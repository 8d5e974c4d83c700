"""CNF construction substrate.

Literals are nonzero DIMACS-style integers: variable ``v`` appears as ``v``
(positive) or ``-v`` (negated).  A :class:`CnfBuilder` owns the variable
counter and the clause list; every encoding in this package writes into one.

Variable 1 is reserved and asserted true so that constants can be used
wherever a literal is expected (``builder.TRUE`` / ``builder.FALSE``).
"""
from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

Lit = int


@dataclass
class UnaryCount:
    """Threshold outputs over ``inputs``: ``outputs[i-1]`` stands for
    sum >= i (see ``CnfBuilder.unary_count`` for which outputs are defined
    both ways)."""

    outputs: list[Lit]
    inputs: list[Lit]

    @property
    def size(self) -> int:
        return len(self.outputs)

    def value(self, assignment: dict[int, bool]) -> int:
        """The number of true outputs, which is the sum where every output
        is exact."""
        v = 0
        for o in self.outputs:
            if lit_value(o, assignment):
                v += 1
        return v


def lit_value(lit: Lit, assignment: dict[int, bool]) -> bool:
    try:
        v = assignment[abs(lit)]
    except KeyError:
        raise ValueError(f"assignment missing variable {abs(lit)}") from None
    return v if lit > 0 else not v


# At-most-one switches from pairwise to a ladder above this many literals.
_AMO_PAIRWISE_MAX = 6

# The constant literals, ``CnfBuilder.TRUE`` and ``CnfBuilder.FALSE``.
_CONSTANTS = (1, -1)

# _LFSR_TAPS[m] is the primitive polynomial of degree m that
# ``lfsr_successors`` steps by, as its terms below x^m (bit k for x^k): of
# the fewest terms, then the least; x^8 + x^4 + x^3 + x^2 + 1 is 0x1D.  Its
# nonzero states form one cycle of 2^m - 1 steps (Golomb, Shift Register
# Sequences, 1967); tests/test_cnf.py checks each entry's period.
_LFSR_TAPS = (
    None, 0x1, 0x3, 0x3, 0x3, 0x5, 0x3, 0x3, 0x1D, 0x11, 0x9,
    0x5, 0x53, 0x1B, 0x2B, 0x3, 0x2D, 0x9, 0x81, 0x27, 0x9,
)


class NameRule:
    """The names of a run of variables: ``fmt % key`` for each key of
    ``keys`` (not copied, so the caller must not change them), formatted
    only when ``names`` or ``lines`` is called, which no solve does.
    ``lines`` keeps the ``.map`` text of the last first variable asked for,
    so every board stamped from one grid template shares its rules' text."""

    def __init__(self, fmt: str, keys: Sequence):
        self.fmt, self.keys = fmt, keys
        self._lines: tuple[int, str] | None = None

    def names(self) -> list[str]:
        fmt = self.fmt
        return [fmt % k for k in self.keys]

    def lines(self, first: int) -> str:
        """One 'index name' line per name, numbered from ``first``."""
        if self._lines is None or self._lines[0] != first:
            self._lines = first, "".join([f"{v} {name}\n" for v, name in zip(itertools.count(first), self.names())])
        return self._lines[1]


# The name of variable 1, one rule that every builder shares.
_CONST_TRUE = NameRule("%s", ("const_true",))


def _merge_tree(seg: Sequence[Lit], merge: Callable[[list[Lit], list[Lit]], list[Lit]]) -> list[Lit]:
    """``merge`` over the halves of ``seg``, each built the same way first,
    the left one before the right; a single literal is its own list.  A
    module function, not a closure that calls itself: that would be a
    reference cycle, left for the cyclic collector, on every call."""
    if len(seg) == 1:
        return [seg[0]]
    mid = len(seg) // 2
    return merge(_merge_tree(seg[:mid], merge), _merge_tree(seg[mid:], merge))


def _fold(lits: list[Lit]) -> list[Lit] | None:
    """``lits`` as a clause with its constants folded: None if it holds
    ``TRUE`` or a complementary pair, else its literals without ``FALSE``
    and without repeats."""
    if 1 in lits or any(-l in lits for l in lits):
        return None
    return list(dict.fromkeys(l for l in lits if l != -1))


class CnfBuilder:
    """Fresh-variable allocation and clause storage.

    Every clause of ``clauses`` is a sequence of nonzero literals over
    allocated variables, with no literal repeated and no complementary
    pair: the internal solver watches two literals of each clause as given
    and relies on that.  A clause is a list, which the solver that takes
    the formula may reorder in place, or a tuple: a grid template's row,
    shared by every board stamped from it (``graph._Template``), which
    nobody changes.  No other container is a clause.  ``add_clause``
    checks and normalizes a clause into a list of that form.  The gate,
    cardinality and label methods, and the encoders of ``graph`` and
    ``puzzles``, append theirs to ``clauses`` directly, unchecked and not
    copied, and keep the contract themselves: the literals passed to one
    call must be over distinct variables.

    A variable's name is kept in ``name_runs``, a list of (first variable,
    ``NameRule``) runs in variable order, one per ``new_var(name)`` or
    ``named_vars`` call; ``names`` reads them as one mapping.

    Single-owner: a builder must not be shared across concurrent tasks.
    """

    def __init__(self):
        self.var_count = 1  # variable 1 is the reserved constant-true
        self.clauses: list[list[Lit] | tuple[Lit, ...]] = [[1]]
        self.name_runs: list[tuple[int, NameRule]] = [(1, _CONST_TRUE)]
        # the record of the grid template last stamped in (see
        # ``graph._Template.stamp``), whose text ``emit_dimacs`` writes for
        # its span
        self.stamped = None

    TRUE: Lit = 1
    FALSE: Lit = -1

    # -- variables and clauses ------------------------------------------

    @property
    def names(self) -> Mapping[int, str]:
        """Variable -> name for every named variable, in variable order: a
        read-only view of a dict built from ``name_runs`` at each read."""
        out: dict[int, str] = {}
        for first, rule in self.name_runs:
            out.update(zip(itertools.count(first), rule.names()))
        return MappingProxyType(out)

    def new_var(self, name: str | None = None) -> Lit:
        self.var_count += 1
        if name is not None:
            self.name_runs.append((self.var_count, NameRule("%s", (name,))))
        return self.var_count

    def new_vars(self, n: int) -> list[Lit]:
        first = self.var_count + 1
        self.var_count += max(n, 0)
        return list(range(first, self.var_count + 1))

    def named_vars(self, rule: NameRule) -> list[Lit]:
        """One fresh variable per name of ``rule``, in order: the batch form
        of ``new_var(name)``.  ``rule`` becomes one run of ``name_runs``."""
        first = self.var_count + 1
        self.var_count += len(rule.keys)
        self.name_runs.append((first, rule))
        return list(range(first, self.var_count + 1))

    def add_clause(self, lits: Iterable[Lit]) -> None:
        """Append a normalized clause.

        Duplicate literals are removed and tautologies dropped.  An empty
        literal sequence is kept as the empty clause: the formula is then
        unsatisfiable, and every solver and the DIMACS file see that.
        """
        out: list[Lit] = []
        seen: set[Lit] = set()
        for l in lits:
            if isinstance(l, bool) or not isinstance(l, int) or l == 0:
                raise ValueError(f"bad literal {l!r}")
            if abs(l) > self.var_count:
                raise ValueError(f"literal {l} references unallocated variable")
            if -l in seen:
                return  # tautology
            if l not in seen:
                seen.add(l)
                out.append(l)
        self.clauses.append(out)

    # -- Tseitin gates --------------------------------------------------

    def gate_or(self, lits: Sequence[Lit]) -> Lit:
        if not lits:
            raise ValueError("gate_or needs at least one literal")
        if len(lits) == 1:
            return lits[0]
        g = self.var_count = self.var_count + 1
        add = self.clauses.append
        for l in lits:
            add([g, -l])
        add([-g] + list(lits))
        return g

    def gate_xor(self, a: Lit, b: Lit) -> Lit:
        g = self.var_count = self.var_count + 1
        self.clauses += [[-g, a, b], [-g, -a, -b], [g, -a, b], [g, a, -b]]
        return g

    # -- cardinality ----------------------------------------------------

    def at_most_one(self, lits: Sequence[Lit]) -> None:
        if not lits:
            raise ValueError("at_most_one needs at least one literal")
        add = self.clauses.append
        if len(lits) <= _AMO_PAIRWISE_MAX:
            for i in range(len(lits)):
                for j in range(i + 1, len(lits)):
                    add([-lits[i], -lits[j]])
            return
        # sequential ladder: s_i = "some true among lits[0..i]"
        s_prev = lits[0]
        for l in lits[1:]:
            s = self.var_count = self.var_count + 1
            add([-s_prev, s])
            add([-l, s])
            add([-l, -s_prev])
            s_prev = s

    def unary_count(self, lits: Sequence[Lit], exact: int | None = None) -> UnaryCount:
        """Totalizer over ``lits`` (Bailleux & Boufkhad, CP 2003).

        Without ``exact`` the outputs are fully defined in every model
        (o_i <-> sum >= i), so a single unit clause on an output is a sound
        sum bound either way.  With ``exact``, outputs 1..exact are defined
        both ways, and above it each merge writes only o_i -> sum >= i, the
        direction that a positive unit or assumption on o_i reads: such an
        output may be false in a model whose sum reaches i, so neither a
        negative unit on it nor its truth value measures the sum.  Each of
        those outputs is the negation of a fresh variable, so a solver whose
        saved phase starts positive decides a free one false, which forces
        nothing.
        """
        if not lits:
            raise ValueError("unary_count needs at least one literal")
        if exact is None:
            exact = len(lits)
        elif exact < 0:
            raise ValueError(f"exact must be >= 0, not {exact}")

        add = self.clauses.append

        def merge(a: list[Lit], b: list[Lit]) -> list[Lit]:
            p, q = len(a), len(b)
            r = self.new_vars(p + q)
            r[exact:] = [-v for v in r[exact:]]
            # a_ge[i] is false when at least i of a are true, a_le[i] when at
            # most i are; each is empty where that always holds.  Joining
            # them gives every clause a list of its exact size.
            a_ge = [[]] + [[-x] for x in a]
            a_le = [[x] for x in a] + [[]]
            b_ge = [[]] + [[-x] for x in b]
            b_le = [[x] for x in b] + [[]]
            for i in range(p + 1):
                for j in range(q + 1):
                    k = i + j
                    if 1 <= k <= exact:
                        add([r[k - 1]] + a_ge[i] + b_ge[j])
                    if k <= p + q - 1:
                        add([-r[k]] + a_le[i] + b_le[j])
            return r

        inputs = list(lits)
        return UnaryCount(_merge_tree(inputs, merge), inputs)

    # -- distance labels ------------------------------------------------

    def lfsr_successors(self, x: list[Lit], steps: Sequence[tuple[list[Lit], Sequence[Lit]]]) -> list[int]:
        """For each (y, guard) of ``steps``: AND(guard) -> (y = f(x)), where
        x and y are labels, little-endian lists of literals, and f is one
        step of a Galois shift register (LFSR) over the primitive
        polynomial ``_LFSR_TAPS[m]`` of x's m state bits (see ``_steps_to``).

        Where x's bit 0 is a constant, as on a 2-coloured graph, its other
        bits are the state, and f flips bit 0: from ``FALSE`` it keeps the
        state, from ``TRUE`` it shifts it.  Otherwise every bit is state, and
        f shifts it.  A shift multiplies the state by x modulo the
        polynomial, with one ``gate_xor`` per feedback tap, built once per
        call.  Its nonzero states form one cycle of 2^m - 1 shifts, and zero
        is a fixed point, which the caller bans."""
        head, state = ([-x[0]], x[1:]) if x and x[0] in _CONSTANTS else ([], x)
        m = len(state)
        if not 0 < m < len(_LFSR_TAPS):
            raise ValueError(f"no shift register of width {m}")
        if x[0] != self.FALSE:
            taps, out = _LFSR_TAPS[m], state[-1]
            state = [out] + [self.gate_xor(s, out) if taps >> k & 1 else s for k, s in enumerate(state[:-1], 1)]
        return self._steps_to(head + state, steps)

    def _steps_to(self, image: list[Lit], steps: Sequence[tuple[list[Lit], Sequence[Lit]]]) -> list[int]:
        """For each (y, guard) of ``steps``: AND(guard) -> (y = image), with
        the clauses appended in one batch.  Each guard needs at least one
        literal.  Returns where each step's clauses start in ``clauses``,
        and where the last one's end: step t's are ``clauses[b[t]:b[t + 1]]``.

        Constant bits fold: a clause with a ``TRUE`` literal is dropped and
        ``FALSE`` literals are stripped, so a bit that is the same literal in
        y and in the image costs nothing."""
        out: list[list[Lit]] = []
        add = out.append
        marks = []
        for y, guard in steps:
            marks.append(len(out))
            if not guard:
                raise ValueError("a successor step needs a guard literal")
            if len(y) != len(image):
                raise ValueError("label width mismatch")
            # ``pre + [...]`` gives each clause a list of its exact size, where
            # ``[*pre, ...]`` would over-allocate it
            pre = [-g for g in guard]
            for yb, sb in zip(y, image):
                if yb == sb:
                    continue
                if yb in _CONSTANTS or sb in _CONSTANTS or yb == -sb:
                    out += [pre + body for body in (_fold([-yb, sb]), _fold([yb, -sb])) if body is not None]
                else:
                    add(pre + [-yb, sb])
                    add(pre + [yb, -sb])
        first = len(self.clauses)
        self.clauses += out
        return [first + m for m in marks] + [first + len(out)]

    # -- output ---------------------------------------------------------

    def emit_dimacs(self, sink) -> None:
        """Write the formula in DIMACS CNF to a text sink.

        On a builder that a grid template stamped (``stamped``, see
        ``graph._Stamp``), the stamped span's lines are slices of the text
        that the template rendered once, at the first emit of a board
        stamped from it, while the span still holds the template's rows;
        only the clauses before and after the span are formatted.  Cold and
        direct builds are formatted whole."""
        clauses, stamp = self.clauses, self.stamped
        if stamp is None or not stamp.lies_in(clauses):
            write_dimacs(sink, self.var_count, clauses)
            return
        sink.write(f"p cnf {self.var_count} {len(clauses)}\n")
        _write_clauses(sink, clauses, 0, stamp.first)
        stamp.write(sink)
        _write_clauses(sink, clauses, stamp.end, len(clauses))

    def emit_varmap(self, sink) -> None:
        """Write one 'index name' line per named variable, run by run of
        ``name_runs``, so in index order: each run's ``NameRule.lines``,
        which a rule renders once per first variable and keeps."""
        for first, rule in self.name_runs:
            write_text(sink, rule.lines(first))


# Clauses joined into one string per ``sink.write`` call.
_DIMACS_CHUNK = 4096
# Clauses formatted by one ``%``; divides _DIMACS_CHUNK.  A whole chunk's
# literal tuple and text can pass glibc's 128 KiB mmap threshold, and on
# encode-large that raised peak RSS by 0.2-0.5 MB at the same puzzle count;
# a quarter chunk did not, at the same speed.
_FORMAT_BATCH = 1024
# Characters of kept text per ``sink.write``: about one chunk of clauses,
# and each slice, with the bytes a file sink encodes it to, below that
# threshold.
_TEXT_CHUNK = 1 << 16


class _LineFormats(dict):
    """``_LINE[n]`` is the %-format of one DIMACS line of n literals, made
    the first time a clause of that length is written.  The empty clause's
    line is " 0", which ``parse_dimacs`` reads back as the empty clause."""

    def __missing__(self, n: int) -> str:
        line = self[n] = "%d " * n + "0\n" if n else " 0\n"
        return line


_LINE = _LineFormats()


def _dimacs_lines(batch: Sequence[Sequence[Lit]]) -> str:
    """The DIMACS lines of the clauses of ``batch``, one per clause, for at
    most ``_FORMAT_BATCH`` clauses.

    Formatting literals is most of the cost, so no Python code runs per
    clause or per literal: the format string is joined from the clause
    lengths, and one ``%`` fills it with the literals, all in C.  The
    formats are kept per clause length, not per variable, so the writer
    holds no table that grows with the number of variables."""
    return "".join(map(_LINE.__getitem__, map(len, batch))) % tuple(itertools.chain.from_iterable(batch))


def dimacs_text(clauses: Iterable[Sequence[Lit]]) -> tuple[str, array]:
    """The DIMACS lines of ``clauses``, as ``write_dimacs`` formats them, in
    one string, and where each clause's line starts in it, followed by the
    string's length."""
    clauses, parts, starts = iter(clauses), [], array("i", [0])
    while batch := list(itertools.islice(clauses, _FORMAT_BATCH)):
        part = _dimacs_lines(batch)
        parts.append(part)
        starts += array("i", itertools.accumulate(map(len, part.splitlines(True)), initial=starts.pop()))
    return "".join(parts), starts


def write_text(sink, text: str, lo: int = 0, hi: int | None = None) -> None:
    """Write text[lo:hi], kept text such as a template's clause lines or a
    ``NameRule``'s ``.map`` lines, at most ``_TEXT_CHUNK`` characters per
    ``sink.write``."""
    hi = len(text) if hi is None else hi
    for i in range(lo, hi, _TEXT_CHUNK):
        sink.write(text[i : min(i + _TEXT_CHUNK, hi)])


def write_dimacs(sink, nvars: int, clauses: Sequence[Sequence[Lit]]) -> None:
    """Write ``clauses`` over ``nvars`` variables in DIMACS CNF to a text
    sink: the header, then one line per clause, ended by 0, formatted by
    ``_dimacs_lines``."""
    sink.write(f"p cnf {nvars} {len(clauses)}\n")
    _write_clauses(sink, clauses, 0, len(clauses))


def _write_clauses(sink, clauses: Sequence[Sequence[Lit]], lo: int, hi: int) -> None:
    """Write the lines of clauses[lo:hi], one ``sink.write`` per
    ``_DIMACS_CHUNK`` clauses."""
    for i in range(lo, hi, _DIMACS_CHUNK):
        end = min(i + _DIMACS_CHUNK, hi)
        sink.write("".join([_dimacs_lines(clauses[j : min(j + _FORMAT_BATCH, end)]) for j in range(i, end, _FORMAT_BATCH)]))


def parse_dimacs(text: str) -> tuple[int, list[list[Lit]]]:
    """Parse a DIMACS CNF string into (nvars, clauses).  A literal repeated
    within a clause is kept once, as the internal solver needs.  Raises
    ValueError unless there is exactly one header, with counts of at least
    zero, that bounds every literal and counts every clause."""
    nvars = None
    nclauses = None
    clauses: list[list[Lit]] = []
    cur: list[Lit] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad DIMACS header: {line!r}")
            if nvars is not None:
                raise ValueError(f"second DIMACS header: {line!r}")
            nvars, nclauses = int(parts[2]), int(parts[3])
            if nvars < 0 or nclauses < 0:
                raise ValueError(f"negative count in DIMACS header: {line!r}")
            continue
        if nvars is None:
            raise ValueError("missing DIMACS header")
        for tok in line.split():
            v = int(tok)
            if v == 0:
                clauses.append(list(dict.fromkeys(cur)))
                cur = []
            elif abs(v) > nvars:
                raise ValueError(f"literal {v} is over variable {abs(v)}, above the header's {nvars}")
            else:
                cur.append(v)
    if cur:
        clauses.append(list(dict.fromkeys(cur)))
    if nvars is None:
        raise ValueError("missing DIMACS header")
    if nclauses != len(clauses):
        raise ValueError(f"header declares {nclauses} clauses, found {len(clauses)}")
    return nvars, clauses
