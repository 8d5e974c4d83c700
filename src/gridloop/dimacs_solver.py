"""DIMACS solver front end speaking the SAT-competition output protocol.

Usage: python -m gridloop.dimacs_solver FILE.cnf

Prints "s SATISFIABLE" with "v " value lines, or "s UNSATISFIABLE".
Exit code 10 for SAT, 20 for UNSAT, and 1 (with "error: ..." on stderr) for
a file that cannot be read or is not DIMACS CNF.  Backed by the internal CDCL
solver, so any tool expecting a conforming DIMACS solver can drive this
package.
"""
from __future__ import annotations

import sys

from .cnf import parse_dimacs
from .solver import solve_internal


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python -m gridloop.dimacs_solver FILE.cnf", file=sys.stderr)
        return 1
    try:
        with open(args[0]) as f:
            nvars, clauses = parse_dimacs(f.read())
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    outcome = solve_internal(clauses, nvars)
    if outcome.is_sat:
        print("s SATISFIABLE")
        lits = [v if outcome.model.assignment[v] else -v for v in range(1, nvars + 1)]
        for i in range(0, len(lits), 20):
            print("v " + " ".join(str(l) for l in lits[i : i + 20]))
        print("v 0")
        return 10
    print("s UNSATISFIABLE")
    return 20


if __name__ == "__main__":
    sys.exit(main())
