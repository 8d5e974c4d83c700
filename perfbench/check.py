"""Answer checks behind ``failed_ratio``.

Each check returns None for a correct answer or a short reason.  They read
only the CLI's output and the files it wrote, and judge a solution with the
puzzle's own ``gridloop.puzzles.verify_*`` rule checker, never with the
encoder or the solver.
"""
from __future__ import annotations

import json

from gridloop import puzzles

_PARSE = {
    "masyu": puzzles.parse_masyu,
    "shingoki": puzzles.parse_shingoki,
    "tapa": puzzles.parse_tapa,
    "roadrunner": puzzles.parse_roadrunner,
}
_VERIFY = {
    "masyu": puzzles.verify_masyu,
    "shingoki": puzzles.verify_shingoki,
    "tapa": puzzles.verify_tapa,
    "roadrunner": puzzles.verify_roadrunner,
}


def solution_from_json(kind: str, data: dict):
    """The benchmark's own reading of ``solve --output json``."""
    if kind == "tapa":
        return puzzles.ColoringSolution(data["black"])
    if kind == "roadrunner":
        return puzzles.RoadrunnerSolution(data["laser"], data["road"], int(data["k"]))
    cycle = [(int(r), int(c)) for r, c in data["cycle"]]
    return puzzles.LoopSolution(set(cycle), cycle)


def check_solve(inst, rc: int, stdout: str) -> str | None:
    """``solve --output json``: every generated puzzle is solvable by
    construction, so the answer must be exit 0 with a solution the verifier
    accepts and, for Road Runner, k at least the known value."""
    lines = stdout.strip().splitlines()
    if rc != 0:
        return f"exit {rc}, not 0: {lines[-1] if lines else ''}"[:120]
    try:
        data = json.loads(lines[-1])
        if data.get("kind") != inst.kind:
            return f"solution of kind {data.get('kind')!r}"
        sol = solution_from_json(inst.kind, data)
        reason = _VERIFY[inst.kind](_PARSE[inst.kind](inst.text), sol)
    except (IndexError, KeyError, TypeError, ValueError) as e:
        return f"malformed solution: {e!r}"[:120]
    if reason:
        return f"verifier rejects: {reason}"
    if inst.known_k is not None and sol.k < inst.known_k:
        return f"k={sol.k} below the known {inst.known_k}"
    return None


def check_dimacs(path: str) -> str | None:
    """The ``p cnf`` header must announce exactly the clauses written."""
    with open(path, "rb") as f:
        lines = f.read().splitlines()
    headers = [ln for ln in lines if ln.startswith(b"p ")]
    if len(headers) != 1:
        return f"{len(headers)} DIMACS header lines"
    fields = headers[0].split()
    if len(fields) != 4 or fields[1] != b"cnf":
        return "malformed DIMACS header"
    clauses = sum(1 for ln in lines if ln and not ln.startswith((b"c", b"p")))
    if int(fields[3]) != clauses:
        return f"header announces {int(fields[3])} clauses, file has {clauses}"
    return None


def check_encode_verify(enc: tuple[int, str], ver: tuple[int, str], cnf_path: str,
                        mutant: tuple[int, str]) -> str | None:
    """``encode`` then ``verify`` of the known solution: both exit 0, the
    DIMACS header matches the clauses written, the known solution is
    accepted and its one-cell mutation rejected."""
    if enc[0] != 0:
        return f"encode exit {enc[0]}"
    if ver[0] != 0 or ver[1].strip() != "ACCEPT":
        return f"known solution not accepted: exit {ver[0]} {ver[1].strip()[:80]}"
    if mutant[0] != 1 or not mutant[1].startswith("REJECT"):
        return f"mutated solution not rejected: exit {mutant[0]} {mutant[1].strip()[:80]}"
    return check_dimacs(cnf_path)
