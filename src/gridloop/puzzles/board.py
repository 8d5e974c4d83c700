"""The text layout that Masyu, Shingoki and Tapa boards share."""
from __future__ import annotations


def square_rows(text: str) -> tuple[int, list[str]]:
    """The size ``n`` of an n x n board and its ``n`` row lines.  The first
    line holds ``n`` alone; blank lines and lines that start with ``#`` are
    skipped.  Any other header, or a count of rows other than ``n``, is a
    ``ValueError``."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty instance")
    head = lines[0].split()
    if len(head) != 1:
        raise ValueError(f"expected header 'n', found {lines[0].strip()!r}")
    n = int(head[0])
    if n < 1:
        raise ValueError("grid size must be >= 1")
    rows = lines[1:]
    if len(rows) != n:
        raise ValueError(f"expected {n} board rows, found {len(rows)}")
    return n, rows
