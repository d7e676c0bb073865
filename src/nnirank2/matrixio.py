"""Plain-text matrix files: one row per line, space-separated base-10
integers (an optional sign, then ASCII digits).

Lines starting with '#' and blank lines are ignored on input and never
written.
"""

from __future__ import annotations

import os
import re

import numpy as np

from .linalg import as_int_matrix


def base10_int(token: str) -> int:
    """The integer a token spells as an optional sign and ASCII digits;
    ValueError otherwise.  int() alone would also take "1_0", " 7" and
    non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"{token!r} is not a base-10 integer")
    return int(token)


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([base10_int(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not rows:
        raise ValueError("no matrix rows found")
    return as_int_matrix(rows)


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def format_matrix(M) -> str:
    M = as_int_matrix(M)
    return "\n".join(" ".join(str(int(x)) for x in row) for row in M) + "\n"


def write_matrix(path: str | os.PathLike, M) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(M))
