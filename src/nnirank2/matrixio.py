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


def parse_matrix(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        for tok in tokens:
            # int() alone would also take "1_0" and non-ASCII digits such as "\u0663"
            if not re.fullmatch(r"[+-]?[0-9]+", tok):
                raise ValueError(f"line {lineno}: {tok!r} is not a base-10 integer")
        rows.append([int(tok) for tok in tokens])
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
