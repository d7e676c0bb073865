"""Plain-text matrix files: one row per line, space-separated base-10
integers (an optional sign, then ASCII digits).

Lines starting with '#' and blank lines are ignored on input and never
written.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from .linalg import _int_rows, as_int_matrix


class _TooManyDigits(ValueError, argparse.ArgumentTypeError):
    """A ValueError that argparse reports by its message, not as an invalid value."""

    def __init__(self, digits: int) -> None:
        self.digits, limit = digits, sys.get_int_max_str_digits()
        super().__init__(f"an integer of {digits} digits is over the limit of {limit} digits")


def base10_int(token: str) -> int:
    """The integer a token spells as an optional sign and ASCII digits;
    ValueError otherwise.  int() alone would also take "1_0", " 7" and
    non-ASCII digits."""
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(f"{token!r} is not a base-10 integer")
    try:
        return int(token)
    except ValueError:
        # the token is well formed, so its length is the only cause
        raise _TooManyDigits(len(token.lstrip("+-"))) from None


def base10_str(x: int) -> str:
    """str(x), refused with base10_int's message when x has more digits
    than the interpreter converts (sys.get_int_max_str_digits): no matrix
    file could give such an entry back."""
    try:
        return str(x)
    except ValueError:
        # 2**(b-1) <= |x| < 2**b has the digits of 2**(b-1) or one more
        digits = int((abs(x).bit_length() - 1) * math.log10(2)) + 1
        raise _TooManyDigits(digits + (abs(x) >= 10**digits)) from None


def base10_float(token: str) -> float:
    """The number a token spells as an ASCII decimal (sign, digits, fraction,
    exponent) or as inf or nan; ValueError otherwise, as on float()'s "1_0"."""
    if not re.fullmatch(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?|inf|nan)", token, re.I):
        raise ValueError(f"{token!r} is not a base-10 number")
    return float(token)


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
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def format_matrix(M) -> str:
    rows, _ = _int_rows(M)
    return "\n".join(" ".join(map(base10_str, row)) for row in rows) + "\n"


def write_matrix(path: str | os.PathLike, M) -> None:
    Path(path).write_text(format_matrix(M), encoding="utf-8")
