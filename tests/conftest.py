import os
import subprocess
import sys
from pathlib import Path

import pytest

import nnirank2
from nnirank2.linalg import _int_points, _pivot, as_int_matrix

# 3x3 matrix of rank 2 whose nonnegative integer rank is 3
BEASLEY = [[2, 0, 3], [1, 1, 4], [1, 3, 9]]

# 5x5 worked reduction example and its printed reductions
M55 = [
    [2, 4, 6, 4, 2],
    [4, 7, 10, 5, 2],
    [5, 8, 11, 4, 1],
    [2, 6, 10, 10, 6],
    [3, 7, 11, 9, 5],
]
PRINTED_B35 = [[5, 8, 11, 4, 1], [1, 3, 5, 5, 3], [1, 2, 3, 2, 1]]
PRINTED_C33 = [[5, 1, 3], [1, 3, 2], [1, 1, 1]]

# 3x4 matrix that is not rank2 although every 3-column submatrix is
SUBMATRIX_4COL = [[0, 6, 10, 15], [1, 3, 5, 8], [5, 9, 15, 25]]


def same_lattice(basis_a, basis_b) -> bool:
    """Do the columns of two n x 2 integer matrices generate one lattice?"""
    brows = [tuple(r) for r in as_int_matrix(basis_a).tolist()]
    piv = _pivot(brows)
    coords = _int_points(brows, piv, as_int_matrix(basis_b).tolist())
    if None in coords:
        return False
    (x0, y0), (x1, y1) = coords
    return abs(x0 * y1 - y0 * x1) == 1


def run_python(*args: str) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports this nnirank2, under a timeout,
    so a call that never returns fails the test instead of hanging it."""
    env = {**os.environ, "PYTHONPATH": str(Path(nnirank2.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60, env=env
    )


@pytest.fixture
def beasley():
    return as_int_matrix(BEASLEY)


@pytest.fixture
def m55():
    return as_int_matrix(M55)
