"""The rank-2 lattice kernel against the Smith form as the reference, the
canonical Lagrange-Gauss tie-break, exact rank, and how often the entry
points coerce their input."""

import itertools
import math
import random
import sys

import numpy as np

from conftest import same_lattice
from nnirank2 import linalg
from nnirank2.diagram import column_lattice_basis
from nnirank2.instances import gen_bt, gen_near_t, gen_product
from nnirank2.linalg import _lagrange_gauss, det_exact, rank_exact, smith_normal_form
from nnirank2.reduction import reduce_to_3x3, row_lattice_basis
from nnirank2.solver import RANK2, solve

SIZES = (2, 3, 4, 6, 10)


def corpus():
    """Seeded rank-2 matrices: products of every size pair and their
    transposes, bt(t) and near_t(t)."""
    for i, (n, m) in enumerate(itertools.product(SIZES, SIZES)):
        for s in range(2):
            _, _, A = gen_product(n, m, (3, 6, 10)[(i + s) % 3], seed=[2604, i, s])
            yield A
            yield A.T.copy()
    for t in range(1, 21):
        yield gen_bt(t)
    for i in range(10):
        yield gen_near_t(3 + 9 * i, seed=[2605, i])


def minor_gcd(basis) -> int:
    return math.gcd(*(
        int(p[0] * q[1] - p[1] * q[0]) for p, q in itertools.combinations(basis.tolist(), 2)
    ))


def test_column_lattice_basis_matches_smith_form():
    for A in corpus():
        S, _, _ = smith_normal_form(A)
        basis = column_lattice_basis(A)
        assert same_lattice(basis, S[:, :2])
        assert minor_gcd(basis) == 1


def test_row_lattice_basis_matches_smith_form():
    for A in corpus():
        _, D, T = smith_normal_form(A)
        reference = np.stack([D[0, 0] * T[0, :], D[1, 1] * T[1, :]], axis=1)
        assert same_lattice(np.stack(row_lattice_basis(A), axis=1), reference)


def unimodular_twist(v1, v2, rng):
    """Another basis of the lattice of (v1, v2): random shears, swaps and
    sign flips."""
    for _ in range(6):
        k = rng.randint(-3, 3)
        if rng.random() < 0.5:
            v2 = [y + k * x for x, y in zip(v1, v2)]
        else:
            v1, v2 = v2, v1
        if rng.random() < 0.3:
            v1 = [-x for x in v1]
    return v1, v2


def reduced(v1, v2):
    return _lagrange_gauss(tuple(v1), tuple(v2))


def test_reduce_basis_rank2_is_canonical():
    # (1,0,1), (0,1,1) spans a lattice with three shortest vectors up to
    # sign; every basis of it must reduce to the same pair
    rng = random.Random(2607)
    bases = [([1, 0, 1], [0, 1, 1]), ([1, 0], [0, 1]), ([2, 1], [1, 2])]
    for _ in range(300):
        k = rng.randint(2, 4)
        bases.append(tuple([rng.randint(-3, 3) for _ in range(k)] for _ in range(2)))
    for v1, v2 in bases:
        if rank_exact([v1, v2]) < 2:
            continue
        expected = reduced(v1, v2)
        for _ in range(10):
            assert reduced(*unimodular_twist(v1, v2, rng)) == expected, (v1, v2)
    assert reduced([1, 0, 1], [0, 1, 1]) == ((0, 1, 1), (1, -1, 0))


def test_rank_and_determinant_with_zero_pivot_columns():
    # rows with a zero below the pivot must still be scaled by Bareiss's
    # update, or later divisions stop being exact
    assert rank_exact([[2, 0, 0], [0, 1, 0], [0, 1, 1]]) == 3
    rng = random.Random(2608)
    for _ in range(2000):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, 2, 3, -4, 7)) for _ in range(m)] for _ in range(n)]
        as_float = np.array(rows, dtype=float)
        assert rank_exact(rows) == np.linalg.matrix_rank(as_float)
        if n == m:
            assert det_exact(rows) == round(np.linalg.det(as_float))


def calls_on_input(fn, A) -> tuple[int, int]:
    """(as_int_matrix calls on a matrix of A's shape, smith_normal_form
    calls) while fn(A) runs."""
    shape = (len(A), len(A[0]))
    counts = [0, 0]

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is linalg.as_int_matrix.__code__:
            data = frame.f_locals["data"]
            counts[0] += (len(data), len(data[0])) == shape
        elif frame.f_code is linalg.smith_normal_form.__code__:
            counts[1] += 1

    sys.setprofile(profile)
    try:
        fn(A)
    finally:
        sys.setprofile(None)
    return counts[0], counts[1]


def test_entry_points_coerce_the_input_once_per_layer():
    A = next(
        A.tolist()
        for A in (gen_product(12, 9, 3, seed=[2609, i])[2] for i in range(50))
        if solve(A).verdict == RANK2
    )
    # solve: its own entry, rank_exact, build_diagram, verify_factorization
    coerced, snf = calls_on_input(solve, A)
    assert coerced <= 4 and snf == 0
    # reduce_to_3x3: its own entry and build_3xm on A
    coerced, snf = calls_on_input(reduce_to_3x3, A)
    assert coerced <= 2 and snf == 0
