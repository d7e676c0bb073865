"""The rank-2 lattice kernel against the Smith form as the reference, the
canonical Lagrange-Gauss tie-break and its Gram-matrix form against the
vector loop, exact rank, the int64 span check against its Python-int loop,
and how often the entry points coerce their input."""

import itertools
import math
import random
import sys

import numpy as np
import pytest

from conftest import same_lattice
from nnirank2 import linalg
from nnirank2.diagram import column_lattice_basis, point_coordinates
from nnirank2.instances import gen_bt, gen_near_t, gen_product
from nnirank2.linalg import (
    _bareiss,
    _column_frame,
    _int64_matrix,
    _int64_rows,
    _lagrange_gauss,
    det_exact,
    rank_exact,
    smith_normal_form,
)
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


def reference_lagrange_gauss(b1, b2):
    """Lagrange-Gauss reduction on the vectors themselves, O(m) per step,
    with the canonical tie-break: the two smallest of the four
    sign-normalized candidates by (squared norm, tuple)."""
    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def normalized(v):
        return tuple(-x for x in v) if next((x for x in v if x), 0) < 0 else v

    n1, n2 = dot(b1, b1), dot(b2, b2)
    if n1 > n2:
        b1, b2, n1, n2 = b2, b1, n2, n1
    while True:
        mu = (2 * dot(b1, b2) + n1) // (2 * n1)
        if mu:
            b2 = tuple(y - mu * x for x, y in zip(b1, b2))
            n2 = dot(b2, b2)
        if n2 >= n1:
            break
        b1, b2, n1, n2 = b2, b1, n2, n1
    cands = [b1, b2, tuple(y - x for x, y in zip(b1, b2)), tuple(y + x for x, y in zip(b1, b2))]
    (_, v1), (_, v2) = sorted((dot(v, v), v) for v in map(normalized, cands))[:2]
    return v1, v2


def test_lagrange_gauss_matches_the_vector_loop():
    rng = random.Random(2612)
    bases = [([1, 0, 1], [0, 1, 1]), ([1, 0], [0, 1]), ([2, 1], [1, 2])]
    for k in range(2, 13):
        for bound in (1, 3, 10**6):
            for _ in range(60):
                bases.append(tuple([rng.randint(-bound, bound) for _ in range(k)] for _ in range(2)))
    # every basis of a lattice with several shortest vectors: the four
    # candidates tie in norm and only the vectors order them
    for v1, v2 in list(bases[:3]):
        bases += [unimodular_twist(v1, v2, rng) for _ in range(50)]
    checked = ties = 0
    for v1, v2 in bases:
        if rank_exact([v1, v2]) < 2:
            continue
        b1, b2 = tuple(v1), tuple(v2)
        expected = reference_lagrange_gauss(b1, b2)
        assert _lagrange_gauss(b1, b2) == expected, (v1, v2)
        checked += 1
        ties += sum(x * x for x in expected[0]) == sum(x * x for x in expected[1])
    assert checked > 1500 and ties > 150


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


# entries at and just past the int64 span check's bound, and at int64's ends
SPECIALS = (2**20, -(2**20), 2**20 + 1, -(2**20) - 1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70)


def span_corpus():
    """Seeded matrices of rank 0 to 4: one row, one column, and both sides
    of the int64 size cut; each plain, with one entry set to a special
    value that is alone in its row and column, and scaled by a special
    value."""
    rng = random.Random(2610)
    cut = linalg._INT64_MIN_ENTRIES
    shapes = [(1, 7), (6, 1), (1, cut), (cut, 1), (3, 3), (5, 5), (2, cut // 2 - 1),
              (2, cut // 2), (cut // 10, 11), (11, cut // 10 - 1), (cut // 20, 30)]
    for n, m in shapes:
        for r in range(min(4, n, m) + 1):
            L = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
            R = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(r)]
            M = [[sum(row[t] * R[t][j] for t in range(r)) for j in range(m)] for row in L]
            yield M
            for v in SPECIALS:
                i, j = rng.randrange(n), rng.randrange(m)
                one = [[v if (a, b) == (i, j) else 0 if a == i or b == j else x
                        for b, x in enumerate(row)] for a, row in enumerate(M)]
                yield one
                yield [[v * x for x in row] for row in M]


def frame_or_error(rows):
    # with the cast a public call makes, so the int64 span check runs where it fits
    try:
        return _column_frame(rows, _int64_matrix(rows))
    except ValueError as exc:
        return str(exc)


def test_span_check_int64_path_matches_python_ints(monkeypatch):
    corpus = list(span_corpus())
    ranks = [_bareiss([list(r) for r in rows])[0] for rows in corpus]
    default = linalg._INT64_MIN_ENTRIES
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)  # Python ints only
    expected = [frame_or_error(rows) for rows in corpus]
    for cut in (1, default):
        monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", cut)
        int64_path = 0
        for rows, rank, want in zip(corpus, ranks, expected):
            bounded = all(abs(x) <= 2**20 for row in rows for x in row)
            assert (_int64_rows(rows) is not None) == bounded, rows
            int64_path += bounded and len(rows) * len(rows[0]) >= cut
            assert rank_exact(rows) == rank, rows
            assert frame_or_error(rows) == want, rows
        assert int64_path > 50


def test_span_check_int64_bounds():
    # np.abs(-2**63) is -2**63, so an abs-based bound would let it through
    assert _int64_rows([[-(2**63), 0], [0, 0]]) is None
    assert _int64_rows([[-(2**20), 2**20]]) is not None
    # rank 3, but its one failing check is off by 2**64: int64 would wrap it to 0
    pad = [0] * linalg._INT64_MIN_ENTRIES
    rows = [[1, 0, 2**32] + pad, [0, 1, 0] + pad, [2**32, 0, 0] + pad]
    assert rank_exact(rows) == 3
    assert frame_or_error(rows) == "matrix must have rank 2, got rank 3"
    # small entries in a basis with a large one: d * 2 = 2**63 would wrap
    n = linalg._INT64_MIN_ENTRIES
    assert point_coordinates([[2]] * n, [[2**62, 1]] + [[0, 1]] * (n - 1)) == [(0, 2)]


@pytest.mark.parametrize("n, m, sigma, seed", [(100, 100, 3, 1), (200, 150, 10, 2), (300, 100, 3, 3)])
def test_product_large_outputs_do_not_depend_on_the_span_path(monkeypatch, n, m, sigma, seed):
    _, _, A = gen_product(n, m, sigma, seed=[2611, seed])

    def records():
        out = solve(A)
        cert = out.certificate
        F = (cert.F1.tolist(), cert.F2.tolist()) if out.verdict == RANK2 else None
        C, trace = reduce_to_3x3(A)
        return out.verdict, out.pairs_examined, F, trace.three_by_m.tolist(), C.tolist()

    with_cut = records()
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)
    assert records() == with_cut


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
