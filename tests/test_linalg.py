import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import BEASLEY, M55, same_lattice
from nnirank2.instances import gen_bt, gen_product
from nnirank2.linalg import (
    _lagrange_gauss,
    _pivot,
    _span_numerators,
    as_int_matrix,
    as_int_vector,
    cross2,
    det_exact,
    ext_gcd,
    primitive,
    primitive_point,
    rank_exact,
    smith_normal_form,
)


def test_ext_gcd_examples():
    g, x, y = ext_gcd(5, -3)
    assert g == 1 and 5 * x + (-3) * y == 1
    assert ext_gcd(1, 0) == (1, 1, 0)
    g, x, y = ext_gcd(6, 4)
    assert g == 2 and 6 * x + 4 * y == 2


def test_ext_gcd_rejects_zero_pair():
    with pytest.raises(ValueError):
        ext_gcd(0, 0)


def test_ext_gcd_bezout_random():
    rng = random.Random(1)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        if a == 0 and b == 0:
            continue
        g, x, y = ext_gcd(a, b)
        assert g == math.gcd(a, b) >= 1
        assert a * x + b * y == g


def test_primitive_examples():
    assert list(primitive([3, 6, 9, 6, 3])) == [1, 2, 3, 2, 1]
    assert list(primitive([1, 0])) == [1, 0]
    out = primitive([-4, -6])
    assert list(out) == [-2, -3]
    assert math.gcd(*[int(t) for t in out]) == 1
    with pytest.raises(ValueError):
        primitive([0, 0, 0])


def test_primitive_scaling_property():
    rng = random.Random(2)
    for _ in range(200):
        v = [rng.randint(-20, 20) for _ in range(rng.randint(1, 5))]
        if all(t == 0 for t in v):
            continue
        p = primitive(v)
        g = 0
        for t in p:
            g = math.gcd(g, t)
        assert g == 1
        k = next(int(a) // int(b) for a, b in zip(v, p) if b != 0)
        assert k > 0 and list(k * p) == v


def test_primitive_point():
    assert primitive_point((4, 6)) == (2, 3)
    with pytest.raises(ValueError):
        primitive_point((0, 0))


def _rank_fraction_gauss(rows):
    # independent oracle: plain Gaussian elimination over Fraction
    M = [[Fraction(x) for x in row] for row in rows]
    n, m = len(M), len(M[0])
    rank = 0
    for col in range(m):
        piv = next((r for r in range(rank, n) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = 1 / M[rank][col]
        M[rank] = [x * inv for x in M[rank]]
        for r in range(n):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rank])]
        rank += 1
    return rank


def test_rank_exact_examples():
    assert rank_exact(BEASLEY) == 2
    assert rank_exact([[1, 0], [0, 1]]) == 2
    assert rank_exact([[0, 0, 0], [0, 0, 0], [0, 0, 0]]) == 0


def test_rank_exact_against_fraction_and_float():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-10, 10) for _ in range(m)] for _ in range(n)]
        r = rank_exact(rows)
        assert r == _rank_fraction_gauss(rows)
        assert r == np.linalg.matrix_rank(np.array(rows, dtype=float))


def test_det_exact():
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def _check_snf(A):
    A = as_int_matrix(A)
    S, D, T = smith_normal_form(A)
    assert (S @ D @ T).tolist() == A.tolist()
    assert abs(det_exact(S)) == 1 and abs(det_exact(T)) == 1
    k = min(A.shape)
    diag = [int(D[i, i]) for i in range(k)]
    for i in range(A.shape[0]):
        for j in range(A.shape[1]):
            if i != j:
                assert D[i, j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return S, D, T


def test_snf_examples():
    _, D, _ = _check_snf([[2, 0], [0, 3]])
    assert [int(D[i, i]) for i in range(2)] == [1, 6]

    _, D, _ = _check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert D.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    S, D, _ = _check_snf(BEASLEY)
    assert [int(D[i, i]) for i in range(3)] == [1, 1, 0]
    # first two columns of S span col(A) ∩ Z^3, the lattice of (0,1,3), (1,0,-1)
    assert same_lattice(S[:, :2], [[0, 1], [1, 0], [3, -1]])


def test_snf_random_and_deterministic():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        rows = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
        S1, D1, T1 = _check_snf(rows)
        S2, D2, T2 = smith_normal_form(rows)
        assert S1.tolist() == S2.tolist() and D1.tolist() == D2.tolist()
        assert T1.tolist() == T2.tolist()


# SHA-256 of snf_record over snf_corpus(), computed before the column step
# became the row step on the transposes: S, D and T, entry for entry.
SNF_DIGEST = "da010d900bce4bca179f56732b74a0c51b66d713ecd7270e8be352343869d799"


def snf_corpus():
    """300 small matrices with zeros and negative entries, 40 products up to
    15 x 15, and bt(1..30)."""
    rng = random.Random(2701)
    for _ in range(300):
        n, m = rng.randint(1, 7), rng.randint(1, 7)
        yield [[rng.randint(-30, 30) if rng.random() < 0.6 else 0 for _ in range(m)] for _ in range(n)]
    for i in range(40):
        yield gen_product(2 + i % 14, 2 + (5 * i) % 14, (3, 10)[i % 2], seed=[2702, i])[2]
    for t in range(1, 31):
        yield gen_bt(t)


def snf_record(A) -> str:
    # tolist keeps each entry's type, so an entry that is not a Python int
    # changes the repr
    return repr(tuple(M.tolist() for M in smith_normal_form(A)))


def test_snf_digest_is_pinned():
    h = hashlib.sha256()
    for A in snf_corpus():
        h.update(snf_record(A).encode())
        h.update(b"\n")
    assert h.hexdigest() == SNF_DIGEST


def _check_reduced(a1, a2, v1, v2):
    # same lattice, witnessed by unimodular change of basis
    assert same_lattice(
        np.stack([as_int_vector(v1), as_int_vector(v2)], axis=1),
        np.stack([a1, a2], axis=1),
    )
    n1 = int(a1 @ a1)
    n2 = int(a2 @ a2)
    assert n1 <= n2
    assert int((a2 + a1) @ (a2 + a1)) >= n2
    assert int((a2 - a1) @ (a2 - a1)) >= n2


def reduce_basis_rank2(v1, v2):
    """The kernel's Lagrange-Gauss reduction of two independent vectors,
    returned as the integer vectors the checks above take."""
    a1, a2 = _lagrange_gauss(tuple(int(x) for x in v1), tuple(int(x) for x in v2))
    return as_int_vector(a1), as_int_vector(a2)


def test_reduce_basis_rank2_paper_rows():
    # reducing a generating pair of the 5x5 row lattice yields a basis of
    # the same lattice as the printed one
    S, D, T = smith_normal_form(M55)
    g1 = D[0, 0] * T[0, :]
    g2 = D[1, 1] * T[1, :]
    a1, a2 = reduce_basis_rank2(g1, g2)
    _check_reduced(a1, a2, g1, g2)
    printed = [[1, 1, 1, -1, -1], [0, -1, -2, -3, -2]]
    assert same_lattice(
        np.stack([a1, a2], axis=1),
        as_int_matrix(printed).T,
    )


def test_reduce_basis_rank2_examples():
    a1, a2 = reduce_basis_rank2([1, 0], [0, 1])
    assert {tuple(a1), tuple(a2)} == {(1, 0), (0, 1)}

    a1, a2 = reduce_basis_rank2([5, 8], [10, 17])
    _check_reduced(a1, a2, [5, 8], [10, 17])
    det = int(a1[0] * a2[1] - a1[1] * a2[0])
    assert abs(det) == 5  # lattice determinant is invariant


def test_reduce_basis_rank2_random():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(2, 5)
        v1 = [rng.randint(-30, 30) for _ in range(k)]
        v2 = [rng.randint(-30, 30) for _ in range(k)]
        if _pivot(list(zip(v1, v2))) is None:
            continue  # dependent: not a lattice basis
        a1, a2 = reduce_basis_rank2(v1, v2)
        _check_reduced(a1, a2, v1, v2)


def test_cross2():
    assert cross2((1, 0), (1, 3)) == 3
    assert cross2((2, 1), (4, 2)) == 0
    assert cross2((1, 2), (1, 0)) == -2


def test_solve2():
    # the kernel's exact solve of B @ x = y: numerators of x over the pivot minor
    for B, y, x in (
        ([(1, 1), (0, 2)], [4, 3], (Fraction(5, 2), Fraction(3, 2))),
        ([(1, 0), (0, 1)], [7, -2], (7, -2)),
        ([(1, 0), (0, 1), (1, 1)], [1, 1, 2], (1, 1)),
    ):
        piv = _pivot(B)
        [(n0, n1)] = _span_numerators(B, piv, [[v] for v in y])
        assert (Fraction(n0, piv[2]), Fraction(n1, piv[2])) == x
    # inconsistent: y has a residual outside col(B)
    B = [(1, 0), (0, 1), (1, 1)]
    assert _span_numerators(B, _pivot(B), [[1], [1], [3]]) is None
    # rank-deficient B: no pivot
    assert _pivot([(1, 2), (2, 4), (3, 6)]) is None
