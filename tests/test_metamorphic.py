"""Metamorphic properties of solve on a standing seeded corpus.

Transposing, permuting rows or columns, appending a zero column and
duplicating a column all keep the nonnegative integer rank, so they must
keep solve's verdict; every rank2 certificate must reproduce its matrix.
So must the other canonization index and the equivalent 3 x 3 instance,
and the transposed certificate must reproduce the transposed matrix.
"""

import random
from collections import Counter

import numpy as np

from nnirank2 import (
    NOT_RANK2,
    RANK2,
    gen_bt,
    gen_near_t,
    gen_product,
    reduce_to_3x3,
    solve,
    verify_factorization,
)

SIZES = (2, 3, 4, 6)


def padded(A, size=20):
    """A 3 x 3 A as size x size: its rows and columns repeated, then two zero rows."""
    rows = [[row[j % 3] for j in range(size)] for row in A]
    return [rows[i % 3] for i in range(size - 2)] + [[0] * size for _ in range(2)]


PADDED = [padded(gen_bt(7).tolist()), padded(gen_bt(30).tolist()), padded(gen_near_t(40, seed=[1, 2]).tolist())]
LARGE = [gen_product(n, m, sigma, seed=[2623, n, m, sigma])[2].tolist()
         for n, m in ((20, 20), (15, 30), (30, 15)) for sigma in (3, 10)] + PADDED


def corpus():
    """300 products (n, m in {2, 3, 4, 6}), bt(1..30) and 20 near_t; then, at
    300 entries and more, where the frame and the certificate check run in
    int64: products at 20 x 20, 15 x 30 and 30 x 15, and bt(7), bt(30) and a
    near_t(40) padded to 20 x 20."""
    for i in range(300):
        n, m = SIZES[i % 4], SIZES[(i // 4) % 4]
        yield gen_product(n, m, (3, 6, 10)[(i // 16) % 3], seed=[2620, i])[2].tolist()
    for t in range(1, 31):
        yield gen_bt(t).tolist()
    for i in range(20):
        yield gen_near_t(3 + (11 * i) % 60, seed=[2621, i]).tolist()
    yield from LARGE


def variants(A, rng):
    """(name, matrix) pairs with the nonnegative integer rank of A."""
    n, m = len(A), len(A[0])
    rows, cols, d, j = rng.sample(range(n), n), rng.sample(range(m), m), rng.randrange(n), rng.randrange(m)
    yield "transpose", [list(col) for col in zip(*A)]
    yield "row permutation", [A[i] for i in rows]
    yield "column permutation", [[row[k] for k in cols] for row in A]
    yield "zero column", [row + [0] for row in A]
    yield "duplicate column", [row + [row[j]] for row in A]
    yield "zero row", A + [[0] * m]
    yield "duplicate row", A + [A[d]]


def checked_verdict(A) -> str:
    out = solve(A)
    if out.verdict == RANK2:
        assert verify_factorization(A, out.certificate.F1, out.certificate.F2), A
    return out.verdict


def test_verdict_is_invariant_and_certificates_verify():
    rng = random.Random(2622)
    verdicts = Counter()
    for A in corpus():
        verdict = checked_verdict(A)
        verdicts[verdict] += 1
        for name, B in variants(A, rng):
            assert checked_verdict(B) == verdict, (name, A)
    assert verdicts[RANK2] >= 200 and verdicts[NOT_RANK2] >= 60


def test_verdict_is_the_same_at_either_canonization_index():
    for A in corpus():
        assert solve(A, r=2).verdict == solve(A).verdict, A


def test_verdict_is_the_same_after_reduction_to_3x3():
    for A in corpus():
        assert solve(reduce_to_3x3(A)[0]).verdict == solve(A).verdict, A


def test_the_large_corpus_reaches_the_int64_paths():
    assert all(len(A) * len(A[0]) >= 300 for A in LARGE)
    # padded bt(7) and bt(30), then near_t(40)
    outs = [solve(A) for A in PADDED]
    assert [(out.verdict, out.pairs_examined) for out in outs[:2]] == [(NOT_RANK2, 10), (NOT_RANK2, 211)]
    assert outs[2].verdict == RANK2


def test_transposed_certificate_verifies_the_transposed_matrix():
    # A = F1 F2 gives Aᵀ = F2ᵀ F1ᵀ, with A as a list, an object array and an int64 array
    checked = 0
    for A in corpus():
        out = solve(A)
        if out.verdict != RANK2:
            continue
        F1, F2 = out.certificate.F1, out.certificate.F2
        At = [list(col) for col in zip(*A)]
        for form in (list, lambda M: np.array(M, dtype=object), lambda M: np.array(M, dtype=np.int64)):
            assert verify_factorization(form(A), F1, F2), A
            assert verify_factorization(form(At), F2.T, F1.T), A
        checked += 1
    assert checked >= 200
