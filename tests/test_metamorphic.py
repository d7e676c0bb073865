"""Metamorphic properties of solve on a standing seeded corpus.

Transposing, permuting rows or columns, appending a zero column and
duplicating a column all keep the nonnegative integer rank, so they must
keep solve's verdict; every rank2 certificate must reproduce its matrix.
So must the other canonization index and the equivalent 3 x 3 instance.
"""

import random
from collections import Counter

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


def corpus():
    """300 products (n, m in {2, 3, 4, 6}), bt(1..30) and 20 near_t."""
    for i in range(300):
        n, m = SIZES[i % 4], SIZES[(i // 4) % 4]
        yield gen_product(n, m, (3, 6, 10)[(i // 16) % 3], seed=[2620, i])[2].tolist()
    for t in range(1, 31):
        yield gen_bt(t).tolist()
    for i in range(20):
        yield gen_near_t(3 + (11 * i) % 60, seed=[2621, i]).tolist()


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
