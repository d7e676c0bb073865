"""Exhaustive census of the 3 x 3 matrices with entries 0..B: one matrix
per class under row and column permutation and transpose, keeping rank 2.
On every class, solve at both canonization indices, the brute-force oracle,
each rank2 certificate and the equivalent 3 x 3 instance must agree.

Tier-1 runs B = 2.  For a larger B, run for example

    PYTHONPATH=src:tests python -c "import test_census; print(test_census.census(3))"
"""

from itertools import combinations_with_replacement, permutations, product

from nnirank2 import (
    NOT_RANK2,
    RANK2,
    build_diagram,
    canonicalize,
    gen_bt,
    rank_exact,
    reduce_to_3x3,
    solve,
    verify_factorization,
)
from nnirank2.linalg import _hermite2
from nnirank2.oracle import brute_force

COLUMN_ORDERS = list(permutations(range(3)))


def class_key(M):
    """The least matrix, as a tuple of rows, of M's class: for each of the
    12 column permutations of M and of its transpose, the least row order
    is the sorted one."""
    return min(
        tuple(sorted(tuple(row[j] for j in order) for row in X))
        for X in (M, tuple(zip(*M)))
        for order in COLUMN_ORDERS
    )


def classes(B):
    """One matrix per class: each is its class's key, so its rows are
    sorted, and only multisets of rows are tried."""
    rows = product(range(B + 1), repeat=3)
    for M in combinations_with_replacement(rows, 3):
        if class_key(M) == M:
            yield M


def census(B):
    """(rank-2 classes, keys of the not_rank2 ones); AssertionError where
    two of the checks disagree."""
    count, not_rank2 = 0, []
    for M in classes(B):
        A = [list(row) for row in M]
        if rank_exact(A) != 2:
            continue
        count += 1
        outs = [solve(A, r) for r in (1, 2)]
        verdict = outs[0].verdict
        assert verdict in (RANK2, NOT_RANK2) and outs[1].verdict == verdict, M
        assert brute_force(canonicalize(build_diagram(A), 1)).rank2 == (verdict == RANK2), M
        for out in outs:
            cert = out.certificate
            assert cert is None or verify_factorization(A, cert.F1, cert.F2), M
        assert solve(reduce_to_3x3(A)[0]).verdict == verdict, M
        if verdict == NOT_RANK2:
            not_rank2.append(M)
    return count, not_rank2


def not_rank2_diagrams(B):
    """(key, points, cone, G) for each not_rank2 class of census(B): the set
    of points and the cone generators of its canonical diagram at index 1,
    and the index G in Z² of the lattice those points generate."""
    out = []
    for M in census(B)[1]:
        cd = canonicalize(build_diagram([list(row) for row in M]), 1)
        (h1, _), (_, h2) = _hermite2(cd.points)
        out.append((M, frozenset(cd.points), cd.cone_gens, h1 * h2))
    return out


def test_class_key_is_constant_on_a_class():
    M = ((0, 1, 2), (1, 1, 1), (2, 1, 0))
    key = class_key(M)
    for rows in permutations(M):
        for order in COLUMN_ORDERS:
            X = tuple(tuple(row[j] for j in order) for row in rows)
            assert class_key(X) == class_key(tuple(zip(*X))) == key


def test_census_of_entries_up_to_2():
    count, not_rank2 = census(2)
    assert count == 174
    assert not_rank2 == [class_key(tuple(map(tuple, gen_bt(1).tolist())))]


def test_not_rank2_diagrams_of_entries_up_to_2():
    # bt(1)'s class alone, whose points generate all of Z²
    [(M, points, cone, G)] = not_rank2_diagrams(2)
    assert M == class_key(tuple(map(tuple, gen_bt(1).tolist())))
    assert (points, cone, G) == ({(1, 0), (1, 1), (1, 2)}, ((1, 0), (1, 2)), 1)
