import hashlib
import random
import sys
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from conftest import SUBMATRIX_4COL, run_python
from nnirank2.diagram import CanonicalDiagram, Diagram, build_diagram, canonicalize, in_cone
from nnirank2 import linalg, solver
from nnirank2.instances import gen_bt, gen_near_t, gen_product
from nnirank2.linalg import _hermite2, as_int_matrix, cross2, primitive_point, rank_exact
from nnirank2.oracle import brute_force
from nnirank2.solver import (
    NOT_RANK2,
    RANK2,
    RANK_LE_1,
    CandidatePair,
    _coefficients,
    _rejection,
    decompose,
    search,
    solve,
    triangle_points,
    verify_factorization,
)


def canonical(A, r=1):
    return canonicalize(build_diagram(A), r)


def test_decompose_beasley(beasley):
    dec = decompose(canonical(beasley))
    assert dec.u == (1, 0) and dec.u_point == (1, 0)
    assert dec.v == (1, 2) and dec.v_point == (1, 2)
    assert dec.c == (1, 3)


def test_decompose_quadrant():
    dec = decompose(canonical([[1, 0], [0, 1]]))
    assert {dec.u_point, dec.v_point} == {(1, 0), (0, 1)}
    assert cross2(dec.u, dec.v) > 0


def test_decompose_refuses_a_cone_outside_the_canonical_quadrant():
    # c = (-1, 1) has cx < 0, which canonicalize never gives: the column
    # ranges of the search would be wrong, so decompose and search refuse
    cd = CanonicalDiagram(
        basis=np.array([[1, 0], [0, 1]], dtype=object), points=((1, 0), (0, 1)),
        cone_gens=((1, 0), (-1, 1)), transform=np.array([[1, 0], [0, 1]], dtype=object), canon_index=1,
    )
    for call in (decompose, search):
        with pytest.raises(RuntimeError, match="^internal error: v or c leaves the canonical quadrant$"):
            call(cd)


def test_a_plain_diagram_is_refused():
    # search(build_diagram(A)) once said not_rank2 on this rank2 matrix, and
    # brute_force said False: a plain Diagram is not canonical
    A = [[2, 10, 14, 2], [5, 25, 35, 5], [15, 27, 27, 21]]
    assert solve(A).verdict == RANK2
    plain = [build_diagram(A)] + [build_diagram(gen_product(3, 4, 3, seed=[i, 3])[2]) for i in range(5)]
    for d in plain:
        assert type(d) is Diagram
        for call in (decompose, search, brute_force):
            with pytest.raises(ValueError, match="CanonicalDiagram: pass the diagram through canonicalize$"):
                call(d)
        assert brute_force(canonicalize(d, 1)).rank2 == (search(canonicalize(d, 1)).verdict == RANK2)


def test_decompose_bt():
    # exhaustive cross-product comparison picks the angular extremes
    cd = canonical(gen_bt(4), r=2)
    dec = decompose(cd)
    pts = [p for p in cd.points if p != (0, 0)]
    for p in pts:
        assert cross2(dec.u, p) >= 0
        assert cross2(p, dec.v) >= 0
    assert dec.u_point in pts and dec.v_point in pts
    assert primitive_point(dec.u_point) == dec.u
    assert primitive_point(dec.v_point) == dec.v


def _triangle_brute(dec, bound=200):
    # independent oracle: scan a bounding box against the four conditions
    u, v, c = dec.u_point, dec.v, dec.c
    out = []
    for x in range(bound + 1):
        for y in range(bound + 1):
            p = (x, y)
            if p == (0, 0):
                continue
            rem = (u[0] - x, u[1] - y)
            if (
                y >= 0
                and cross2(p, u) >= 0
                and cross2(v, rem) >= 0
                and cross2(rem, c) >= 0
            ):
                out.append(p)
    return out


def test_triangle_points_beasley(beasley):
    dec = decompose(canonical(beasley))
    assert triangle_points(dec) == [(1, 0)]


def test_triangle_points_bt4():
    dec = decompose(canonical(gen_bt(4)))
    pts = triangle_points(dec)
    assert pts == _triangle_brute(dec)
    assert dec.u_point in pts
    assert pts == sorted(pts)


def test_triangle_points_segment_case():
    # columns on the first extreme ray put u_point on the canonical x-axis
    # and collapse the triangle onto it
    A = as_int_matrix([[0, 0, 1], [2, 1, 1]])
    cd = canonical(A)
    dec = decompose(cd)
    assert dec.u_point[1] == 0  # on the (1, 0) boundary ray
    assert dec.u_point == (1, 0)  # parallel tie broken toward smaller norm
    pts = triangle_points(dec)
    assert pts == _triangle_brute(dec)
    assert dec.u_point in pts
    assert all(p[1] == 0 for p in pts)


def test_triangle_points_random_vs_scan():
    rng = random.Random(8)
    checked = 0
    for _ in range(120):
        _, _, A = gen_product(3, 3, 3, seed=[202, rng.randint(0, 10**6)])
        cd = canonical(A)
        dec = decompose(cd)
        if max(max(p) for p in cd.points) > 60:
            continue
        assert triangle_points(dec) == _triangle_brute(dec)
        checked += 1
    assert checked > 50


def test_check_pair_beasley_failure():
    pair = CandidatePair((1, 0), (1, 2))
    points = [(1, 2), (1, 0), (4, 3)]
    i = _coefficients(pair.a, pair.b, points)
    assert i == 2
    rej = _rejection(pair, points, i)
    assert rej.index == 2
    assert rej.coeffs == (Fraction(5, 2), Fraction(3, 2))


def test_check_pair_identity_and_derived():
    W = _coefficients((1, 0), (0, 1), [(3, 4), (0, 0), (2, 7)])
    assert W == [(3, 4), (0, 0), (2, 7)]

    W = _coefficients((1, 1), (1, 3), [(2, 4)])
    assert W == [(1, 1)]
    # verify by substitution: 1*(1,1) + 1*(1,3) == (2,4)
    assert (1 * 1 + 1 * 1, 1 * 1 + 1 * 3) == (2, 4)

    with pytest.raises(ValueError):
        _coefficients((1, 1), (2, 2), [(1, 1)])


def test_search_beasley(beasley):
    out = search(canonical(beasley), collect_rejections=True)
    assert out.verdict == NOT_RANK2
    assert out.pairs_examined == 1
    assert out.rejections[0].pair == CandidatePair((1, 0), (1, 2))


def test_search_bt_family():
    for t in range(1, 26):
        assert search(canonical(gen_bt(t))).verdict == NOT_RANK2


def test_search_simple_rank2():
    A = [[1, 0, 1], [0, 1, 1]]
    out = search(canonical(A))
    assert out.verdict == RANK2
    cert = out.certificate
    assert verify_factorization(A, cert.F1, cert.F2)
    # generators map back to the standard basis columns
    cols = {tuple(int(x) for x in cert.F1[:, j]) for j in range(2)}
    assert cols == {(1, 0), (0, 1)}


def test_assemble_direct_multiplication():
    A = [[1, 0, 1], [0, 1, 1]]
    out = solve(A)
    cert = out.certificate
    prod = cert.F1 @ cert.F2
    assert (prod == as_int_matrix(A)).all()
    assert (cert.F1 >= 0).all() and (cert.F2 >= 0).all()


def test_verify_factorization():
    A = [[1, 0, 1], [0, 1, 1]]
    F1 = [[1, 0], [0, 1]]
    F2 = [[1, 0, 1], [0, 1, 1]]
    assert verify_factorization(A, F1, F2)
    bad = [[1, 0, 1], [0, 1, 2]]
    assert not verify_factorization(A, F1, bad)
    assert not verify_factorization(A, [[1, 0], [0, -1]], F2)
    assert not verify_factorization(A, [[1], [0]], F2)


def product_of(F1, F2):
    return [[a * x + b * y for x, y in zip(*F2)] for a, b in F1]


def forgeries(F1, F2):
    """Forged factor pairs, by name: the first two pass the type, shape and
    sign checks, so only the product can refuse them."""
    plus = [row[:] for row in F1]
    plus[0][0] += 1
    less = [row[:] for row in F2]
    less[0][next(j for j, x in enumerate(less[0]) if x)] -= 1
    minus = [row[:] for row in F2]
    minus[1][-1] = -1
    real = [row[:] for row in F1]
    real[-1][1] = float(real[-1][1])
    return {"F1 entry + 1": (plus, F2), "F2 entry - 1": (F1, less), "F2 entry set to -1": (F1, minus),
            "short F1": (F1[:-1], F2), "float F1": (real, F2)}


def genuine_factors():
    """Seeded products' certificates, and factors with an entry at and just
    past 2**20, the bound of the int64 factor cast, and at 2**61 and 2**63."""
    for i in range(30):
        A = gen_product(2 + i % 7, 2 + (i // 7) % 5, (3, 10, 100)[i % 3], seed=[2618, i])[2]
        cert = solve(A).certificate
        if cert is not None:
            yield cert.F1.tolist(), cert.F2.tolist()
    for f, g in ((2**20, 2**20), (2**20 + 1, 1), (1, 2**20 + 1), (2**61, 1), (2**63, 1)):
        yield [[f, f], [1, 0]], [[g, 1, 0], [g, 0, 1]]


def certificates():
    """(A, F1, F2, genuine): each of genuine_factors() and its forgeries()."""
    for F1, F2 in genuine_factors():
        A = product_of(F1, F2)
        yield A, F1, F2, True
        for f1, f2 in forgeries(F1, F2).values():
            yield A, f1, f2, False


def matrix_forms(A):
    """A as a list, an object array and, when its entries fit, an int64 array."""
    yield A
    yield np.array(A, dtype=object)
    if max(map(max, A)) < 2**63:
        yield np.array(A, dtype=np.int64)


def recorded_casts(monkeypatch):
    """A list that gets, for each factor verify_factorization casts, whether
    the cast gave an int64 array."""
    calls, cast = [], solver._int64_rows

    def recorded(rows, array=None):
        M = cast(rows, array)
        calls.append(M is not None)
        return M

    monkeypatch.setattr(solver, "_int64_rows", recorded)
    return calls


def recorded_array_compares(monkeypatch):
    """A list that gets an entry for each np.array_equal call."""
    calls, array_equal = [], np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda *args: calls.append(args) or array_equal(*args))
    return calls


def test_verify_factorization_int64_and_python_products_agree(monkeypatch):
    # with the size cut at 0 the int64 product runs wherever both factors
    # cast, and with it at 10**9 never: the same answers either way, with A
    # as a list, an object array and an int64 array.  The int64 product
    # meets an int64 A in one array comparison, and the other forms as lists
    cases = [(X, F1, F2, ok) for A, F1, F2, ok in certificates() for X in matrix_forms(A)]
    want = [ok for *_, ok in cases]
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 0)
    calls, compares = recorded_casts(monkeypatch), recorded_array_compares(monkeypatch)
    on_int64 = on_array = 0
    for A, F1, F2, ok in cases:
        calls.clear()
        compares.clear()
        assert verify_factorization(A, F1, F2) == ok
        on_int64 += ok and calls == [True, True]
        on_array += ok and len(compares) == 1
        assert len(compares) == (calls == [True, True] and isinstance(A, np.ndarray) and A.dtype == np.int64)
    assert 0 < on_array < on_int64 < sum(want)
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)
    assert [verify_factorization(A, F1, F2) for A, F1, F2, _ in cases] == want
    assert compares == []


def test_forgeries_reach_the_array_comparison(monkeypatch):
    # on an int64 A with both factors cast, a forgery that passes the type,
    # shape and sign checks is refused by the array comparison; the others
    # are refused before any cast
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 0)
    calls, compares = recorded_casts(monkeypatch), recorded_array_compares(monkeypatch)
    reached = Counter()
    for F1, F2 in genuine_factors():
        A = np.array(product_of(F1, F2), dtype=object)
        if A.max() >= 2**63:
            continue
        A = A.astype(np.int64)
        for name, (f1, f2) in forgeries(F1, F2).items():
            calls.clear()
            compares.clear()
            assert not verify_factorization(A, f1, f2), name
            assert len(compares) == (calls == [True, True]), name
            reached[name] += len(compares)
            if name not in ("F1 entry + 1", "F2 entry - 1"):
                assert calls == [], name
    assert reached["F1 entry + 1"] > 20 and reached["F2 entry - 1"] > 20


def test_verify_factorization_takes_the_int64_cast_from_the_size_cut(monkeypatch):
    # below linalg._INT64_MIN_ENTRIES entries in A no factor is cast and the
    # Python product runs; from the cut on both factors are cast
    cases = list(certificates())
    cut = linalg._INT64_MIN_ENTRIES
    assert max(len(A) * len(A[0]) for A, *_ in cases) < cut
    calls = recorded_casts(monkeypatch)
    assert [verify_factorization(A, F1, F2) for A, F1, F2, _ in cases] == [ok for *_, ok in cases]
    assert calls == []
    for m in (cut - 1, cut):  # A is 1 x m, on either side of the cut
        F1, F2 = [[1, 1]], [list(range(m)), [1] * m]
        calls.clear()
        assert verify_factorization(product_of(F1, F2), F1, F2)
        assert calls == ([True, True] if m == cut else [])


def test_int64_factor_cast_bound(monkeypatch):
    # a factor is cast only with every entry in [0, 2**20], so each product
    # entry, a sum of two products of such entries, is at most 2**41
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 0)
    calls = recorded_casts(monkeypatch)
    for f, g, fits in ((2**20, 2**20, True), (2**20 + 1, 1, False), (1, 2**20 + 1, False), (2**63, 1, False)):
        F1, F2 = [[f, f], [1, 0]], [[g, 1, 0], [g, 0, 1]]
        A = product_of(F1, F2)
        assert max(map(max, A)) == 2 * f * g
        calls.clear()
        assert verify_factorization(A, F1, F2)
        assert len(calls) == 2 and all(calls) == fits
        A[0][0] -= 1
        assert not verify_factorization(A, F1, F2)
    # a negative entry is refused before any cast, and on both paths
    calls.clear()
    assert not verify_factorization([[0]], [[1, -1]], [[1], [1]])
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)
    assert not verify_factorization([[0]], [[1, -1]], [[1], [1]])
    assert calls == []


def test_solve_beasley(beasley):
    out = solve(beasley)
    assert out.verdict == NOT_RANK2
    assert out.certificate is None


def test_solve_submatrix_counterexample():
    A = as_int_matrix(SUBMATRIX_4COL)
    assert solve(A).verdict == NOT_RANK2
    for drop in range(4):
        cols = [j for j in range(4) if j != drop]
        sub = A[:, cols]
        out = solve(sub)
        assert out.verdict == RANK2
        assert verify_factorization(sub, out.certificate.F1, out.certificate.F2)


def test_solve_rank1():
    out = solve([[2, 4], [1, 2]])
    assert out.verdict == RANK_LE_1
    F1, F2 = out.rank1_factors
    assert (F1 @ F2 == as_int_matrix([[2, 4], [1, 2]])).all()
    assert (F1 >= 0).all() and (F2 >= 0).all()


def test_solve_zero_matrix():
    out = solve([[0, 0], [0, 0]])
    assert out.verdict == RANK_LE_1
    F1, F2 = out.rank1_factors
    assert (F1 @ F2 == 0).all()


def test_solve_1x1():
    out = solve([[5]])
    assert out.verdict == RANK_LE_1
    F1, F2 = out.rank1_factors
    assert (F1 @ F2).tolist() == [[5]]


# SHA-256 of solve's rank1_factors over rank_le_1_corpus(), recorded before
# the factors moved from numpy indexing to int tuples.
RANK1_DIGEST = "7eac909289d3f52da71144ebc3fe51b45467652e2a0d3752487bb684572357ca"


def rank_le_1_corpus():
    """Rank 0 and 1 matrices: 1 x 1, all-zero, a leading zero column, and
    400 seeded k * u v^T with zero rows and columns and entries up to ~10^30."""
    yield [[0]]
    yield [[5]]
    yield [[10**30]]
    yield [[0, 0, 0], [0, 0, 0]]
    yield [[0, 6, 3], [0, 4, 2]]
    rng = random.Random(2605)
    for i in range(400):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        top = (10, 10**4, 10**15)[i % 3]
        u = [rng.randint(1, top) if rng.random() < 0.75 else 0 for _ in range(n)]
        v = [rng.randint(1, top) if rng.random() < 0.75 else 0 for _ in range(m)]
        k = rng.randint(1, 6)
        yield [[k * x * y for y in v] for x in u]


def test_rank1_factors_are_pinned():
    h = hashlib.sha256()
    for A in rank_le_1_corpus():
        out = solve(A)
        assert out.verdict == RANK_LE_1
        F1, F2 = out.rank1_factors
        assert F1.shape == (len(A), 1) and F2.shape == (1, len(A[0]))
        assert all(type(x) is int for x in (*F1.flat, *F2.flat))
        h.update(repr((F1.tolist(), F2.tolist())).encode())
        h.update(b"\n")
    assert h.hexdigest() == RANK1_DIGEST
    out = solve([[0, 6, 3], [0, 4, 2]])
    assert [r.tolist() for r in out.rank1_factors] == [[[3], [2]], [[0, 2, 1]]]


def test_solve_zero_column():
    A = [[1, 0, 0, 1], [0, 0, 1, 1]]
    out = solve(A)
    assert out.verdict == RANK2
    assert verify_factorization(A, out.certificate.F1, out.certificate.F2)


def test_solve_input_validation():
    with pytest.raises(ValueError):
        solve([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        solve([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_solve_deterministic(beasley):
    a = solve(beasley)
    b = solve(beasley)
    assert (a.verdict, a.pairs_examined) == (b.verdict, b.pairs_examined)
    _, _, A = gen_product(4, 4, 6, seed=[303, 1])
    a = solve(A)
    b = solve(A)
    assert (a.verdict, a.pairs_examined) == (b.verdict, b.pairs_examined)
    if a.verdict == RANK2:
        assert a.certificate.pair == b.certificate.pair


def test_soundness_random_corpus():
    for i in range(120):
        _, _, A = gen_product(3, 4, 4, seed=[404, i])
        out = solve(A)
        if out.verdict == RANK2:
            assert verify_factorization(A, out.certificate.F1, out.certificate.F2)


def test_completeness_vs_oracle_small():
    agree = 0
    i = 0
    while agree < 120:
        _, _, A = gen_product(3, 3, 3, seed=[505, i])
        i += 1
        cd = canonical(A)
        if max(max(p) for p in cd.points) > 50:
            continue
        assert (search(cd).verdict == RANK2) == brute_force(cd).rank2
        agree += 1


def test_primitivity_without_loss():
    # points built from a scaled pair: if the scaled pair generates them,
    # the primitive pair must too
    rng = random.Random(9)
    for _ in range(200):
        a = (rng.randint(1, 6), rng.randint(0, 6))
        b = (rng.randint(0, 6), rng.randint(1, 6))
        if cross2(a, b) <= 0:
            continue
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        sa, tb = (s * a[0], s * a[1]), (t * b[0], t * b[1])
        pts = []
        for _ in range(4):
            k, l = rng.randint(0, 4), rng.randint(0, 4)
            pts.append((k * sa[0] + l * tb[0], k * sa[1] + l * tb[1]))
        W = _coefficients(sa, tb, pts)
        assert isinstance(W, list)
        W2 = _coefficients(primitive_point(sa), primitive_point(tb), pts)
        assert isinstance(W2, list)


def test_canonical_index_independence():
    for i in range(150):
        _, _, A = gen_product(3, 3, 4, seed=[606, i])
        assert solve(A, r=1).verdict == solve(A, r=2).verdict


def test_degenerate_branch_bound():
    # instances where the triangle contains u_point exercise the k' sweep;
    # the in-search assertion enforces the termination envelope
    for t in (1, 2, 5, 9):
        out = search(canonical(gen_bt(t)))
        assert out.verdict == NOT_RANK2


def test_solve_diagram_mode_unimodular_invariance():
    rng = random.Random(10)
    for i in range(60):
        _, _, A = gen_product(3, 3, 3, seed=[707, i])
        d = build_diagram(A)
        base = search(canonicalize(d, 1)).verdict
        assert base == solve(A).verdict
        # re-draw the same instance through a random unimodular map
        a = rng.randint(-2, 2)
        U = as_int_matrix([[1, a], [0, 1]]) @ as_int_matrix(
            [[1, 0], [rng.randint(-2, 2), 1]]
        )
        Uinv = as_int_matrix(
            [[int(U[1, 1]), -int(U[0, 1])], [-int(U[1, 0]), int(U[0, 0])]]
        )
        twisted = Diagram(
            basis=d.basis @ Uinv,
            points=tuple(
                (
                    int(U[0, 0]) * p[0] + int(U[0, 1]) * p[1],
                    int(U[1, 0]) * p[0] + int(U[1, 1]) * p[1],
                )
                for p in d.points
            ),
            cone_gens=tuple(
                (
                    int(U[0, 0]) * g[0] + int(U[0, 1]) * g[1],
                    int(U[1, 0]) * g[0] + int(U[1, 1]) * g[1],
                )
                for g in d.cone_gens
            ),
        )
        assert search(canonicalize(twisted, 1)).verdict == base
        assert search(canonicalize(twisted, 2)).verdict == base


def count_full_checks(monkeypatch) -> list:
    """Record every pair that reaches the full check over all points."""
    calls = []
    full_check = solver._coefficients

    def counted(a, b, points):
        calls.append((a, b))
        return full_check(a, b, points)

    monkeypatch.setattr(solver, "_coefficients", counted)
    return calls


def test_index_test_prunes_full_checks_not_rank2(monkeypatch):
    calls = count_full_checks(monkeypatch)
    out = solve(gen_bt(300))
    assert (out.verdict, out.pairs_examined) == (NOT_RANK2, 22351)
    assert len(calls) <= 1


def test_index_test_prunes_full_checks_rank2(monkeypatch):
    A = gen_near_t(200, seed=[9, 3])
    calls = count_full_checks(monkeypatch)
    out = solve(A)
    assert (out.verdict, out.pairs_examined) == (RANK2, 9703)
    pair = out.certificate.pair
    assert calls == [(pair.a, pair.b)]


def test_column_test_spares_the_gcds(monkeypatch):
    # the per-column test N % C rejects nearly every pair before the two
    # gcds of the index test; without it this solve makes 44,701 gcd calls
    calls = []
    gcd = solver.gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    monkeypatch.setattr(solver, "gcd", counted)
    out = solve(gen_bt(300))
    assert (out.verdict, out.pairs_examined) == (NOT_RANK2, 22351)
    assert len(calls) < out.pairs_examined // 50


def test_default_solve_matches_the_collecting_run_beyond_the_pin_corpus():
    # the pin corpus stops at bt(100) and near_t t <= 100; r alternates
    # to keep the unpruned collecting runs to a few seconds
    corpus = [(gen_bt(t), 1 + t % 2) for t in range(101, 161)]
    corpus += [
        (gen_near_t(100 + 150 * i // 40, seed=[4, i]), 1 + i % 2) for i in range(40)
    ]
    verdicts = set()
    for A, r in corpus:
        out, ref = solve(A, r=r), solve(A, r=r, collect_rejections=True)
        assert (out.verdict, out.pairs_examined) == (ref.verdict, ref.pairs_examined)
        if out.verdict == RANK2:
            assert (out.certificate.F1 == ref.certificate.F1).all()
            assert (out.certificate.F2 == ref.certificate.F2).all()
        verdicts.add(out.verdict)
    assert verdicts == {RANK2, NOT_RANK2}


def test_pair_bound_covers_the_exact_count():
    # search refuses an instance by _pair_bound alone, so the bound must
    # never fall below the pairs the search really examines
    from test_pin import pin_corpus

    corpus = [gen_bt(t) for t in range(1, 401)]
    corpus += [gen_near_t(3 + i % 397, seed=[4242, i]) for i in range(300)]
    corpus += [A for A in pin_corpus() if rank_exact(A) == 2]
    worst = 0.0
    for A in corpus:
        for r in (1, 2):
            cd = canonical(A, r)
            pairs, bound = search(cd).pairs_examined, solver._pair_bound(decompose(cd))
            assert pairs <= bound, (A.tolist(), r)
            worst = max(worst, pairs / bound)
    assert worst > 0.4  # bt's exhaustive searches reach half the bound


def sweep_steps(dec) -> int:
    """The b sweep's length in closed form: v_point - k*u stays in the cone
    (1,0), c while k <= vy/uy and k <= cross(v_point, c)/cross(u, c), each
    bound taken only where its denominator is positive."""
    (vx, vy), (ux, uy), (cx, cy) = dec.v_point, dec.u, dec.c
    bounds = [n // d for n, d in ((vy, uy), (vx * cy - vy * cx, ux * cy - uy * cx)) if d > 0]
    return min(bounds) + 1


def test_not_rank2_searches_examine_every_pair():
    # an exhaustive search examines every triangle point but u_point, whose
    # pairs come from the b sweep, and every sweep step: T - 1 + S pairs
    corpus = [gen_bt(t) for t in range(1, 301)]
    corpus += [gen_near_t(3 + i % 297, seed=[4545, i]) for i in range(150)]
    corpus += [
        gen_product(n, n + i % 3, sigma, seed=[4546, i])[2]
        for i, (n, sigma) in enumerate((n, s) for _ in range(12) for n in (2, 3, 5) for s in (3, 25, 100))
    ]
    checked = 0
    for A in corpus:
        for r in (1, 2):
            cd = canonical(A, r)
            dec = decompose(cd)
            if solver._pair_bound(dec) > solver.MAX_CANDIDATE_PAIRS:
                continue  # the search may run on the other index's diagram
            out = search(cd)
            if out.verdict == NOT_RANK2:
                assert out.pairs_examined == len(triangle_points(dec)) - 1 + sweep_steps(dec), (A.tolist(), r)
                checked += 1
    assert checked == 732


def test_every_winner_passes_the_column_test():
    # a winning pair (a, b) generates the point lattice's (0, h2), so D =
    # cross(a, b) divides h2*ax; for a triangle point (x, y), x < ux, that
    # makes C = x*uy - y*ux divide N = h2*x*(ux - x), so the column test and
    # its cut C <= N never reject a winner
    from test_pin import pin_corpus

    corpus = [A for A in pin_corpus() if rank_exact(A) == 2] + [gen_bt(t) for t in range(1, 301)]
    corpus += [gen_near_t(3 + i % 97, seed=[4547, i]) for i in range(100)]
    corpus += [
        gen_product(n, n + i % 3, sigma, seed=[4548, i])[2]
        for i, (n, sigma) in enumerate((n, s) for _ in range(12) for n in (2, 3, 5) for s in (3, 25, 100))
    ]
    winners = in_columns = 0
    for A in corpus:
        for r in (1, 2):
            cd = canonical(A, r)
            dec = decompose(cd)
            out = search(cd)
            if out.verdict != RANK2 or solver._pair_bound(dec) > solver.MAX_CANDIDATE_PAIRS:
                continue
            h2 = _hermite2(cd.points)[1][1]
            a, b = out.certificate.pair.a, out.certificate.pair.b
            assert h2 * a[0] % cross2(a, b) == 0, (A.tolist(), r)
            winners += 1
            # the winner's triangle point m*a, with u_point = m*a + n*b; it is
            # u_point itself when the pair comes from the b sweep
            (ux, uy), m = dec.u_point, cross2(dec.u_point, b) // cross2(a, b)
            x, y = m * a[0], m * a[1]
            lo, hi = solver._column_range(dec, x)
            assert lo <= y <= hi
            if x < ux:
                assert h2 * x * (ux - x) % (x * uy - y * ux) == 0, (A.tolist(), r)
                in_columns += 1
    assert winners > 1500 and in_columns > 500



def test_search_refuses_a_pair_bound_above_the_limit():
    # near_t(10**19) bounds at about 2.5*10**37 pairs; a child process, so a
    # search that does not refuse fails on the timeout instead of hanging
    code = (
        "from nnirank2 import gen_near_t, solve\n"
        "try:\n"
        "    solve(gen_near_t(10**19, seed=0))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python("-c", code)
    assert proc.stdout == (
        "the triangle search would examine up to"
        " 25000000000000000020000000000000000006 candidate pairs, above the"
        " limit of 200000000, and none of the first 1000000 wins\n"
    )
    # the largest bt and near_t the paper's grids reach stay below the limit
    for A in (gen_bt(10**4), gen_near_t(10**4, seed=0)):
        assert solver._pair_bound(decompose(canonical(A))) <= solver.MAX_CANDIDATE_PAIRS


def test_probe_refuses_past_its_columns():
    # a 3 x 3 product with 30-digit entries: its first columns from _x_lo
    # hold no pair, so a probe that counted only pairs would walk them
    # without end; it refuses once it passes PROBE_PAIRS + 1 columns
    code = (
        "import random\n"
        "from nnirank2 import solve, solver\n"
        "rng = random.Random(1)\n"
        "F1 = [[rng.randrange(10**30) for _ in range(2)] for _ in range(3)]\n"
        "F2 = [[rng.randrange(1, 1000) for _ in range(3)] for _ in range(2)]\n"
        "solver.PROBE_PAIRS = 10**4\n"
        "try:\n"
        "    solve([[a * x + b * y for x, y in zip(*F2)] for a, b in F1])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    proc = run_python("-c", code)
    assert proc.stdout == (
        "the triangle search would examine up to 513176948008215309208630196373221"
        " candidate pairs, above the limit of 200000000, and none of the 0 pairs"
        " in its first 10001 columns wins\n"
    )


def test_collecting_probe_refuses_before_keeping_a_record(monkeypatch):
    # near_t(10**19) under collect_rejections used to record its first 10**6
    # rejected pairs, 24 s and 827 MiB on a 2-vCPU host, before refusing
    records = []
    monkeypatch.setattr(solver, "_rejection", lambda *args: records.append(args))
    with pytest.raises(ValueError, match="none of the first 1000000 wins$"):
        search(canonical(gen_near_t(10**19, seed=0)), collect_rejections=True)
    assert records == []


def test_search_above_the_limit_keeps_an_early_winner():
    # a 3 x 120 product with entries above 2**63: its triangle holds about
    # 10**19 points, but the first 120 pairs already hold the winner
    rows = [[2**64 + j for j in range(120)], [j + 1 for j in range(120)]]
    rows.append([x + y for x, y in zip(*rows)])
    assert solver._pair_bound(decompose(canonical(rows))) > solver.MAX_CANDIDATE_PAIRS
    out = solve(rows)
    assert (out.verdict, out.pairs_examined) == (RANK2, 120)


def test_a_pair_bound_over_the_digit_limit_is_named_only_on_refusal(monkeypatch):
    # the same product with entries above 10**4400: its pair bound of 4,401
    # digits is over the interpreter's limit for str(int), yet the winner at
    # pair 120 still answers, and a refusal names the bound by its digit count
    rows = [[10**4400 + j for j in range(120)], [j + 1 for j in range(120)]]
    rows.append([x + y for x, y in zip(*rows)])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        out = solve(rows)
        assert (out.verdict, out.pairs_examined) == (RANK2, 120)
        assert verify_factorization(rows, out.certificate.F1, out.certificate.F2)
        monkeypatch.setattr(solver, "PROBE_PAIRS", 100)
        with pytest.raises(ValueError) as refused:
            solve(rows)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(refused.value) == (
        "the triangle search would examine up to a 4401-digit number of candidate"
        " pairs, above the limit of 200000000, and none of the first 100 wins"
    )


def thin_product():
    """A 3 x 3 rank2 product whose triangle is thin: 394,604 columns hold
    4,193,538 pairs, and its columns alone would bound it at 10**11."""
    return gen_product(3, 3, 1000, seed=[5150, 5])[2]


def test_thin_triangle_runs_under_the_area_bound():
    # a bound from the column count would refuse it after the probe pairs; the
    # triangle's area bounds it at about 5.3 * 10**6, so it runs to its winner
    A = thin_product()
    for r, pairs in ((1, 1460835), (2, 171572)):
        out = solve(A, r=r)
        assert (out.verdict, out.pairs_examined) == (RANK2, pairs)
        assert verify_factorization(A, out.certificate.F1, out.certificate.F2)
        assert solver._pair_bound(decompose(canonical(A, r))) <= solver.MAX_CANDIDATE_PAIRS


def test_search_takes_the_other_index_when_only_it_fits():
    # r=2 bounds this product at 241,282,669 pairs, above the limit, and r=1
    # at 154,767,334; the r=2 search runs on the r=1 diagram and wins there
    A = 7 * gen_product(3, 6, 1000, seed=[5452, 0])[2]
    bounds = [solver._pair_bound(decompose(canonical(A, r))) for r in (1, 2)]
    assert bounds[0] <= solver.MAX_CANDIDATE_PAIRS < bounds[1]
    assert canonicalize(canonical(A, 2), 2).points == canonical(A, 1).points
    first, second = solve(A, r=1), solve(A, r=2)
    assert (second.verdict, second.pairs_examined) == (RANK2, first.pairs_examined)
    assert second.pairs_examined == 4627515
    assert verify_factorization(A, second.certificate.F1, second.certificate.F2)


def count_blocks(monkeypatch) -> list:
    """Record every block the int64 batch of search tests."""
    blocks = []
    survivors = solver._survivors

    def counted(block, *args):
        blocks.append(len(block))
        return survivors(block, *args)

    monkeypatch.setattr(solver, "_survivors", counted)
    return blocks


def search_record(cd):
    out = search(cd)
    cert = out.certificate
    return out.verdict, out.pairs_examined, cert and (cert.pair, cert.F1.tolist(), cert.F2.tolist())


def walk_batch_corpus():
    """The canonical diagrams, at both indices, that the batch and the
    Python walk are compared on."""
    corpus = [gen_bt(t) for t in range(1, 301)] + [gen_bt(2000), thin_product()]
    corpus += [gen_near_t(3 + 3 * i, seed=[77, i]) for i in range(100)]
    for i, (n, sigma) in enumerate((n, s) for n in (2, 3, 5, 10) for s in (3, 10, 25)):
        A = gen_product(n, n + i % 3, sigma, seed=[78, i])[2]
        corpus += [A, 3 * A]
    return [canonical(A, r) for A in corpus for r in (1, 2)]


def test_int64_batch_matches_the_python_walk(monkeypatch):
    # the size cut at 0 sends every search to the int64 batch, above every
    # bound to the Python walk: verdicts, pairs_examined and certificates agree
    blocks = count_blocks(monkeypatch)
    first = later = 0  # rank2 wins in the batch's first block, and past it
    for cd in walk_batch_corpus():
        monkeypatch.setattr(solver, "_BATCH_MIN_PAIRS", 0)
        batch = search_record(cd)
        monkeypatch.setattr(solver, "_BATCH_MIN_PAIRS", solver.MAX_CANDIDATE_PAIRS + 1)
        n_blocks = len(blocks)
        assert search_record(cd) == batch, cd.points
        assert len(blocks) == n_blocks
        dec = decompose(cd)
        ranges = (solver._column_range(dec, x) for x in range(solver._x_lo(dec), dec.u_point[0]))
        batched = sum(max(0, hi - lo + 1) for lo, hi in ranges)
        if batch[0] == RANK2 and batch[1] <= batched:
            first += batch[1] <= solver._BATCH_MAX
            later += batch[1] > solver._BATCH_MAX
    assert first and later and blocks


def test_batch_index_test_drops_what_the_full_check_would(monkeypatch):
    # the batch yields every survivor, and the one index test at the consumer
    # drops those whose cross(a, b) does not divide G, walked or batched; each
    # search makes the same full checks either way
    calls = count_full_checks(monkeypatch)
    blocks = count_blocks(monkeypatch)
    for cd in walk_batch_corpus():
        checks = []
        for handoff in (0, solver.MAX_CANDIDATE_PAIRS + 1):
            monkeypatch.setattr(solver, "_BATCH_MIN_PAIRS", handoff)
            calls.clear()
            search(cd)
            checks.append(list(calls))
        assert checks[0] == checks[1], cd.points
    assert blocks


def test_int64_batch_arrays_stay_within_the_block_cap(monkeypatch):
    # the batch takes the thin product's columns in chunks and their pairs in
    # blocks of _BATCH_MAX, but for each chunk's last, and never one array
    # over all columns
    chunks, blocks = [], []  # blocks: the pairs of each block, by chunk
    column_range, survivors = solver._column_range, solver._survivors

    def ranged(dec, x, *args):
        if isinstance(x, np.ndarray):
            chunks.append(x.size)
            blocks.append([])
        return column_range(dec, x, *args)

    def counted(base, N, pieces, iux):
        assert base.size == N.size == pieces.size and iux.size == solver._BATCH_MAX
        blocks[-1].append(int(pieces.sum()))
        return survivors(base, N, pieces, iux)

    monkeypatch.setattr(solver, "_column_range", ranged)
    monkeypatch.setattr(solver, "_survivors", counted)
    assert solve(thin_product()).pairs_examined == 1460835
    assert len(chunks) > 1 and max(chunks) == solver._BATCH_MAX
    assert max(map(len, blocks)) > 1
    for chunk in blocks:
        assert chunk[:-1] == [solver._BATCH_MAX] * (len(chunk) - 1)
    assert min(map(min, filter(None, blocks))) > 0


def test_int64_gate_sends_a_search_to_the_python_walk(monkeypatch):
    # one below its gate value a search takes the Python walk, at the value
    # the batch; both give the same record
    blocks = count_blocks(monkeypatch)
    monkeypatch.setattr(solver, "_BATCH_MIN_PAIRS", 0)
    for A in (gen_bt(300), gen_near_t(200, seed=[9, 3])):
        cd = canonical(A)
        (ux, uy), ((h1, _), (_, h2)) = decompose(cd).u_point, _hermite2(cd.points)
        gate = max(h1 * h2 * ux, uy) * ux
        records = []
        for bound, batched in ((gate + 1, True), (gate, False)):
            monkeypatch.setattr(solver, "_BATCH_INT64_BOUND", bound)
            blocks.clear()
            records.append(search_record(cd))
            assert bool(blocks) == batched
        assert records[0] == records[1]
    # the 3 x 120 product with entries above 2**63, its pair bound let under
    # the limit: far above the gate, it is walked and still wins at pair 120
    monkeypatch.setattr(solver, "_BATCH_INT64_BOUND", 2**62)
    monkeypatch.setattr(solver, "MAX_CANDIDATE_PAIRS", 10**30)
    rows = [[2**64 + j for j in range(120)], [j + 1 for j in range(120)]]
    rows.append([x + y for x, y in zip(*rows)])
    blocks.clear()
    out = solve(rows)
    assert (out.verdict, out.pairs_examined, blocks) == (RANK2, 120, [])


def python_survivors(xs, offsets, N, pieces, first, ux, uy):
    """_survivors' (x, y, i) in Python ints: the pairs with N % C == 0."""
    out, i = [], 0
    for x, offset, n, m in zip(xs, offsets, N, pieces):
        for _ in range(m):
            y = first + i + offset
            if n % (x * uy - y * ux) == 0:
                out.append((x, y, i))
            i += 1
    return out


def kernel_survivors(dtype, xs, offsets, N, pieces, first, ux, uy):
    """(x, y, i) of _survivors on the block, its N and i*ux arrays in dtype:
    its bases built as search's batch builds them, P - first*ux for P =
    x*uy - offsets*ux, and each index i mapped back to its column."""
    xs, offsets, pieces = (np.array(v, dtype=np.int64) for v in (xs, offsets, pieces))
    base = xs * uy - offsets * ux - first * ux
    iux = np.arange(0, -ux * solver._BATCH_MAX, -ux, dtype=dtype)
    keep = solver._survivors(base, np.array(N, dtype=np.int64).astype(dtype), pieces, iux)
    ends = pieces.cumsum().tolist()
    out = []
    for i in keep:
        j = bisect_right(ends, i)
        out.append((int(xs[j]), i + first + int(offsets[j]), i))
    return out


def test_float_quotient_test_is_the_modulo_test():
    # N = k*C and k*C +- 1 just below 2**53, for C from 1 up to the float
    # gate's ux*(uy + _BATCH_MAX) < 2**53: one pair per piece, ux = 1, so
    # pair j of column 1 with offset uy - C - j has that C
    ux, uy = 1, 2**53 - solver._BATCH_MAX - 1
    rng = random.Random(53)
    cs = [uy, uy - 1, uy // 2 + 1, uy // 3, 2**26 + 1, 2**26 - 1, 3, 2, 1]
    cs += [rng.randrange(1, uy + 1) for _ in range(300)]
    xs, offsets, N = [], [], []
    for C in cs:
        k = (2**53 - 2) // C
        for n in (k * C - 1, k * C, k * C + 1, C, C + 1):
            xs.append(1)
            offsets.append(uy - C - len(N))
            N.append(n)
    pieces = [1] * len(N)
    assert max(N) < 2**53 and len(N) <= solver._BATCH_MAX
    want = python_survivors(xs, offsets, N, pieces, 0, ux, uy)
    assert len(want) == 2 * len(cs) + 3  # k*C and C, and every N where C == 1
    for dtype in (np.float64, np.int64):
        assert kernel_survivors(dtype, xs, offsets, N, pieces, 0, ux, uy) == want
    # blocks of several columns with pieces of many pairs, and ux > 1
    for _ in range(40):
        ux = rng.randrange(2, 2**20)
        uy = rng.randrange(1, 2**53 // ux - solver._BATCH_MAX)
        first, i = rng.randrange(10**6), 0
        xs, offsets, N, pieces = [], [], [], []
        while i < solver._BATCH_MAX - 200:
            x = rng.randrange(1, ux)
            top = (x * uy - 1) // ux  # the largest y with C > 0
            m = rng.randrange(1, min(top, 150) + 2) if top >= 0 else 0
            if m == 0:
                continue
            y0 = rng.randrange(0, top - m + 2)
            C = x * uy - (y0 + rng.randrange(m)) * ux
            xs.append(x)
            offsets.append(y0 - first - i)
            N.append((2**53 - 1) // C * C + rng.choice((-1, 0, 0, 1)))
            pieces.append(m)
            i += m
        want = python_survivors(xs, offsets, N, pieces, first, ux, uy)
        assert want
        for dtype in (np.float64, np.int64):
            assert kernel_survivors(dtype, xs, offsets, N, pieces, first, ux, uy) == want


def test_cut_keeps_every_survivor_of_its_column():
    # each column's pairs from _cut to hi, run through the kernel, keep
    # exactly the N % C == 0 pairs of the whole column lo..hi: random N,
    # multiples of a C of the column, N below every C (the cut empties the
    # column) and N = 0, which the walk leaves uncut and the batch never has
    rng = random.Random(21)
    for _ in range(60):
        ux, uy, first = rng.randrange(2, 2**12), rng.randrange(1, 2**12), rng.randrange(10**6)
        columns, want = [], []
        while len(columns) < 40:
            x = rng.randrange(1, ux)
            top = (x * uy - 1) // ux  # the largest y with C > 0
            if top < 0:
                continue
            lo = rng.randrange(top + 1)
            hi = rng.randrange(lo - 1, min(top, lo + 150) + 1)
            C = [x * uy - y * ux for y in range(lo, hi + 1)]
            n = rng.choice((
                0, rng.randrange(1, 2 * x * uy), rng.randrange(1, 6) * x * (ux - x),
                rng.choice(C or [1]) * rng.randrange(1, 4), min(C or [1]) - 1,
            ))
            columns.append((x, lo, hi, n))
            want += [(x, y) for y, c in zip(range(lo, hi + 1), C) if n % c == 0]
        xs, los, his, N = (list(v) for v in zip(*columns))
        lo, hi, top = (np.array(v, dtype=np.int64) for v in (los, his, [x * uy for x in xs]))
        cut = solver._cut(lo, top, np.array(N, dtype=np.int64), ux, np.maximum).tolist()
        assert cut == [solver._cut(l, x * uy, n, ux) for x, l, _, n in columns]
        cut = [c if n else l for c, (_, l, _, n) in zip(cut, columns)]
        assert any(n and c > h for c, (_, _, h, n) in zip(cut, columns))  # the cut empties a column
        pieces = np.maximum(hi + 1 - cut, 0)
        offsets = hi + 1 - pieces.cumsum() - first
        assert 0 < pieces.sum() <= solver._BATCH_MAX
        for dtype in (np.float64, np.int64):
            got = kernel_survivors(dtype, xs, offsets.tolist(), N, pieces.tolist(), first, ux, uy)
            assert [(x, y) for x, y, _ in got] == want


def record_dtypes(monkeypatch) -> list:
    """Record the dtype of the N array of every block the batch tests."""
    dtypes = []
    survivors = solver._survivors

    def recorded(base, N, *args):
        dtypes.append(N.dtype)
        return survivors(base, N, *args)

    monkeypatch.setattr(solver, "_survivors", recorded)
    return dtypes


def test_float_gate_sends_a_search_to_the_int64_kernel(monkeypatch):
    # one below its gate value a search's blocks run in int64, at the value
    # in float64; both give the same record
    dtypes = record_dtypes(monkeypatch)
    monkeypatch.setattr(solver, "_BATCH_MIN_PAIRS", 0)
    for A in (gen_bt(300), gen_near_t(200, seed=[9, 3])):
        cd = canonical(A)
        (ux, uy), ((h1, _), (_, h2)) = decompose(cd).u_point, _hermite2(cd.points)
        gate = max(h1 * h2 * (ux * ux // 4), ux * (uy + solver._BATCH_MAX))
        records = []
        for bound, dtype in ((gate + 1, np.float64), (gate, np.int64)):
            monkeypatch.setattr(solver, "_BATCH_FLOAT_BOUND", bound)
            dtypes.clear()
            records.append(search_record(cd))
            assert dtypes and set(dtypes) == {np.dtype(dtype)}
        assert records[0] == records[1]


def test_int64_kernel_runs_between_the_gates(monkeypatch):
    # r=1 bounds this product at 315,294,265 pairs, above the limit, so the
    # search runs on the r=2 diagram; there G*ux**2 has 56 bits, above the
    # float64 gate and within the int64 one
    A = gen_product(3, 3, 5000, seed=[99, 237])[2]
    assert solver._pair_bound(decompose(canonical(A, 1))) == 315294265
    cd = canonical(A, 2)
    (ux, _), ((h1, _), (_, h2)) = decompose(cd).u_point, _hermite2(cd.points)
    assert (h1 * h2 * ux * ux).bit_length() == 56
    dtypes = record_dtypes(monkeypatch)
    out = solve(A)
    assert (out.verdict, out.pairs_examined) == (RANK2, 569131)
    assert verify_factorization(A, out.certificate.F1, out.certificate.F2)
    assert dtypes and set(dtypes) == {np.dtype(np.int64)}


@pytest.mark.parametrize("collect", [False, True])
def test_probe_refuses_exactly_past_its_pairs(monkeypatch, collect):
    # with every bound over the limit, a search with PROBE_PAIRS >= its
    # pairs_examined is unchanged and one with fewer refuses; the corpus
    # has rank2 and not_rank2 verdicts, wins in a column and in the b sweep
    cases = [canonical(A, r) for r in (1, 2) for A in (
        gen_bt(40), gen_bt(7), gen_near_t(60, seed=[5, 1]), gen_near_t(90, seed=[5, 2]),
        [[2, 0, 3], [1, 1, 4], [1, 3, 9]], [[1, 0, 1], [0, 1, 1]], [[5, 1, 3], [1, 3, 2], [1, 1, 1]],
    )]
    monkeypatch.setattr(solver, "MAX_CANDIDATE_PAIRS", 0)
    for cd in cases:
        monkeypatch.setattr(solver, "PROBE_PAIRS", 10**9)
        out = search(cd, collect)
        monkeypatch.setattr(solver, "PROBE_PAIRS", out.pairs_examined)
        again = search(cd, collect)
        assert (again.verdict, again.pairs_examined, again.rejections) == (
            out.verdict, out.pairs_examined, out.rejections
        )
        monkeypatch.setattr(solver, "PROBE_PAIRS", out.pairs_examined - 1)
        with pytest.raises(ValueError, match=f"none of the first {out.pairs_examined - 1} wins$"):
            search(cd, collect)


def listed_pairs(cd):
    """Every candidate pair of the search on cd, in its order, built from
    triangle_points and the definition of the b sweep alone."""
    dec = decompose(cd)
    (ux, uy), (vx, vy), (ax, ay) = dec.u_point, dec.v_point, dec.u
    for p in triangle_points(dec):
        if p != dec.u_point:
            yield primitive_point(p), primitive_point((ux - p[0], uy - p[1]))
    k = 0
    while in_cone((vx - k * ax, vy - k * ay), (1, 0), dec.c):
        yield dec.u, primitive_point((vx - k * ax, vy - k * ay))
        k += 1


def test_search_order_matches_an_independent_enumeration():
    # under collect_rejections every pair is checked in full, so the
    # rejected pairs and the winner are the pairs examined, in order: a
    # prefix of the listed pairs, and all of them for not_rank2
    corpus = [gen_bt(t) for t in range(1, 41)]
    corpus += [gen_near_t(3 + 2 * i, seed=[4343, i]) for i in range(50)]
    corpus += [
        gen_product(n, m, sigma, seed=[4344, n, m])[2]
        for n in (2, 3, 5) for m in (2, 3, 5) for sigma in (3, 10, 25)
    ]
    verdicts = set()
    for A in corpus:
        for r in (1, 2):
            cd = canonical(A, r)
            out = search(cd, collect_rejections=True)
            seen = [(rej.pair.a, rej.pair.b) for rej in out.rejections]
            if out.verdict == RANK2:
                seen.append((out.certificate.pair.a, out.certificate.pair.b))
            listed = listed_pairs(cd)
            assert len(seen) == out.pairs_examined, (A.tolist(), r)
            assert seen == list(islice(listed, len(seen))), (A.tolist(), r)
            if out.verdict == NOT_RANK2:
                assert next(listed, None) is None, (A.tolist(), r)
            verdicts.add(out.verdict)
    assert verdicts == {RANK2, NOT_RANK2}
