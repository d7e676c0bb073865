import math

import pytest

from conftest import M55, PRINTED_B35, PRINTED_C33, same_lattice
from nnirank2 import linalg
from nnirank2.instances import gen_product
from nnirank2.linalg import _int_points, _pivot, as_int_matrix
from nnirank2.reduction import (
    EquivalenceReport,
    build_3xm,
    reduce_to_3x3,
    row_lattice_basis,
    validate_equivalence,
)
from nnirank2.solver import solve


def test_row_lattice_basis_m55(m55):
    a1, a2 = row_lattice_basis(m55)
    # both printed basis vectors lie in the computed lattice and vice versa
    printed = [[1, 1, 1, -1, -1], [0, -1, -2, -3, -2]]
    assert same_lattice(list(zip(a1, a2)), list(zip(*printed)))


def test_build_3xm_m55(m55):
    B, trace = build_3xm(m55)
    assert B.shape == (3, 5)
    assert (B >= 0).all()
    assert trace.row_choices == (2, 3)
    assert list(B[0]) == [5, 8, 11, 4, 1]
    assert list(B[1]) == [1, 3, 5, 5, 3]
    rep = validate_equivalence(m55, B)
    assert rep.row_space and rep.row_lattice and rep.cone
    # equivalent to the printed 3x5 (equivalence is transitive)
    assert validate_equivalence(B, PRINTED_B35).ok


def test_each_equivalence_condition_fails_on_its_own():
    # the cone alone: the row x - y cuts the quadrant in half
    rep = validate_equivalence([[1, 0], [0, 1]], [[1, 0], [0, 1], [1, -1]])
    assert rep == EquivalenceReport(row_space=True, row_lattice=True, cone=False)
    # the row space: B's second row is outside A's row space
    rep = validate_equivalence([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]])
    assert rep == EquivalenceReport(row_space=False, row_lattice=False, cone=False)
    # the lattice alone: test_validate_equivalence_reflexive_and_scaled


def test_build_3xm_on_3xm_input():
    B1, _ = build_3xm(PRINTED_B35)
    assert validate_equivalence(as_int_matrix(PRINTED_B35), B1).ok


def test_build_3xm_small():
    A = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]
    B, _ = build_3xm(A)
    assert B.shape == (3, 3)
    assert validate_equivalence(A, B).ok


def test_build_3xm_rejects_wrong_rank():
    with pytest.raises(ValueError):
        build_3xm([[1, 2], [2, 4]])


def test_reduce_to_3x3_m55(m55):
    C, trace = reduce_to_3x3(m55)
    assert C.shape == (3, 3)
    B1 = trace.three_by_m
    assert validate_equivalence(m55, B1).ok
    assert validate_equivalence(B1.T, C).ok
    assert solve(m55).verdict == solve(C).verdict
    # the printed 3x3 passes the same chain against the input
    printedB = as_int_matrix(PRINTED_B35)
    printedC = as_int_matrix(PRINTED_C33)
    assert validate_equivalence(m55, printedB).ok
    assert validate_equivalence(printedB.T, printedC.T).ok
    assert solve(printedC).verdict == solve(m55).verdict


def test_reduce_to_3x3_beasley(beasley):
    C, _ = reduce_to_3x3(beasley)
    assert solve(C).verdict == solve(beasley).verdict == "not_rank2"


def test_reduce_to_3x3_rank2_case():
    A = [[1, 0, 1], [0, 1, 1]]
    C, _ = reduce_to_3x3(A)
    assert C.shape == (3, 3)
    assert solve(C).verdict == solve(A).verdict == "rank2"


def test_validate_equivalence_reflexive_and_scaled(m55):
    assert validate_equivalence(m55, m55).ok
    rep = validate_equivalence(m55, 2 * m55)
    assert rep.row_space and rep.cone
    assert not rep.row_lattice  # doubling rows shrinks the row lattice
    assert not rep.ok


def test_row_space_is_decided_without_elimination(monkeypatch):
    # a rank-2 B with a row outside A's row space: the stacked matrix's span
    # check alone rejects it, with no Bareiss pass to name the stack's rank
    A = gen_product(30, 30, 3, seed=1)[2]
    same = build_3xm(A)[0]
    B = same.tolist()
    B[1][0] += 1
    B[2] = [x + y for x, y in zip(B[0], B[1])]

    def no_elimination(M):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_bareiss", no_elimination)
    assert validate_equivalence(A, B) == EquivalenceReport(False, False, False)
    assert validate_equivalence(A, same).ok


def test_validate_equivalence_errors(m55):
    with pytest.raises(ValueError):
        validate_equivalence(m55, [[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        validate_equivalence([[1, 2], [2, 4]], [[1, 2], [2, 4]])


def test_b3_certificate_and_growth_random():
    # the trace's Bezout pair really is unimodular against b1's coordinates,
    # the three rows regenerate the lattice, and entries stay polynomial
    for i in range(120):
        n = 3 + (i % 3) * 2
        _, _, A = gen_product(n, n, 4, seed=[808, i])
        B, tr = build_3xm(A)
        p, q = tr.b1_coords
        r_, s_ = tr.bezout
        assert r_ * p - s_ * q == 1
        lattice = list(zip(*tr.basis))
        piv = _pivot(lattice)
        coords = _int_points(lattice, piv, B.T.tolist())
        g = 0
        for a in range(3):
            for b in range(a + 1, 3):
                g = math.gcd(
                    g, coords[a][0] * coords[b][1] - coords[a][1] * coords[b][0]
                )
        assert g == 1
        assert (B >= 0).all()
        max_a = max(int(x) for x in A.flat)
        max_b = max(int(x) for x in B.flat)
        m = A.shape[1]
        assert max_b <= 10 * (m ** 3) * (1 + max_a) ** 3


def test_reduction_equivalence_random_corpus():
    for i in range(80):
        n = (3, 5, 10)[i % 3]
        sigma = (3, 6, 10)[(i // 3) % 3]
        _, _, A = gen_product(n, n, sigma, seed=[909, i])
        B, _ = build_3xm(A)
        rep = validate_equivalence(A, B)
        assert rep.row_space and rep.row_lattice and rep.cone
        C, tr = reduce_to_3x3(A)
        assert validate_equivalence(tr.three_by_m.T, C).ok
        assert solve(A).verdict == solve(C).verdict
