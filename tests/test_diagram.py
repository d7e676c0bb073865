import random
from math import gcd

import numpy as np
import pytest

from conftest import same_lattice
from nnirank2.diagram import (
    build_diagram,
    canonicalize,
    column_lattice_basis,
    cone_from_constraint_rows,
    extreme_rays,
    in_cone,
    point_coordinates,
)
from nnirank2.instances import gen_bt, gen_product
from nnirank2.linalg import as_int_matrix, det_exact, primitive_point

PAPER_BASIS = [[0, 1], [1, 0], [3, -1]]


def minor_gcd(basis) -> int:
    basis = as_int_matrix(basis)
    g = 0
    n = basis.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(g, int(basis[i, 0] * basis[j, 1] - basis[i, 1] * basis[j, 0]))
    return g


def reconstructs(A, d) -> bool:
    A = as_int_matrix(A)
    for j, (x, y) in enumerate(d.points):
        if not (d.basis[:, 0] * x + d.basis[:, 1] * y == A[:, j]).all():
            return False
    return True


def test_column_lattice_basis_beasley(beasley):
    B = column_lattice_basis(beasley)
    assert same_lattice(B, [[0, 1], [1, 0], [3, -1]])
    assert minor_gcd(B) == 1


def test_column_lattice_basis_trivial_and_saturation():
    B = column_lattice_basis([[1, 0], [0, 1], [0, 0]])
    assert same_lattice(B, [[1, 0], [0, 1], [0, 0]])

    # saturation divides out the common factor 2
    B = column_lattice_basis([[2, 0], [0, 2]])
    assert minor_gcd(B) == 1
    assert abs(det_exact(B)) == 1  # spans all of Z^2
    pts = point_coordinates([[2, 0], [0, 2]], B)
    assert len(pts) == 2  # integer coordinates exist


def test_column_lattice_basis_rejects_wrong_rank():
    with pytest.raises(ValueError):
        column_lattice_basis([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        column_lattice_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_point_coordinates_examples(beasley, m55):
    assert point_coordinates(beasley, PAPER_BASIS) == [(1, 2), (1, 0), (4, 3)]

    basis = column_lattice_basis(beasley)
    assert point_coordinates(basis, basis) == [(1, 0), (0, 1)]

    b55 = column_lattice_basis(m55)
    pts = point_coordinates(m55, b55)
    for j, (x, y) in enumerate(pts):
        assert (b55[:, 0] * x + b55[:, 1] * y == m55[:, j]).all()


def test_point_coordinates_rejects_unsaturated_basis():
    # doubled basis does not contain the odd column
    with pytest.raises(ValueError):
        point_coordinates([[1, 0], [0, 1]], [[2, 0], [0, 2]])


def test_point_coordinates_names_the_failing_column():
    # column 2 is outside the basis's span
    with pytest.raises(ValueError, match="^column 2 has no integer coordinates in the basis$"):
        point_coordinates([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1], [0, 0]])
    # column 0 is inside the span, at (1/2, 0)
    with pytest.raises(ValueError, match="^column 0 has no integer coordinates in the basis$"):
        point_coordinates([[1, 0, 1], [0, 1, 1]], [[2, 0], [0, 1]])


def test_extreme_rays_beasley(beasley):
    (r1, k1), (r2, k2) = extreme_rays(beasley)
    assert list(r1) == [0, 1, 3] and k1 == 0
    assert list(r2) == [3, 1, 0] and k2 == 2


def test_extreme_rays_m55(m55):
    (r1, k1), (r2, k2) = extreme_rays(m55)
    assert list(r1) == [4, 3, 0, 14, 11] and k1 == 2
    assert list(r2) == [2, 5, 7, 0, 2] and k2 == 3


def test_extreme_rays_identity():
    (r1, k1), (r2, k2) = extreme_rays([[1, 0], [0, 1]])
    assert list(r1) == [0, 1] and k1 == 0
    assert list(r2) == [1, 0] and k2 == 1


def test_extreme_rays_rejects():
    with pytest.raises(ValueError):
        extreme_rays([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        extreme_rays([[1, 0], [0, -1]])


def test_build_diagram_beasley(beasley):
    d = build_diagram(beasley)
    assert reconstructs(beasley, d)
    assert minor_gcd(d.basis) == 1
    for p in d.points:
        assert in_cone(p, *d.cone_gens)
    # canonical form is basis-independent: Example numbers appear after
    # canonicalization regardless of the basis the Smith form picked
    cd = canonicalize(d, 1)
    assert cd.points == ((1, 2), (1, 0), (4, 3))
    assert cd.cone_gens == ((1, 0), (1, 3))


def test_build_diagram_bt4():
    A = gen_bt(4)
    d = build_diagram(A)
    assert reconstructs(A, d)
    cd = canonicalize(d, 1)
    assert cd.cone_gens == ((1, 0), (1, 2))
    assert set(cd.points) == {(4, 3), (4, 4), (4, 5)}


def test_build_diagram_identity():
    d = build_diagram([[1, 0], [0, 1]])
    assert set(d.points) == {(1, 0), (0, 1)}
    assert set(d.cone_gens) == {(1, 0), (0, 1)}


def test_canonicalize_shear_example():
    # cone (1,1), (-1,1) with points at height 4, canonizing the (1,1) side:
    # the transform must be (x, y) -> (y, y - x)
    from nnirank2.diagram import Diagram

    basis = as_int_matrix([[1, 1], [0, 1], [-1, 1]])  # sends (1,0)->(1,0,-1)...
    d = Diagram(
        basis=basis,
        points=((-1, 4), (0, 4), (1, 4)),
        cone_gens=((1, 1), (-1, 1)),
    )
    cd = canonicalize(d, 1)  # generator (1, 1)
    assert cd.transform.tolist() == [[0, 1], [-1, 1]]
    assert [tuple(int(x) for x in row) for row in cd.transform] == [(0, 1), (-1, 1)]
    assert cd.cone_gens == ((1, 0), (1, 2))
    assert cd.points == ((4, 5), (4, 4), (4, 3))


def test_canonicalize_identity_when_already_canonical():
    from nnirank2.diagram import Diagram

    d = Diagram(
        basis=as_int_matrix(PAPER_BASIS),
        points=((1, 2), (1, 0), (4, 3)),
        cone_gens=((1, 0), (1, 3)),
    )
    cd = canonicalize(d, 1)
    assert cd.transform.tolist() == [[1, 0], [0, 1]]
    assert cd.points == d.points


def test_canonicalize_quadrant():
    from nnirank2.diagram import Diagram

    d = Diagram(
        basis=as_int_matrix([[1, 0], [0, 1]]),
        points=((1, 0), (0, 1)),
        cone_gens=((0, 1), (1, 0)),
    )
    cd = canonicalize(d, 1)  # send (0, 1) to (1, 0)
    c, dd = cd.cone_gens[1]
    assert cd.cone_gens[0] == (1, 0)
    assert 0 <= c < dd
    assert abs(det_exact(cd.transform)) == 1


def test_canonicalize_reads_its_index_as_an_int():
    # 1.0 once raised a TypeError from indexing the cone generators, and
    # np.int64(2) was stored as canon_index unconverted
    d = build_diagram([[1, 0, 1], [0, 1, 1]])
    cd = canonicalize(d, np.int64(2))
    assert type(cd.canon_index) is int and cd.canon_index == 2
    assert cd.transform.tolist() == canonicalize(d, 2).transform.tolist()
    for r in (1.0, True, 0, 3, "1"):
        with pytest.raises(ValueError, match="canonization index must be 1 or 2"):
            canonicalize(d, r)


def _random_diagram(rng):
    n = rng.randint(2, 4)
    _, _, A = gen_product(n, n, 3, seed=[101, rng.randint(0, 10**6)])
    return A, build_diagram(A)


def test_canonicalize_invariants_random():
    rng = random.Random(6)
    for _ in range(150):
        A, d = _random_diagram(rng)
        for r in (1, 2):
            cd = canonicalize(d, r)
            assert abs(det_exact(cd.transform)) == 1
            (g1, g2) = cd.cone_gens
            assert g1 == (1, 0)
            assert 0 <= g2[0] < g2[1]
            assert gcd(g2[0], g2[1]) == 1
            assert reconstructs(A, cd)
            # membership is preserved point by point
            for p, q in zip(d.points, cd.points):
                assert in_cone(p, *d.cone_gens) == in_cone(q, *cd.cone_gens)
                T = cd.transform
                assert (
                    T[0, 0] * p[0] + T[0, 1] * p[1],
                    T[1, 0] * p[0] + T[1, 1] * p[1],
                ) == q


def test_saturation_invariant_random():
    rng = random.Random(7)
    for _ in range(150):
        _, d = _random_diagram(rng)
        assert minor_gcd(d.basis) == 1


def brute_force_cone(rows):
    """Reference: try both normals of every row against every row."""
    rs = [(int(r[0]), int(r[1])) for r in rows]
    rs = [r for r in rs if r != (0, 0)]
    if not rs:
        return None
    found = []
    for a, b in rs:
        for d in ((b, -a), (-b, a)):
            dp = primitive_point(d)
            if dp in found:
                continue
            if all(r0 * dp[0] + r1 * dp[1] >= 0 for r0, r1 in rs):
                found.append(dp)
    if len(found) != 2:
        return None
    return (found[0], found[1])


def assert_same_cone(rows):
    got, ref = cone_from_constraint_rows(rows), brute_force_cone(rows)
    assert (got is None) == (ref is None), rows
    assert got is None or set(got) == set(ref), rows


def test_cone_matches_brute_force_on_random_rows():
    rng = random.Random(8)
    pointed = 0
    for _ in range(3000):
        rows = [(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(rng.randint(1, 8))]
        assert_same_cone(rows)
        pointed += cone_from_constraint_rows(rows) is not None
    assert 500 < pointed < 2500  # both outcomes are well represented


def test_cone_matches_brute_force_on_degenerate_rows():
    rng = random.Random(9)
    families = {
        "parallel": lambda r, k: [(k * r[0], k * r[1]) for k in range(1, 4)],
        "with its negative": lambda r, k: [r, (-r[0], -r[1])] + [(k * r[0], k * r[1])],
        "zero rows only": lambda r, k: [(0, 0)] * k,
        "half-plane": lambda r, k: [r, (-r[0], -r[1]), (-r[1], r[0]), (-k * r[1], r[0])],
        "whole plane": lambda r, k: [r, (-r[1], r[0]), (-r[0], -r[1]), (r[1], -k * r[0])],
    }
    for name, family in families.items():
        for _ in range(200):
            r = (0, 0)
            while r == (0, 0):
                r = (rng.randint(-4, 4), rng.randint(-4, 4))
            rows = family(r, rng.randint(1, 3)) + [(0, 0)] * rng.randint(0, 1)
            rng.shuffle(rows)
            assert_same_cone(rows)
            got = cone_from_constraint_rows(rows)
            if name in ("parallel", "with its negative"):
                g = gcd(*r)
                assert set(got) == {(r[1] // g, -r[0] // g), (-r[1] // g, r[0] // g)}
            else:
                assert got is None, (name, rows)


def test_cone_refuses_entries_that_are_not_integers():
    # 1.5 once read as 1 gave the cone of (1, -1) and (0, 1), not the true
    # rays (2, 3) and (1, 0); True once read as 1
    with pytest.raises(ValueError, match="entries must be integers, got 1.5"):
        cone_from_constraint_rows([(1.5, -1), (0, 1)])
    with pytest.raises(ValueError, match="entries must be integers, got the bool True"):
        cone_from_constraint_rows([(True, 0), (0, 1)])
    assert set(cone_from_constraint_rows([(3, -2), (0, 1)])) == {(2, 3), (1, 0)}


def test_cone_refuses_rows_without_two_entries():
    # (1, 0, 5) once lost its 5 and gave the cone of (1, 0) and (0, 1)
    for row in ((1, 0, 5), (1,), 7):
        with pytest.raises(ValueError, match="constraint rows must have two entries"):
            cone_from_constraint_rows([row, (0, 1)])
