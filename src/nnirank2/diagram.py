"""Planar picture of a rank-2 nonnegative integer matrix.

A rank-2 matrix A is drawn in the plane by choosing a basis of the
saturated column lattice col(A) ∩ Z^n: every column becomes an integer
point, and the cone col(A) ∩ R⁺ⁿ becomes a pointed planar cone cut out by
the rows of the basis.  A unimodular change of plane coordinates then
normalizes the cone so that one extreme ray is (1, 0) and the other is
(c, d) with 0 <= c < d; that canonical form is what the solver consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    Vec2,
    _column_frame,
    _entry,
    _extremes,
    _hermite2,
    _int64_matrix,
    _int_points,
    _int_rows,
    _pivot,
    cross2,
    ext_gcd,
    primitive,
    primitive_point,
)


@dataclass(frozen=True)
class Diagram:
    """Plane representation of a rank-2 nonnegative matrix.

    basis       n x 2; columns generate col(A) ∩ Z^n (saturated).
    points      plane coordinates of the columns, in column order.
    cone_gens   primitive coordinates of the two extreme rays of
                col(A) ∩ R⁺ⁿ, ordered by ascending vanishing-row index.
    """

    basis: np.ndarray
    points: tuple[Vec2, ...]
    cone_gens: tuple[Vec2, Vec2]


@dataclass(frozen=True)
class CanonicalDiagram(Diagram):
    """A Diagram normalized so the cone is spanned by (1,0) and (c,d), 0<=c<d.

    ``transform`` is the 2x2 unimodular map sending the pre-canonical
    coordinates (generators and points alike) to the stored ones;
    ``canon_index`` records which cone generator (1 or 2) went to (1, 0).
    """

    transform: np.ndarray
    canon_index: int


def _column_lattice(rows, M: np.ndarray | None) -> tuple[list[Vec2], list[Vec2]]:
    """Saturated column-lattice basis (as n rows) and the columns' points,
    for the matrix given by its rows and its ``linalg._int64_matrix`` M.

    With B two independent columns of A and H the Hermite form of B's
    rows, an integer x has B x integer exactly when x is in H^-1 Z^2, so
    the columns of B H^-1 generate col(A) ∩ Z^n.  A column with
    coordinates x in B has coordinates H x in that basis.
    """
    B, (_, _, d), coords = _column_frame(rows, M)
    (a, b), (_, c) = _hermite2(B)
    basis = [(x // a, (a * y - b * x) // (a * c)) for x, y in B]
    points = [((a * n0 + b * n1) // d, c * n1 // d) for n0, n1 in coords]
    return basis, points


def column_lattice_basis(A) -> np.ndarray:
    """Basis (n x 2) of the saturated lattice col(A) ∩ Z^n: B H^-1 for two
    independent columns B of A and the Hermite form H of B's rows, so the
    gcd of its 2x2 minors is 1.  Raises ValueError unless A has rank 2.
    """
    rows, array = _int_rows(A)
    basis, _ = _column_lattice(rows, _int64_matrix(rows, array))
    return np.array(basis, dtype=object)


def point_coordinates(A, basis) -> list[Vec2]:
    """Integer coordinates x_i with basis @ x_i = (column i of A).

    Raises ValueError when some column has no integer coordinates, which
    means the given basis does not span a lattice containing the columns.
    """
    rows, array = _int_rows(A)
    brows, _ = _int_rows(basis)
    if (len(brows), len(brows[0])) != (len(rows), 2):
        raise ValueError("basis must be n x 2 for an n-row matrix")
    brows = [tuple(r) for r in brows]
    piv = _pivot(brows)
    if piv is None:
        raise ValueError("basis must have rank 2")
    pts = _int_points(brows, piv, rows, _int64_matrix(rows, array))
    if None in pts:
        raise ValueError(f"column {pts.index(None)} has no integer coordinates in the basis")
    return pts


def _cone_rays(rows: Sequence[Vec2], lo: Vec2, hi: Vec2) -> list[tuple[int, Vec2]] | None:
    """Extreme rays of {p in R^2 : r . p >= 0 for every row r}, from its
    angularly lowest and highest nonzero rows lo and hi.

    The rays are the normals of lo and hi, each turned toward the other
    row, as primitive directions.  One pass checks every row against both
    and pairs each ray with the smallest index of a nonzero row whose form
    vanishes on it (lo's and hi's rows do).  None unless both satisfy every
    row and differ: exactly when the rows cut out a pointed two-dimensional
    cone, or are all parallel (the rays are then the two directions of
    their normal line).
    """
    d1, d2 = primitive_point((-lo[1], lo[0])), primitive_point((hi[1], -hi[0]))
    if d1 == d2:
        return None
    (x1, y1), (x2, y2) = d1, d2
    k1 = k2 = None
    for i, (r0, r1) in enumerate(rows):
        s1, s2 = r0 * x1 + r1 * y1, r0 * x2 + r1 * y2
        if s1 < 0 or s2 < 0:
            return None
        if r0 or r1:
            if k1 is None and not s1:
                k1 = i
            if k2 is None and not s2:
                k2 = i
    return [(k1, d1), (k2, d2)]


def cone_from_constraint_rows(rows) -> tuple[Vec2, Vec2] | None:
    """Extreme rays of {p in R^2 : r . p >= 0 for every row r}, as
    :func:`_cone_rays` gives them, or None when it does.

    Zero rows are ignored.  A row without exactly two entries raises
    ValueError, and entries are read under the entry contract of
    ``linalg._entry``: floats and bools raise ValueError.  The rows may lie
    anywhere, so their extremes come from the sorted scan of
    ``linalg._extremes``; the check then decides whether they are the cone's.
    """
    rs = []
    for r in rows:
        try:
            x, y = r
        except (TypeError, ValueError):
            raise ValueError(f"constraint rows must have two entries, got {r!r}") from None
        rs.append((_entry(x), _entry(y)))
    rs = [r for r in rs if r != (0, 0)]
    if not rs:
        return None
    tagged = _cone_rays(rs, *_extremes(rs))
    return None if tagged is None else (tagged[0][1], tagged[1][1])


def _plane_cone(brows: list[Vec2]) -> tuple[tuple[Vec2, int], tuple[Vec2, int]]:
    """Extreme rays of {p : B p >= 0} with their vanishing rows.

    B is given by its rows, those of a column-lattice basis of a
    nonnegative matrix.  Each ray is paired with the smallest index of a
    nonzero row whose form vanishes on it (:func:`_cone_rays`); the two
    pairs are returned sorted by that index.  Any basis of the column space
    gives the same vanishing rows.

    The nonzero rows lie in an open half-plane (each is positive on the sum
    of the columns' points), where cross2 orders them angularly, so one
    plain scan finds the extreme rows; which of several parallel rows it
    keeps does not change their normals.  Zero rows never replace one.
    """
    lo = hi = next((r for r in brows if r != (0, 0)), (0, 0))
    for p in brows:
        if p[0] * lo[1] - p[1] * lo[0] > 0:
            lo = p
        elif p[0] * hi[1] - p[1] * hi[0] < 0:
            hi = p
    tagged = None if lo == (0, 0) else _cone_rays(brows, lo, hi)
    if tagged is None:
        raise ValueError("column cone is not pointed and two-dimensional")
    (k1, d1), (k2, d2) = sorted(tagged)
    return (d1, k1), (d2, k2)


def _nonnegative_rows(A) -> tuple[list[list[int]], np.ndarray | None]:
    """A's rows and ``linalg._int64_matrix`` M, validated and cast once;
    ValueError unless every entry is nonnegative, read from M's minimum
    when M exists."""
    rows, array = _int_rows(A)
    M = _int64_matrix(rows, array)
    if (min(map(min, rows)) if M is None else M.min()) < 0:
        raise ValueError("matrix must be nonnegative")
    return rows, M


def extreme_rays(A) -> tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]:
    """The two extreme rays of col(A) ∩ R⁺ⁿ, each with a vanishing row.

    Rays are primitive integer n-vectors; the paired index is the smallest
    (0-based) nonzero row of A whose coordinate vanishes on the ray.  Pairs
    are ordered by ascending vanishing-row index.  Zero rows of A never
    appear as vanishing rows.
    """
    B, _, _ = _column_frame(*_nonnegative_rows(A))
    return tuple(
        (primitive([x * d[0] + y * d[1] for x, y in B]), k) for d, k in _plane_cone(B)
    )


def build_diagram(A) -> Diagram:
    """Construct the full plane diagram of a rank-2 nonnegative matrix."""
    basis, pts = _column_lattice(*_nonnegative_rows(A))
    (d1, _), (d2, _) = _plane_cone(basis)
    return Diagram(
        basis=np.array(basis, dtype=object),
        points=tuple(pts),
        cone_gens=(d1, d2),
    )


def _apply(M: tuple[tuple[int, int], tuple[int, int]], p: Vec2) -> Vec2:
    return (M[0][0] * p[0] + M[0][1] * p[1], M[1][0] * p[0] + M[1][1] * p[1])


def _canon_index(r) -> int:
    """The canonization index r as the Python int 1 or 2, read as
    ``linalg._entry`` reads an entry; anything else raises ValueError."""
    try:
        r = _entry(r)
    except ValueError:
        r = 0
    if r not in (1, 2):
        raise ValueError("canonization index must be 1 or 2")
    return r


def canonicalize(d: Diagram, r: int = 1) -> CanonicalDiagram:
    """Canonical form of a diagram: cone spanned by (1,0) and (c,d), 0<=c<d.

    ``r`` selects which cone generator is sent to (1, 0).  The transform is
    the composition of a Bezout map taking that generator to (1, 0), a sign
    flip making the second generator's y-coordinate positive, and the
    smallest shear making its x-coordinate nonnegative (hence < d).
    """
    r = _canon_index(r)
    g = d.cone_gens[r - 1]
    other = d.cone_gens[2 - r]
    a, b = g
    _, x, y = ext_gcd(a, b)
    M = ((x, y), (-b, a))  # unimodular, sends (a, b) to (1, 0)
    c1, d1 = _apply(M, other)
    if d1 < 0:
        M = (M[0], (-M[1][0], -M[1][1]))
        d1 = -d1
    gamma = -(c1 // d1)  # smallest integer with c1 + gamma*d1 >= 0
    T = (
        (M[0][0] + gamma * M[1][0], M[0][1] + gamma * M[1][1]),
        M[1],
    )
    new_other = _apply(T, other)
    if _apply(T, g) != (1, 0) or not 0 <= new_other[0] < new_other[1]:
        raise RuntimeError("internal error: cone transform is not in normal form")
    (t00, t01), (t10, t11) = T
    det = t00 * t11 - t01 * t10  # +-1, as T sends the primitive g to (1, 0)
    # rows go through (T^-1)^T = det * adj(T)^T, points through T
    e00, e01, e10, e11 = det * t11, -det * t10, -det * t01, det * t00
    return CanonicalDiagram(
        basis=np.array([(e00 * x + e01 * y, e10 * x + e11 * y) for x, y in d.basis.tolist()], dtype=object),
        points=tuple([(t00 * x + t01 * y, t10 * x + t11 * y) for x, y in d.points]),
        cone_gens=((1, 0), new_other),
        transform=np.array(T, dtype=object),
        canon_index=r,
    )


def in_cone(p: Vec2, g1: Vec2, g2: Vec2) -> bool:
    """Membership of p in the cone spanned by g1, g2 (either orientation)."""
    orient = cross2(g1, g2)
    if orient > 0:
        return cross2(g1, p) >= 0 and cross2(p, g2) >= 0
    if orient < 0:
        return cross2(g2, p) >= 0 and cross2(p, g1) >= 0
    raise ValueError("cone generators must not be parallel")
