"""Reduction of any rank-2 instance to an equivalent 3 x 3 instance.

Two matrices with the same column count are *equivalent* when they share
their row space, their row lattice, and their nonnegativity cone
{x : Ax >= 0}; equivalent matrices have nonnegative integer rank 2
together or not at all.  An equivalent 3 x m matrix is built from any
rank-2 nonnegative A by taking the two rows that vanish on the extreme
rays of the column cone (made primitive inside the row lattice) plus one
completion row that restores the full row lattice, shifted into the cone
of the first two.  Applying the construction again to the transpose yields
a 3 x 3 matrix deciding the original instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagram import _plane_cone, cone_from_constraint_rows
from .linalg import (
    Pivot,
    Vec2,
    _ArrayRows,
    _column_frame,
    _hermite2,
    _frame,
    _int64_view,
    _int_matrix,
    _int_points,
    _int_rows,
    _lagrange_gauss,
    _nonnegative_rows,
    _pivot,
    as_int_matrix,
    as_int_vector,
    cross2,
    ext_gcd,
    primitive_point,
    rank_exact,
)


@dataclass
class StageTrace:
    """Record of one 3 x m construction."""

    row_choices: tuple[int, int]  # vanishing-row indices used for b1, b2
    basis: tuple[tuple[int, ...], tuple[int, ...]]  # reduced row-lattice basis
    b1_coords: Vec2  # coordinates (p, q) of b1 in that basis
    bezout: Vec2  # (r, s) with r*p - s*q = 1
    shift_multipliers: Vec2  # nonnegative multiples of (b1, b2) added to b3
    primitivized: bool  # whether the final b3 was divided down


@dataclass
class ReductionTrace:
    input: np.ndarray
    three_by_m: np.ndarray
    three_by_three: np.ndarray
    stages: tuple[StageTrace, ...]


@dataclass
class EquivalenceReport:
    row_space: bool
    row_lattice: bool
    cone: bool

    @property
    def ok(self) -> bool:
        return self.row_space and self.row_lattice and self.cone


def _row_lattice(rows, B: list[Vec2], piv: Pivot) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced basis of the lattice the rows generate, from A's column frame.

    Projection on the frame's columns maps the row space injectively and
    the rows to B's rows, so the Hermite rows h of B lift to a lattice
    basis: h P^-1 (row i; row k), with P the pivot block of B.
    """
    i, k, d = piv
    (p00, p01), (p10, p11) = B[i], B[k]

    def lift(h: Vec2) -> tuple[int, ...]:
        l0, l1 = h[0] * p11 - h[1] * p10, h[1] * p00 - h[0] * p01
        return tuple((l0 * x + l1 * y) // d for x, y in zip(rows[i], rows[k]))

    h1, h2 = _hermite2(B)
    return _lagrange_gauss(lift(h1), lift(h2))


def row_lattice_basis(A) -> tuple[np.ndarray, np.ndarray]:
    """Reduced basis of the lattice generated by the rows of A.

    This is the lattice spanned by the rows themselves, not its saturation:
    the Hermite form of the rows projected on two independent columns,
    lifted back and reduced by the canonical Lagrange-Gauss rule of
    ``linalg._lagrange_gauss``.  Raises ValueError unless A has rank 2.
    """
    rows = _int_matrix(A)
    B, piv, _ = _column_frame(rows)
    return tuple(as_int_vector(a) for a in _row_lattice(rows, B, piv))


def build_3xm(A) -> tuple[np.ndarray, StageTrace]:
    """Equivalent 3 x m matrix for a rank-2 nonnegative integer A.

    Rows: b1, b2 are the extreme-ray vanishing rows of A primitivized in
    the row lattice (ordered by ascending vanishing-row index); b3 extends
    b1 to a lattice basis via a Bezout pair on b1's coordinates, is shifted
    by the smallest nonnegative multiples of b1, b2 that make it a
    nonnegative combination of them, and is primitivized afterwards when
    that preserves lattice generation.  All of this runs in coordinates of
    the reduced row-lattice basis.
    """
    rows = _nonnegative_rows(A)
    B, piv, _ = _column_frame(rows)
    (_, i1), (_, i2) = _plane_cone(B)
    a1, a2 = _row_lattice(rows, B, piv)
    lattice = list(zip(a1, a2))
    c1, c2 = _int_points(lattice, _pivot(lattice), list(zip(rows[i1], rows[i2])))
    if c1 is None or c2 is None:
        raise RuntimeError("internal error: a row is outside the row lattice")
    c1 = p, q = primitive_point(c1)
    c2 = primitive_point(c2)
    g, x, y = ext_gcd(p, q)
    if g != 1:
        raise RuntimeError("internal error: b1 is not primitive in the row lattice")
    r_, s_ = x, -y  # r*p - s*q == 1
    c3 = (s_, r_)  # b3 = s*a1 + r*a2

    # smallest nonnegative multiples making b3 a nonnegative combination of
    # b1, b2: m1 = ceil(max(0, -alpha)) with alpha = cross(c3, c2) / D
    D = cross2(c1, c2)
    m1 = max(0, -(cross2(c3, c2) // D))
    m2 = max(0, -(cross2(c1, c3) // D))
    c3 = (c3[0] + m1 * p + m2 * c2[0], c3[1] + m1 * q + m2 * c2[1])
    if c3 == (0, 0):
        # the completion was an integer combination of b1, b2 and the shift
        # cancelled it exactly; b1, b2 then already generate the lattice and
        # any positive combination restores a valid third row
        m1, m2 = m1 + 1, m2 + 1
        c3 = (p + c2[0], q + c2[1])
    # coordinates generate the whole row lattice iff they generate Z^2
    if _hermite2([c1, c2, c3]) != ((1, 0), (0, 1)):
        raise RuntimeError("internal error: b1, b2, b3 do not generate the row lattice")

    primitivized = False
    c3p = primitive_point(c3)
    if c3p != c3 and _hermite2([c1, c2, c3p]) == ((1, 0), (0, 1)):
        c3 = c3p
        primitivized = True

    out = [[u * s + v * t for s, t in lattice] for u, v in (c1, c2, c3)]
    if any(e < 0 for row in out for e in row):
        raise RuntimeError("internal error: the 3 x m matrix has a negative entry")
    trace = StageTrace(
        row_choices=(i1, i2),
        basis=(a1, a2),
        b1_coords=(p, q),
        bezout=(r_, s_),
        shift_multipliers=(m1, m2),
        primitivized=primitivized,
    )
    return np.array(out, dtype=object), trace


def reduce_to_3x3(A) -> tuple[np.ndarray, ReductionTrace]:
    """Equivalent 3 x 3 instance: the 3 x m construction applied twice.

    The second application runs on the transpose of the first result, so
    the output's columns correspond to the three rows produced by stage 1.
    A is type-checked once, by as_int_matrix; stage 1 gets its int64 copy,
    or the object array when it overflows, and reads it as in ``solve``.
    """
    A = as_int_matrix(A)
    try:
        A64 = A.astype(np.int64)
    except OverflowError:
        A64 = A
    B1, st1 = build_3xm(A64)
    C, st2 = build_3xm(B1.T)
    if rank_exact(C) != 2:
        raise RuntimeError("internal error: reduced matrix does not have rank 2")
    trace = ReductionTrace(
        input=A, three_by_m=B1, three_by_three=C, stages=(st1, st2)
    )
    return C, trace


def validate_equivalence(A, B) -> EquivalenceReport:
    """Check the three equivalence conditions between A (n x m) and B (k x m).

    (i)   equal row spaces: every row of B lies in the span of A's rows;
    (ii)  equal row lattices: projected on two columns where the row space
          projects injectively, both row sets have the same Hermite form;
    (iii) equal nonnegativity cones: in the same projection, the planar
          cones {y : P y >= 0} and {y : Q y >= 0} cut out by the projected
          rows of A and of B have the same extreme rays.

    Raises ValueError on unequal column counts or rank != 2 inputs.
    """
    rows_a, a = _int_rows(A)
    rows_b, b = _int_rows(B)
    if len(rows_a[0]) != len(rows_b[0]):
        raise ValueError("matrices must have the same column count")
    # the one cast: of the stack, whose slices are A's and B's rows, stacked
    # as an array when both come with one
    S = None if a is None or b is None else np.vstack((a, b))
    stack = _int64_view([*rows_a, *rows_b] if S is None else _ArrayRows(S), S)
    n = len(rows_a)
    _column_frame(stack[:n])  # rank checks
    _column_frame(stack[n:])
    # B's rows lie in A's row space exactly when the stack has rank 2, which
    # its span check decides; the stack's frame columns then project that
    # row space injectively
    frame = _frame(stack, name_rank=False)[1]
    cond_row_space = frame is not None

    cond_lattice = cond_cone = False
    if cond_row_space:
        P, Q = frame[0][:n], frame[0][n:]
        cond_lattice = _hermite2(P) == _hermite2(Q)
        rays_p, rays_q = cone_from_constraint_rows(P), cone_from_constraint_rows(Q)
        cond_cone = rays_p is not None and rays_q is not None and set(rays_p) == set(rays_q)

    return EquivalenceReport(
        row_space=cond_row_space, row_lattice=cond_lattice, cone=cond_cone
    )
