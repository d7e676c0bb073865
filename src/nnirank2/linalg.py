"""Exact integer linear algebra primitives.

Public functions return numpy object arrays holding Python ints, so every
operation is exact at any magnitude.  There is no floating point anywhere
in this module.  Each public function validates its matrix once (an array
with no row listed) and casts it to int64 at most once, into one value
(``_int_matrix``): its rows, which inside the int64 gate are ``_ArrayRows``
holding the int64 matrix as it is, and lists outside it.

The private rank-2 lattice kernel (``_pivot`` to ``_lagrange_gauss``) works
on tuples of Python ints, except that its one span check runs as numpy
int64 arithmetic on matrices whose entries are small enough to keep it
exact.  A rank-2 lattice is reduced on its 2 x 2 Gram matrix alone: the
Lagrange-Gauss reduction of a binary quadratic form, with O(1) integer
steps on coefficient pairs.  The Smith form is the reference the kernel is
tested against and runs on no solve or reduce path.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

Vec2 = tuple[int, int]
Pivot = tuple[int, int, int]  # rows i, k of an n x 2 basis and their minor


def _entry(x) -> int:
    if isinstance(x, (bool, np.bool_)):
        raise ValueError(f"entries must be integers, got the bool {x!r}")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"entries must be integers, got {x!r}") from None


class _ArrayRows(Sequence):
    """Rows of an integer array M, read-only: row i is M[i].tolist(), a slice
    is _ArrayRows of M's slice.  Only this module reads M, int64 past the gate
    (:func:`_int64_view`).  Tested by type: isinstance via Sequence costs 10x."""

    def __init__(self, M: np.ndarray) -> None:
        self.M = M

    def __len__(self) -> int:
        return len(self.M)

    def __getitem__(self, i):
        return _ArrayRows(self.M[i]) if isinstance(i, slice) else self.M[i].tolist()


def _int_rows(data) -> tuple[Sequence[list[int]], np.ndarray | None]:
    """Validate a matrix: its rows, of Python ints, and the array
    :func:`_int64_view` may cast directly.

    This is the one input contract of every entry point: empty or ragged
    input and entries that are not integers (floats, strings, bools) raise
    ValueError.  A plain signed integer array needs no type pass, a plain
    object array one flat pass over its entries, nested sequences one over
    their rows.  When it fails, the rows are checked in order, each for its
    length and then its entries, so the first bad row gives the error, and
    only rows with an entry that is not a Python int go through ``_entry``.

    The array is ``data`` itself when it is a plain ndarray from which
    ``astype(np.int64)`` reads exactly these ints: an object array whose
    entries all are Python ints, or a signed integer dtype (not unsigned:
    astype wraps uint64 2**64 - 1 to -1 without an error); else None.  With
    at least _INT64_MIN_ENTRIES entries such an array is not listed: its rows
    are :class:`_ArrayRows` of it, for the int64 gate to cast or list.
    """
    if isinstance(data, np.ndarray) and data.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got {data.ndim} dimensions")
    # type(data) is, not isinstance: np.matrix and masked input are rebuilt as plain arrays
    plain = type(data) is np.ndarray and data.size and data.dtype.kind in "iO"
    if plain and (data.dtype.kind == "i" or list(map(type, data.ravel().tolist())).count(int) == data.size):
        return (_ArrayRows(data) if data.size >= _INT64_MIN_ENTRIES else data.tolist()), data
    try:
        rows = data.tolist() if isinstance(data, np.ndarray) else [list(r) for r in data]
    except TypeError:
        raise ValueError("matrix must be a sequence of rows") from None
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(rows[0])
    if plain or not all(len(row) == width for row in rows) or (  # plain: its flat pass failed
            list(map(type, chain.from_iterable(rows))).count(int) != len(rows) * width):
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(
                    f"ragged matrix: row {i} has {len(row)} entries, expected {width}"
                )
            if set(map(type, row)) != {int}:
                rows[i] = [_entry(x) for x in row]
    return rows, None


def as_int_matrix(data) -> np.ndarray:
    """Coerce nested sequences or arrays to a 2-D object array of Python ints,
    under the contract of :func:`_int_rows`.  A plain object array that
    already holds only Python ints, or of a signed integer dtype, comes
    back as ``astype(object)`` of it, Python ints, with no row listed.
    """
    rows, array = _int_rows(data)
    return np.array(rows, dtype=object) if array is None else array.astype(object)


def as_int_vector(data) -> np.ndarray:
    """Coerce a sequence to a 1-D object array of Python ints."""
    items = [_entry(x) for x in data]
    if not items:
        raise ValueError("vector must be nonempty")
    out = np.empty(len(items), dtype=object)
    out[:] = items
    return out


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: return (g, x, y) with a*x + b*y == g == gcd(|a|, |b|).

    Raises ValueError on (0, 0), where no Bezout certificate exists.
    """
    if a == 0 and b == 0:
        raise ValueError("ext_gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def primitive(v) -> np.ndarray:
    """Divide an integer vector by the gcd of its entries.

    The result spans the same ray and has entry gcd 1.  The zero vector is
    rejected: it lies on no ray.
    """
    v = as_int_vector(v)
    g = 0
    for x in v:
        g = math.gcd(g, x)
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return v // g


def primitive_point(p: Vec2) -> Vec2:
    """Tuple form of :func:`primitive` for plane points."""
    g = math.gcd(p[0], p[1])
    if g == 0:
        raise ValueError("cannot primitivize the zero vector")
    return (p[0] // g, p[1] // g)


def cross2(p: Vec2, q: Vec2) -> int:
    """Signed area p.x*q.y - p.y*q.x; the exact angular comparator."""
    return p[0] * q[1] - p[1] * q[0]


def _extremes(vectors: Sequence[Vec2]) -> tuple[Vec2, Vec2]:
    """Angularly lowest and highest of nonzero plane vectors that lie in an
    open half-plane, in one pass: a vector replaces an extreme e when it is
    strictly lower (higher), or points the way e does, not the opposite, and
    is shorter (0 < p.e < e.e).  On one line in both directions the extremes
    end equal, and become the least vector by (squared norm, vector)."""
    lo = hi = vectors[0]
    for p in vectors:
        c, d = cross2(p, lo), cross2(p, hi)
        if c > 0 or not c and 0 < p[0] * lo[0] + p[1] * lo[1] < lo[0] * lo[0] + lo[1] * lo[1]:
            lo = p
        if d < 0 or not d and 0 < p[0] * hi[0] + p[1] * hi[1] < hi[0] * hi[0] + hi[1] * hi[1]:
            hi = p
    return (lo, hi) if lo != hi else (min(vectors, key=lambda p: (_dot(p, p), p)),) * 2


def _bareiss(M: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of M in place: (rank, signed last pivot).

    Every row below the pivot is updated, so each division by the previous
    pivot is exact: intermediate entries are minors of the input and never
    blow up the way plain cross-multiplication elimination would.  For a
    square matrix of full rank the signed last pivot is the determinant.
    """
    n, m = len(M), len(M[0])
    rank, sign, prev = 0, 1, 1
    for col in range(m):
        if rank == n:
            break
        piv = next((r for r in range(rank, n) if M[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
            sign = -sign
        row_p = M[rank]
        p = row_p[col]
        for row_r in M[rank + 1:]:
            q = row_r[col]
            row_r[col:] = [0] + [
                (x * p - q * y) // prev for x, y in zip(row_r[col + 1:], row_p[col + 1:])
            ]
        prev = p
        rank += 1
    return rank, sign * prev


def rank_exact(A) -> int:
    """Rank over the rationals, from the rank-2 column frame (:func:`_frame`)."""
    return _frame(_int_matrix(A))[0]


def det_exact(A) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    M = list(_int_rows(A)[0])  # lists Bareiss may overwrite
    if len(M) != len(M[0]):
        raise ValueError("determinant requires a square matrix")
    rank, last = _bareiss(M)
    return last if rank == len(M) else 0


class SnfResult(NamedTuple):
    S: np.ndarray  # n x n unimodular
    D: np.ndarray  # n x m nonnegative diagonal with d_i | d_{i+1}
    T: np.ndarray  # m x m unimodular


def smith_normal_form(A) -> SnfResult:
    """Smith decomposition A = S @ D @ T, exact and deterministic.

    Pivot strategy (fixed so repeated runs agree bit for bit): at step k the
    pivot is the first nonzero entry of the trailing submatrix in row-major
    order, moved to (k, k) by a row and a column swap.  The pivot row and
    column are then cleared alternately with extended-gcd 2x2 transforms
    (plain subtraction when the pivot already divides the target entry)
    until both are zero off the diagonal.  A column swap or step is the row
    one on the transposed views D.T and T.T, so its writes land in D and T.
    Afterwards the diagonal is fixed up to satisfy the divisibility chain
    and made nonnegative.
    """
    A = as_int_matrix(A)
    n, m = A.shape
    D = A.copy()
    S = np.identity(n, dtype=object)
    T = np.identity(m, dtype=object)

    def row_clear(M: np.ndarray, U: np.ndarray, k: int, i: int) -> None:
        # Zero M[i, k] against the pivot M[k, k]; M <- E @ M, U <- U @ E^-1.
        a, b = M[k, k], M[i, k]
        if b == 0:
            return
        if a != 0 and b % a == 0:
            q = b // a
            M[i, :] = M[i, :] - q * M[k, :]
            U[:, k] = U[:, k] + q * U[:, i]
            return
        g, x, y = ext_gcd(a, b)
        u, v = a // g, b // g
        rk = x * M[k, :] + y * M[i, :]
        ri = -v * M[k, :] + u * M[i, :]
        M[k, :], M[i, :] = rk, ri
        ck = u * U[:, k] + v * U[:, i]
        ci = -y * U[:, k] + x * U[:, i]
        U[:, k], U[:, i] = ck, ci

    def settle(k: int, rows: range, cols: range) -> None:
        while True:
            for M, U, targets, others in ((D, S, rows, cols), (D.T, T.T, cols, rows)):
                for i in targets:
                    row_clear(M, U, k, i)
                if all(M[k, j] == 0 for j in others):
                    return

    r = 0
    for k in range(min(n, m)):
        piv = next(
            (
                (i, j)
                for i in range(k, n)
                for j in range(k, m)
                if D[i, j] != 0
            ),
            None,
        )
        if piv is None:
            break
        pi, pj = piv
        for M, U, p in ((D, S, pi), (D.T, T.T, pj)):
            if p != k:
                M[[k, p], :] = M[[p, k], :]
                U[:, [k, p]] = U[:, [p, k]]
        settle(k, range(k + 1, n), range(k + 1, m))
        r += 1

    # Divisibility chain: fold d_{i+1} into column i and re-settle the pair.
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i, i], D[i + 1, i + 1]
            if a != 0 and b % a != 0:
                D[:, i] = D[:, i] + D[:, i + 1]
                T[i + 1, :] = T[i + 1, :] - T[i, :]
                settle(i, range(i + 1, i + 2), range(i + 1, i + 2))
                changed = True

    for i in range(r):
        if D[i, i] < 0:
            D[i, :] = -D[i, :]
            S[:, i] = -S[:, i]

    return SnfResult(S, D, T)


def _pivot(brows: Sequence[Vec2]) -> Pivot | None:
    """First nonzero row i of an n x 2 matrix (given by its rows), first row
    k independent of it, and their minor d; None when the rank is < 2."""
    i = next((r for r, (x, y) in enumerate(brows) if x or y), None)
    if i is not None:
        x0, y0 = brows[i]
        for k, (x, y) in enumerate(brows):
            d = x0 * y - y0 * x
            if d:
                return i, k, d
    return None


# The int64 span check is exact for entries in [-_INT64_SAFE, _INT64_SAFE].
# Its fixed cost (the cast and a dozen numpy calls) makes the Python loop
# faster on small matrices; they break even between 225 and 300 entries,
# with the cast by astype or by fromiter.  Frame times, cast included, int64
# against Python ints: 40-58 us against 44-53 us at 15 x 15, 37-56 us
# against 43-64 us at 17 x 17, 37-52 us against 58-79 us at 20 x 20 (median
# over 5 products of the best of 7 x 200 frames, a shared 2-vCPU Xeon,
# numpy 2.4).
_INT64_SAFE = 2**20
_INT64_MIN_ENTRIES = 300
# Entries per row block of the int64 span check, whose temporaries then stay
# in cache: one 300 x 300 check took 707 us whole, 362 us in blocks of 2**13
# and 330 us in blocks of 2**14 (best of 5 x 50, shared 2-vCPU Xeon, numpy
# 2.4); solve plus reduce over product_large, alternating, did not tell them apart.
_SPAN_BLOCK = 2**13


def _int64_view(rows: Sequence[Sequence[int]], array: np.ndarray | None = None) -> Sequence[list[int]]:
    """The int64 gate: rows validated by :func:`_int_rows`, with its ``array``,
    as :class:`_ArrayRows` of their :func:`_int64_rows` matrix when they have
    at least _INT64_MIN_ENTRIES entries and that matrix exists; else as
    lists, built here from an array whose rows _int_rows did not list."""
    size = len(rows) * len(rows[0]) if array is None else array.size
    M = _int64_rows(rows, array) if size >= _INT64_MIN_ENTRIES else None
    return (array.tolist() if type(rows) is _ArrayRows else rows) if M is None else _ArrayRows(M)


def _int_matrix(data) -> Sequence[list[int]]:
    """A public call's one validation and cast, as one value: the rows of
    :func:`_int_rows` through the int64 gate of :func:`_int64_view`."""
    return _int64_view(*_int_rows(data))


def _nonnegative_rows(A) -> Sequence[list[int]]:
    """:func:`_int_matrix` of A; ValueError unless every entry is
    nonnegative, read from the int64 matrix's minimum inside the gate."""
    rows = _int_matrix(A)
    if (rows.M.min() if type(rows) is _ArrayRows else min(map(min, rows))) < 0:
        raise ValueError("matrix must be nonnegative")
    return rows


def _int64_rows(rows: Sequence[Sequence[int]], array: np.ndarray | None = None) -> np.ndarray | None:
    """The rows as an int64 array when every entry lies in [-_INT64_SAFE,
    _INT64_SAFE], else None.  ``array``, an ndarray holding the same ints
    that ``astype`` reads exactly (see :func:`_int_rows`), is cast with
    astype, faster than ``np.fromiter`` over the flattened rows (1.7-1.9 ms
    against 1.9-2.9 ms at 300 x 300); anything else is read by fromiter.
    The bound is tested with min and max, since np.abs(-2**63) is negative."""
    try:
        if array is not None:
            M = array.astype(np.int64, copy=False)
        else:
            n, m = len(rows), len(rows[0])
            M = np.fromiter(chain.from_iterable(rows), np.int64, n * m).reshape(n, m)
    except OverflowError:
        return None
    return M if -_INT64_SAFE <= M.min() and M.max() <= _INT64_SAFE else None


def _span_numerators(brows: Sequence[Vec2], piv: Pivot, rows: Sequence[Sequence[int]]) -> list[Vec2] | None:
    """Numerators (n0, n1) with d * y == n0 * col0 + n1 * col1 for every
    column y of the matrix given by its rows, where col0, col1 are the
    columns of the n x 2 basis given by its rows and piv = (i, k, d) is a
    pivot of it; None when some entry fails (a column is outside the span).
    Cramer's rule on rows i and k gives the numerators; the check covers
    every entry.

    This is the one span check.  It runs as numpy int64 arithmetic on the
    int64 matrix M when the rows are :class:`_ArrayRows` of M, and every
    entry of the basis also lies in [-2**20, 2**20]: then |d|, |n0|, |n1| <= 2**41,
    and every product and sum is at most 2**62 in size, so nothing
    overflows.  It reads M in row blocks of about _SPAN_BLOCK entries and
    stops at the first block that fails.  Otherwise the check runs on Python
    ints, at any magnitude.
    """
    i, k, d = piv
    (a0, a1), (b0, b1) = brows[i], brows[k]
    C = _int64_rows(brows) if type(rows) is _ArrayRows else None
    if C is not None:
        M = rows.M
        n0 = M[i] * b1 - M[k] * a1
        n1 = a0 * M[k] - b0 * M[i]
        step = max(1, _SPAN_BLOCK // len(n0))
        for s in range(0, len(M), step):
            if np.count_nonzero(C[s:s + step, :1] * n0 + C[s:s + step, 1:] * n1 != d * M[s:s + step]):
                return None
        return list(zip(n0.tolist(), n1.tolist()))
    nums = [(yi * b1 - yk * a1, a0 * yk - b0 * yi) for yi, yk in zip(rows[i], rows[k])]
    for (c0, c1), row in zip(brows, rows):
        for (n0, n1), y in zip(nums, row):
            if c0 * n0 + c1 * n1 != d * y:
                return None
    return nums


def _int_points(brows: Sequence[Vec2], piv: Pivot, rows: Sequence[Sequence[int]]) -> list[Vec2 | None]:
    """Integer coordinates in the basis of each column of the matrix given
    by its rows (read as in :func:`_span_numerators`); None for a column
    outside the span or whose coordinates are not integers."""
    nums = _span_numerators(brows, piv, rows)
    if nums is None:  # some column is outside the span: check each alone
        cols = (_span_numerators(brows, piv, [[x] for x in col]) for col in zip(*rows))
        nums = [None if c is None else c[0] for c in cols]
    d = piv[2]
    return [None if n is None or n[0] % d or n[1] % d else (n[0] // d, n[1] // d) for n in nums]


def _hermite2(vectors) -> tuple[Vec2, Vec2]:
    """Hermite form ((a, b), (0, c)), a, c > 0, 0 <= b < c, of the lattice the
    integer 2-vectors generate; equal lattices give equal forms.

    One extended-gcd step per vector folds it into the first row; the rest
    has first coordinate 0 and folds into c.  Once |a| = c = 1 the lattice
    is Z^2, which no later vector changes, so the form is returned then.
    ValueError unless rank 2.
    """
    a = b = c = 0
    for x, y in vectors:
        if x:
            if a:
                g, s, t = ext_gcd(a, x)
                a, b, y = g, s * b + t * y, (x // g) * b - (a // g) * y
            else:
                a, b, y = x, y, 0
        c = math.gcd(c, y)
        if c:
            if c == 1 and a in (1, -1):
                return (1, 0), (0, 1)
            b %= c
    if a == 0 or c == 0:
        raise ValueError("vectors do not span the plane")
    if a < 0:
        a, b = -a, -b % c
    return (a, b), (0, c)


def _frame(
    rows: Sequence[Sequence[int]], name_rank: bool = True
) -> tuple[int | None, tuple[list[Vec2], Pivot, list[Vec2]] | None]:
    """The exact rank and, at rank 2, the frame :func:`_column_frame` returns,
    for the matrix given by its rows, whose columns it reads from M when the
    rows are :class:`_ArrayRows` of M.  A failed span check means a rank
    above 2: Bareiss elimination names it under ``name_rank``, else None."""
    m = len(rows[0])
    M = rows.M if type(rows) is _ArrayRows else None
    if M is None:
        j0 = next((j for j in range(m) if any(row[j] for row in rows)), None)
    else:
        j0 = next(iter(M.any(axis=0).nonzero()[0].tolist()), None)
    if j0 is None:
        return 0, None
    for j1 in range(j0 + 1, m):
        B = ([(row[j0], row[j1]) for row in rows] if M is None
             else list(zip(M[:, j0].tolist(), M[:, j1].tolist())))
        piv = _pivot(B)
        if piv is not None:
            break
    else:
        return 1, None
    coords = _span_numerators(B, piv, rows)
    if coords is None:
        return (_bareiss([list(row) for row in rows])[0] if name_rank else None), None
    return 2, (B, piv, coords)


def _column_frame(rows: Sequence[Sequence[int]]) -> tuple[list[Vec2], Pivot, list[Vec2]]:
    """Two independent columns of a rank-2 matrix, given by its rows as in
    :func:`_frame`, and every column in them.

    Returns B (the rows of the first nonzero column and the first column
    independent of it, as 2-vectors), a pivot of B, and each column's
    coordinates in B as numerators over the pivot's minor.  Checking every
    column is the rank test: ValueError, naming the rank, unless it is 2.
    """
    rank, frame = _frame(rows)
    if frame is None:
        raise ValueError(f"matrix must have rank 2, got rank {rank}")
    return frame


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(operator.mul, u, v))


def _sign_normalized(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-x for x in v) if next((x for x in v if x), 0) < 0 else v


def _lagrange_gauss(b1: tuple[int, ...], b2: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical reduced basis of the lattice of two independent vectors.

    After Lagrange-Gauss reduction (||u|| <= ||w|| <= ||w +- u||), the
    shortest vectors of the lattice are among +-u, +-w, +-(w -+ u), and so
    are the shortest ones independent of them.  Sign-normalizing these four
    and taking the two smallest by (squared norm, tuple) gives a basis that
    depends on the lattice only, not on the starting basis.

    The reduction runs on the Gram matrix: u and w are kept as coefficient
    pairs over (b1, b2) with their squared norms and dot product, so each
    step is O(1).  Only the candidates whose norm ties or beats the second
    smallest are built, since the tie-break compares the vectors.
    """
    n1, n2, g = _dot(b1, b1), _dot(b2, b2), _dot(b1, b2)
    (p, q), (r, s) = (1, 0), (0, 1)  # u = p*b1 + q*b2, w = r*b1 + s*b2
    if n1 > n2:
        (p, q), (r, s), n1, n2 = (r, s), (p, q), n2, n1
    while True:
        mu = (2 * g + n1) // (2 * n1)  # nearest integer to <u,w>/n1
        if mu:
            r, s = r - mu * p, s - mu * q
            n2 += mu * (mu * n1 - 2 * g)
            g -= mu * n1
        if n2 >= n1:
            break
        (p, q), (r, s), n1, n2 = (r, s), (p, q), n2, n1
    cands = ((n1, p, q), (n2, r, s), (n1 + n2 - 2 * g, r - p, s - q), (n1 + n2 + 2 * g, r + p, s + q))
    second = sorted(c[0] for c in cands)[1]
    (_, v1), (_, v2) = sorted(
        (n, _sign_normalized(tuple(c1 * e1 + c2 * e2 for e1, e2 in zip(b1, b2))))
        for n, c1, c2 in cands if n <= second
    )[:2]
    return v1, v2
