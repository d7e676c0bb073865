"""Decision procedure for nonnegative integer rank 2.

Working on the canonical diagram, the cone spanned by the data points is
wedged between the ambient cone's extreme rays (1,0) and c.  Any generating
pair (a, b) must flank the data: a below the lowest data direction u, b
above the highest one v.  Some multiple k*a of the lower generator then
lands in the bounded triangle K₋ ∩ (u − K₊), so enumerating the triangle's
lattice points and pairing each candidate with the forced direction of b
gives a finite, complete search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np

from . import linalg
from .diagram import CanonicalDiagram, build_diagram, canonicalize, in_cone
from .linalg import (
    Vec2,
    _extremes,
    _hermite2,
    _int_rows,
    as_int_matrix,
    primitive_point,
    rank_exact,
)

RANK2 = "rank2"
NOT_RANK2 = "not_rank2"
RANK_LE_1 = "rank_le_1"

# The triangle search takes about 5 ns per pair in its float64 batch, 9-11 in
# its int64 one and 50-300 ns in its Python walk (bt(10⁴) and near_t(10⁴),
# 2-vCPU Xeon), so 2·10⁸ pairs is 1.5-60 s.  A search whose pair bound
# exceeds that (bt(10⁴) bounds at 2.5·10⁷, near_t(10¹⁹) at 2.5·10³⁷) gets
# only PROBE_PAIRS pairs: a rank2 matrix with a huge triangle can still win
# among its first few.
MAX_CANDIDATE_PAIRS = 2 * 10**8
PROBE_PAIRS = 10**6
# A search walks its first pairs in Python and hands the batch only the
# columns after this many: entering the batch (a chunk's column bounds, the
# i*ux array, the first block) costs about 30-40 us, and the pair bound,
# often 100 times the true count on a product, cannot pick out the short
# searches up front.  Against 512 pairs, 128 cut the benchmark's
# triangle_sweep median solve by a further 13% and left product_small's p90
# as it was; 32 cut triangle_sweep by 3% more but made product_small's p90
# 5% slower (paired runs, best of 10-15 per instance, 2-vCPU Xeon).
_BATCH_MIN_PAIRS = 128
# Pairs per block: the first block is small, so that a winner soon after
# the Python walk pays little for it; each later one is 4 times larger, up
# to a cap that keeps each of a block's arrays at 64 KiB, in cache (on
# bt(10⁴) a float64 block cost 19 ns per pair at 2**16 pairs, and 5-7 at
# 2**13).  The cap also bounds the columns in each chunk the blocks are cut
# from, so no array grows with the number of columns.
_BATCH_FIRST, _BATCH_MAX = 2**10, 2**13
# The batch's int64 and float64 gates: see _batch_dtype
_BATCH_INT64_BOUND, _BATCH_FLOAT_BOUND = 2**62, 2**53
# verify_factorization's int64 gate on max(F1) * max(F2): see _int64_product
_PRODUCT_INT64_BOUND = 2**61


@dataclass(frozen=True)
class ConeDecomposition:
    """Split of the ambient cone into K₋ ∪ cone(u, v) ∪ K₊.

    u, v are the primitive directions of the angularly lowest and highest
    nonzero data points; u_point / v_point are the data points themselves;
    c is the second canonical cone generator.
    """

    u: Vec2
    v: Vec2
    c: Vec2
    u_point: Vec2
    v_point: Vec2


@dataclass(frozen=True)
class CandidatePair:
    a: Vec2  # primitive, in the lower flank K₋
    b: Vec2  # primitive, in the upper flank K₊


@dataclass(frozen=True)
class PairRejection:
    pair: CandidatePair
    index: int  # first column whose coefficients fail
    coeffs: tuple[Fraction, Fraction]


@dataclass
class Rank2Certificate:
    F1: np.ndarray  # n x 2, nonnegative
    F2: np.ndarray  # 2 x m, nonnegative
    pair: CandidatePair


@dataclass
class SolveOutcome:
    verdict: str
    certificate: Rank2Certificate | None = None
    pairs_examined: int = 0
    rank1_factors: tuple[np.ndarray, np.ndarray] | None = None
    rejections: list[PairRejection] | None = None


def decompose(cd: CanonicalDiagram) -> ConeDecomposition:
    """Find the angular extremes u and v of the nonzero data points.

    Ties between parallel points are broken toward the smaller Euclidean
    norm, then lexicographically, so the result is deterministic.  Raises
    ValueError when fewer than two non-parallel nonzero points exist (the
    matrix then has rank < 2).
    """
    pts = [p for p in cd.points if p != (0, 0)]
    if not pts:
        raise ValueError("no nonzero points: matrix has rank 0")
    u_pt, v_pt = _extremes(pts)
    u = primitive_point(u_pt)
    v = primitive_point(v_pt)
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise ValueError("all points are parallel: matrix has rank 1")
    return ConeDecomposition(
        u=u, v=v, c=cd.cone_gens[1], u_point=u_pt, v_point=v_pt
    )


def _x_lo(dec: ConeDecomposition) -> int:
    """First column of the triangle K₋ ∩ (u_point − K₊): the leftmost vertex
    abscissa, rounded up, and at least 1 (x = 0 holds only the origin).

    The vertices are u_point and the x-axis hits of the rays u_point − t·v
    and u_point − t·c; vx, cx >= 0 keep both hits at or left of ux.
    """
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    return max(1, min(ux, -(-(ux * vy - uy * vx) // vy), -(-(ux * cy - uy * cx) // cy)))


def _column_range(dec: ConeDecomposition, x, maximum=max, minimum=min):
    """lo, hi of column x of the triangle K₋ ∩ (u_point − K₊): its lattice
    points there are the (x, y) with lo <= y <= hi (none when lo > hi).

    x is an int, or an int64 array of columns with np.maximum and np.minimum
    as ``maximum`` and ``minimum``.  The four half-plane conditions
    (boundary included, origin excluded):

        cross((1,0), p) >= 0        cross(p, u_point)       >= 0
        cross(v, u_point - p) >= 0  cross(u_point - p, c)   >= 0

    give the y-range in integers; the first two give 0 <= y <= uy*x/ux.
    """
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    lo, hi = 0, uy * x // ux
    # the last two conditions as alpha*x + beta*y + delta >= 0; where
    # beta == 0 they hold on every column from _x_lo to ux
    for al, be, de in ((vy, -vx, vx * uy - vy * ux), (-cy, cx, ux * cy - uy * cx)):
        s = al * x + de
        if be > 0:
            lo = maximum(lo, -(s // be))
        elif be < 0:
            hi = minimum(hi, s // -be)
    return lo, hi


def triangle_points(dec: ConeDecomposition) -> list[Vec2]:
    """Lattice points of the triangle K₋ ∩ (u_point − K₊), lexicographic:
    its columns x = :func:`_x_lo`..ux, each from :func:`_column_range`."""
    points: list[Vec2] = []
    for x in range(_x_lo(dec), dec.u_point[0] + 1):
        lo, hi = _column_range(dec, x)
        points += ((x, y) for y in range(lo, hi + 1))
    return points


def _pair_bound(dec: ConeDecomposition) -> int:
    """O(1) bound on the pairs :func:`search` examines.

    The triangle K₋ ∩ (u_point − K₊) has vertices u_point,
    (ux − uy·vx/vy, 0) and (ux − uy·cx/cy, 0), so its area is
    uy²·cross(v, c)/(2·vy·cy).  The columns x = _x_lo..ux all lie within its
    x-extent, and column x holds at most h(x) + 1 of its lattice points, for
    h(x) the length of the triangle's section at x.  h is concave, so on
    each unit step the trapezoid (h(x) + h(x+1))/2 is at most the area over
    that step, and the sum of h over the columns is at most the area plus
    half of h at the first and at the last column, each at most uy.  So the
    columns hold at most ⌈area⌉ + uy + (ux − _x_lo + 1) pairs, and the b
    sweep at most max(v_point) + 2 more.
    """
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    area = -(-uy * uy * (vx * cy - vy * cx) // (2 * vy * cy))
    return area + uy + ux - _x_lo(dec) + 1 + max(dec.v_point) + 2


def _survivors(xs, offsets, N, pieces, first: int, ux: int, uy: int, iux):
    """(x, y, i) of each pair, i-th in a block of column pieces, that
    passes the one-modulo test of :func:`search`.  pieces[j] pairs lie in
    column xs[j], whose test number is N[j], and the pair with index k,
    counted from ``first`` for the block's first, has y = k + offsets[j].

    The i-th pair of piece j has C = x*uy - y*ux = base_j - i*ux, for
    base_j = xs[j]*uy - (offsets[j] + first)*ux, and iux[i] = i*ux; so C is
    one repeat of base, and x and y are recovered only for the survivors.
    N and iux are float64 or int64 arrays, as :func:`_batch_dtype` gates
    them.  In int64 a pair survives when N % C == 0.  In float64 it
    survives when q = N/C is an integer, which is the same test: under the
    float64 gate N, C, base and i*ux are integers below 2**53, held exactly.
    If C divides N, q is that integer exactly.  If not, N/C is at least 1/C
    from every integer, and the division errs by at most (N/C)*2**-53 <
    1/C, so q is no integer either.
    """
    C = np.repeat((xs * uy - (offsets + first) * ux).astype(N.dtype), pieces)
    C -= iux[:C.size]
    N = np.repeat(N, pieces)
    if N.dtype == np.float64:
        q = N / C
        keep = np.flatnonzero(np.rint(q) == q)
    else:
        keep = np.flatnonzero(N % C == 0)
    j = np.searchsorted(np.cumsum(pieces), keep, side="right")
    return zip(xs[j].tolist(), (keep + first + offsets[j]).tolist(), keep.tolist())


def _coefficients(a: Vec2, b: Vec2, points) -> list[Vec2] | int:
    """Coefficients of every point in the candidate basis (a, b), if they exist.

    Point p has coefficients w = (cross(p, b)/D, cross(a, p)/D) with
    D = cross(a, b).  Returns the coefficient list when every w is a pair
    of nonnegative integers, otherwise the index of the first point whose
    coefficients are not.  Raises ValueError when a and b are parallel.
    """
    ax, ay = a
    bx, by = b
    D = ax * by - ay * bx
    if D == 0:
        raise ValueError("candidate pair must not be parallel")
    W: list[Vec2] = []
    for i, (px, py) in enumerate(points):
        q1, r1 = divmod(px * by - py * bx, D)
        q2, r2 = divmod(ax * py - ay * px, D)
        if r1 != 0 or r2 != 0 or q1 < 0 or q2 < 0:
            return i
        W.append((q1, q2))
    return W


def _rejection(pair: CandidatePair, points, i: int) -> PairRejection:
    """The record of a pair failing at point i, with its exact coefficients."""
    (ax, ay), (bx, by), (px, py) = pair.a, pair.b, points[i]
    D = ax * by - ay * bx
    coeffs = (Fraction(px * by - py * bx, D), Fraction(ax * py - ay * px, D))
    return PairRejection(pair, i, coeffs)


def _batch_dtype(dec: ConeDecomposition, G: int):
    """The dtype of :func:`search`'s batch: np.float64 under both gates
    below, np.int64 under the int64 one alone, None above it.

    int64: every product the batch forms, in the one-modulo test and in
    :func:`_column_range`, stays below _BATCH_INT64_BOUND.  float64: N and
    every base and i*ux of :func:`_survivors`, hence every C, stay below
    _BATCH_FLOAT_BOUND; N = G*x*(ux - x) <= G*(ux*ux // 4) and base_j = C +
    i*ux <= ux*uy + _BATCH_MAX*ux.
    """
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    if max(
        G * ux * ux, uy * ux, abs(vy) * ux + abs(vx * uy - vy * ux), cy * ux + abs(ux * cy - uy * cx)
    ) >= _BATCH_INT64_BOUND:
        return None
    if max(G * (ux * ux // 4), ux * (uy + _BATCH_MAX)) < _BATCH_FLOAT_BOUND:
        return np.float64
    return np.int64


def search(cd: CanonicalDiagram, collect_rejections: bool = False) -> SolveOutcome:
    """Run the bounded generator search on a canonical diagram.

    Candidates k*a are the triangle's lattice points in lexicographic
    order.  When k*a != u_point the direction of b is forced to
    u_point - k*a; when k*a == u_point, b sweeps the directions
    v_point - k'*a for k' = 0, 1, ... while they stay in the ambient cone.
    The first pair generating every point wins; the outcome is fully
    deterministic.  The pairs come as one ordered stream of (a, b, k), k
    counting from 1 in that order, and one loop checks each of them.

    Each pair first meets an O(1) divisibility test.  Let G be the index in
    Z² of the lattice L_P the points generate.  If (a, b) generates every
    point then L_P ⊆ L(a, b), and the index |cross(a, b)| of L(a, b)
    divides G.  A pair failing that cannot win, so it is rejected without
    the full check over every point; it still counts in ``pairs_examined``.
    Under ``collect_rejections`` every pair gets the full check, so each
    rejection is recorded with its first failing point and coefficients.

    A cheaper necessary test, one modulo per pair, runs in front of it.
    In column x the pair from k*a = (x, y) has cross(a, b) = C/(g1*g2),
    with C = cross(k*a, u_point) > 0, g1 = gcd(x, y) and g2 = gcd(dx, dy)
    for (dx, dy) = u_point - k*a.  As g1 | x and g2 | dx, C/(g1*g2) | G
    implies C | N = G*x*dx, which is fixed for the column; a pair with
    N % C != 0 is one the index test rejects.  Where dx == 0 no such N
    exists and every pair goes on to the index test.

    With pruning on and a pair bound up to MAX_CANDIDATE_PAIRS, the columns
    x < ux after the first _BATCH_MIN_PAIRS pairs run that test as numpy
    arrays.  They are taken in chunks of up to _BATCH_MAX columns; each
    chunk's column bounds and the prefix sum of its column lengths come
    from a fixed number of array operations, and the chunk's pairs are cut
    into blocks of _BATCH_FIRST pairs growing to _BATCH_MAX, whose survivors
    join the stream in the same order.  Each block is one call of
    :func:`_survivors`, and :func:`_batch_dtype` picks its arithmetic.
    int64 gate: as 0 <= y <= uy, every x*uy, y*ux <= ux*uy and N <=
    G*ux**2/4; the column bounds' products stay within |vy|*ux + |vx*uy -
    vy*ux| and cy*ux + |ux*cy - uy*cx|, and a chunk's prefix sum within the
    pair bound.  With all of these below _BATCH_INT64_BOUND = 2**62 nothing
    overflows (ux < 2**31 then, so base_j <= ux*uy + _BATCH_MAX*ux < 2**63).
    float64 gate: with N <= G*(ux*ux // 4) and ux*(uy + _BATCH_MAX) also
    below _BATCH_FLOAT_BOUND = 2**53, every N, C, base_j and i*ux is an
    integer that float64 holds exactly, and the quotient test N/C is exact
    (proof in :func:`_survivors`): it runs in float64, at about half the
    cost of the int64 modulo.  Above the int64 gate, as in the dx == 0
    column and the b sweep, the Python walk runs, at any magnitude.  Either
    way ``pairs_examined`` and every record are the same.

    The walk takes _column_range's conditions with the constants of its
    v and c lines computed once: in a canonical diagram vx, cx >= 0, so the
    v line only caps a column's top and the c line only raises its bottom.

    When :func:`_pair_bound` exceeds MAX_CANDIDATE_PAIRS but the bound at
    the other canonization index, that of ``canonicalize(cd, 2)``, is within
    it, the search runs on that diagram instead: its points are those of
    the other index's canonical diagram, so the verdict, ``pairs_examined``,
    every record and the certificate are the other index's.  When both
    bounds exceed it, it raises ValueError once PROBE_PAIRS pairs go by
    without a winner; under ``collect_rejections`` a pruned probe runs
    first, so a refusal costs no record of each rejected pair.
    """
    dec = decompose(cd)
    bound = _pair_bound(dec)
    if bound > MAX_CANDIDATE_PAIRS:
        other = canonicalize(cd, 2)
        if _pair_bound(decompose(other)) <= MAX_CANDIDATE_PAIRS:
            return search(other, collect_rejections)
    limit = MAX_CANDIDATE_PAIRS if bound <= MAX_CANDIDATE_PAIRS else PROBE_PAIRS
    if collect_rejections and limit == PROBE_PAIRS:
        search(cd)  # a probe without a winner refuses here, before any record is kept
    refusal = (
        f"the triangle search would examine up to {bound} candidate pairs, above"
        f" the limit of {MAX_CANDIDATE_PAIRS}, and none of the first {limit} wins"
    )
    points = cd.points
    (h1, _), (_, h2) = _hermite2(points)
    G = h1 * h2  # the point lattice's index: det of its Hermite basis
    rejections: list[PairRejection] | None = [] if collect_rejections else None
    prune = rejections is None
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    if vx < 0 or cx < 0:
        raise RuntimeError("internal error: v or c leaves the canonical quadrant")
    # the constant terms of _column_range's v and c lines
    dv, dc = vx * uy - vy * ux, ux * cy - uy * cx
    dtype = _batch_dtype(dec, G) if prune and bound <= MAX_CANDIDATE_PAIRS else None
    pairs = 0  # the pairs counted so far, after each column, block and sweep step

    def pair(x: int, y: int, k: int) -> tuple[Vec2, Vec2, int]:
        # the k-th pair, from k*a = (x, y): a = k*a / g1, b = (u_point - k*a) / g2
        g1, dx, dy = gcd(x, y), ux - x, uy - y
        g2 = gcd(dx, dy)
        return (x // g1, y // g1), (dx // g2, dy // g2), k

    def walk(x: int, handoff: bool):
        # columns x, x + 1, ..., ux in Python ints, at any magnitude, up to the
        # limit; with handoff, the first column x < ux reached after
        # _BATCH_MIN_PAIRS pairs is left to the batch and returned
        nonlocal pairs
        while x <= ux:
            if handoff and x < ux and pairs >= _BATCH_MIN_PAIRS:
                return x
            # _column_range with vx, cx >= 0: the v line caps hi, the c line raises lo
            hi = uy * x // ux
            if vx:
                hi = min(hi, (vy * x + dv) // vx)
            lo = max(0, -((dc - cy * x) // cx)) if cx else 0
            if x == ux:
                # u_point tops its column; its pairs come from the b sweep
                if hi != uy:
                    raise RuntimeError("internal error: u_point is not its column's top")
                hi -= 1
            over = hi - lo + 1 > limit - pairs  # walk no further than the limit
            hi = min(hi, lo + limit - pairs - 1)
            top = x * uy
            # 0 sends every pair on: under collect_rejections, and where dx == 0
            N = G * x * (ux - x) if prune else 0
            # C = cross(k*a, u_point) = x*uy - y*ux for y = lo, ..., hi
            for C in range(top - lo * ux, top - hi * ux - 1, -ux):
                if N % C == 0:
                    y = (top - C) // ux
                    yield pair(x, y, pairs + y - lo + 1)
            pairs += max(0, hi - lo + 1)
            if over:
                raise ValueError(refusal)
            x += 1
        return x

    def batch(x0: int):
        # the columns x0..ux-1 in dtype, under the bound, so never past the limit
        nonlocal pairs
        size = _BATCH_FIRST
        iux = np.arange(_BATCH_MAX, dtype=dtype) * ux
        for start in range(x0, ux, _BATCH_MAX):
            xs = np.arange(start, min(start + _BATCH_MAX, ux), dtype=np.int64)
            lo, hi = _column_range(dec, xs, np.maximum, np.minimum)
            counts = np.maximum(hi - lo + 1, 0)
            ends = np.cumsum(counts)
            # y - k for the chunk's k-th pair: a column's last, k = ends - 1, has y = hi
            offsets = hi + 1 - ends
            N = (G * xs * (ux - xs)).astype(dtype)
            done, total = 0, int(ends[-1])
            while done < total:
                cut = min(done + size, total)
                # the columns whose pieces hold the chunk's pairs done..cut-1,
                # the first and the last piece trimmed to them
                j0, j1 = np.searchsorted(ends, (done, cut - 1), side="right")
                cols = slice(j0, j1 + 1)
                pieces = counts[cols].copy()
                pieces[0] -= done - (ends[j0] - counts[j0])
                pieces[-1] -= ends[j1] - cut
                for x, y, i in _survivors(
                    xs[cols], offsets[cols], N[cols], pieces, done, ux, uy, iux
                ):
                    yield pair(x, y, pairs + i + 1)
                pairs += cut - done
                done = cut
                size = min(4 * size, _BATCH_MAX)

    def sweep():
        # b = v_point - k2*a, primitive, for k2 = 0, 1, ... while in the cone
        nonlocal pairs
        a = dec.u
        px, py = dec.v_point
        k2, qx, qy = 0, px, py
        while in_cone((qx, qy), (1, 0), dec.c):
            pairs += 1
            if pairs > limit:
                raise ValueError(refusal)
            g = gcd(qx, qy)
            yield a, (qx // g, qy // g), pairs
            k2 += 1
            qx, qy = px - k2 * a[0], py - k2 * a[1]
        # the sweep leaves the cone after at most max(v_point) + 1 steps
        if k2 > 1 + max(px, py):
            raise RuntimeError("internal error: the b sweep overran its bound")

    def stream():
        # the walked prefix, the batch, u_point's column, then the b sweep
        x = yield from walk(_x_lo(dec), dtype is not None)
        if x < ux:
            yield from batch(x)
            yield from walk(ux, False)
        yield from sweep()

    for a, b, k in stream():
        if prune and G % (a[0] * b[1] - a[1] * b[0]):
            continue  # the index test: cross(a, b) does not divide G
        W = _coefficients(a, b, points)
        if not isinstance(W, int):
            cert = assemble(cd, CandidatePair(a, b), W)
            return SolveOutcome(RANK2, cert, k, rejections=rejections)
        if rejections is not None:
            rejections.append(_rejection(CandidatePair(a, b), points, W))
    return SolveOutcome(NOT_RANK2, None, pairs, rejections=rejections)


def assemble(
    cd: CanonicalDiagram, pair: CandidatePair, W: list[Vec2]
) -> Rank2Certificate:
    """Certificate matrices from a successful pair.

    F1 holds the preimages of a and b in the original space (columns of the
    stored basis times the generators); F2 stacks the coefficient pairs.
    Both must come out nonnegative: a and b lie in the ambient cone, so
    their preimages lie in col(A) ∩ Z⁺ⁿ.
    """
    (ax, ay), (bx, by) = pair.a, pair.b
    F1 = [(x * ax + y * ay, x * bx + y * by) for x, y in cd.basis.tolist()]
    if any(f < 0 for row in F1 for f in row):
        raise RuntimeError(
            "internal error: generator preimage has a negative entry"
        )
    for i, ((w0, w1), p) in enumerate(zip(W, cd.points)):
        if (ax * w0 + bx * w1, ay * w0 + by * w1) != p:
            raise RuntimeError(f"internal error: coefficients do not rebuild point {i}")
    F2 = np.array(list(zip(*W)), dtype=object)
    return Rank2Certificate(F1=np.array(F1, dtype=object), F2=F2, pair=pair)


def _int64_product(f1: list[list[int]], f2: list[list[int]]) -> np.ndarray | None:
    """F1 @ F2 in int64, for an n x 2 and a 2 x m factor given by their rows,
    when every entry of both is nonnegative and max(F1) * max(F2) <
    _PRODUCT_INT64_BOUND; None otherwise.

    The bound makes the product exact.  Entry (i, j) is
    F1[i][0] * F2[0][j] + F1[i][1] * F2[1][j]: two nonnegative terms, each
    at most max(F1) * max(F2) < 2**61, so the entry and every partial sum
    are at most 2 * max(F1) * max(F2) < 2**62 < 2**63, and nothing
    overflows.  Both factors are read by one ``np.fromiter``.
    """
    n, m = len(f1), len(f2[0])
    try:
        F = np.fromiter(chain(chain.from_iterable(f1), chain.from_iterable(f2)), np.int64, 2 * (n + m))
    except OverflowError:
        return None
    F1, F2 = F[:2 * n].reshape(n, 2), F[2 * n:].reshape(2, m)
    if F.min() < 0 or int(F1.max()) * int(F2.max()) >= _PRODUCT_INT64_BOUND:
        return None
    return F1 @ F2


def verify_factorization(A, F1, F2) -> bool:
    """True iff F1 (n x 2) times F2 (2 x m) reproduces A exactly with
    nonnegative integer entries throughout.  Never raises.

    Each matrix is validated once.  The product is the int64 one of
    :func:`_int64_product` when A has at least linalg._INT64_MIN_ENTRIES
    entries, the frame's size cut, and that product is exact; else a
    product on Python ints, row by row, faster on a small A.  Either way
    its entries are compared with A's as Python ints.
    """
    try:
        (rows, _), (f1, _), (f2, _) = (_int_rows(X) for X in (A, F1, F2))
    except (ValueError, TypeError):
        return False
    if (len(f1), len(f1[0]), len(f2), len(f2[0])) != (len(rows), 2, 2, len(rows[0])):
        return False
    P = _int64_product(f1, f2) if len(rows) * len(rows[0]) >= linalg._INT64_MIN_ENTRIES else None
    if P is not None:
        return P.tolist() == rows
    if any(x < 0 for x in chain(*f1, *f2)):
        return False
    return [[a * x + b * y for x, y in zip(*f2)] for a, b in f1] == rows


def _rank1_factors(rows: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Factor a rank <= 1 nonnegative matrix, given by its rows, as
    (n x 1) @ (1 x m): the primitive first nonzero column times each
    column's multiple of it."""
    cols = list(zip(*rows))
    j0 = next((j for j, col in enumerate(cols) if any(col)), None)
    if j0 is None:
        return np.zeros((len(rows), 1), dtype=object), np.zeros((1, len(cols)), dtype=object)
    g = gcd(*cols[j0])
    gen = [x // g for x in cols[j0]]
    i0 = next(i for i, x in enumerate(gen) if x)
    ks = [col[i0] // gen[i0] for col in cols]
    for col, k in zip(cols, ks):
        if any(x != k * y for x, y in zip(col, gen)):
            raise ValueError("matrix does not have rank <= 1")
    return np.array([[x] for x in gen], dtype=object), np.array([ks], dtype=object)


def solve(A, r: int = 1, collect_rejections: bool = False) -> SolveOutcome:
    """Top-level decision: does A have nonnegative integer rank <= 2?

    Validates the input (integer, nonnegative, rank <= 2), answers rank <= 1
    directly with a single-generator factorization, and otherwise runs the
    canonical-diagram search with canonization index ``r``.  Every rank2
    verdict is gated through :func:`verify_factorization` before return.
    """
    if r not in (1, 2):
        raise ValueError("canonization index must be 1 or 2")
    A = as_int_matrix(A)
    if (A < 0).any():
        raise ValueError("matrix must be nonnegative")
    rk = rank_exact(A)
    if rk > 2:
        raise ValueError(f"matrix must have rank <= 2, got rank {rk}")
    if rk <= 1:
        return SolveOutcome(RANK_LE_1, rank1_factors=_rank1_factors(A.tolist()))
    cd = canonicalize(build_diagram(A), r)
    out = search(cd, collect_rejections=collect_rejections)
    if out.verdict == RANK2:
        cert = out.certificate
        if not verify_factorization(A, cert.F1, cert.F2):
            raise RuntimeError("internal error: certificate failed verification")
    return out

