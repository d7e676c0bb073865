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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

import numpy as np

from . import linalg
from .diagram import CanonicalDiagram, _canon_index, build_diagram, canonicalize
from .linalg import (
    Vec2,
    _extremes,
    _hermite2,
    _int64_rows,
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
# columns after this many (the pair bound cannot pick out short searches up
# front).  Against 128, 32 cut the benchmark's triangle_sweep mean solve by
# 6% and left product_small's p90 as it was (interleaved best-of, 2-vCPU Xeon).
_BATCH_MIN_PAIRS = 32
# Pairs per block, and columns per chunk, so no array grows with the
# triangle: each of a block's arrays stays at 64 KiB.  numpy allocates a
# temporary of 128 KiB or more through mmap: at 2**14 and 2**15 a bt(395)
# solve took 96 and 168 minor page faults, against 0 at 2**13, and the
# benchmark's triangle_sweep median solve was 21-28% slower (2-vCPU Xeon).
_BATCH_MAX = 2**13
# The batch's int64 and float64 gates: see _batch_dtype
_BATCH_INT64_BOUND, _BATCH_FLOAT_BOUND = 2**62, 2**53


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
    ValueError for a diagram that is not a CanonicalDiagram and when fewer
    than two non-parallel nonzero points exist (the matrix then has rank
    < 2), and RuntimeError when vx or cx is below 0.
    """
    if not isinstance(cd, CanonicalDiagram):
        raise ValueError("the search needs a CanonicalDiagram: pass the diagram through canonicalize")
    pts = [p for p in cd.points if p != (0, 0)]
    if not pts:
        raise ValueError("no nonzero points: matrix has rank 0")
    u_pt, v_pt = _extremes(pts)
    u, v = primitive_point(u_pt), primitive_point(v_pt)
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise ValueError("all points are parallel: matrix has rank 1")
    c = cd.cone_gens[1]
    if v[0] < 0 or c[0] < 0:
        raise RuntimeError("internal error: v or c leaves the canonical quadrant")
    return ConeDecomposition(u=u, v=v, c=c, u_point=u_pt, v_point=v_pt)


def _x_lo(dec: ConeDecomposition) -> int:
    """First column of the triangle K₋ ∩ (u_point − K₊): the leftmost vertex
    abscissa, rounded up, and at least 1 (x = 0 holds only the origin).

    The vertices are u_point and the x-axis hits of the rays u_point − t·v
    and u_point − t·c; as cross(v, c), vx >= 0, the first is leftmost, <= ux.
    """
    ux, uy = dec.u_point
    vx, vy = dec.v
    return max(1, ux - uy * vx // vy)


def _column_range(dec: ConeDecomposition, x, maximum=max, minimum=min):
    """lo, hi of column x of the triangle K₋ ∩ (u_point − K₊): its lattice
    points there are the (x, y) with lo <= y <= hi (none when lo > hi).

    x is an int, or an int64 array of columns with np.maximum and np.minimum
    as ``maximum`` and ``minimum``.  The four half-plane conditions
    (boundary included, origin excluded):

        cross((1,0), p) >= 0        cross(p, u_point)       >= 0
        cross(v, u_point - p) >= 0  cross(u_point - p, c)   >= 0

    give the y-range in integers; the first two give 0 <= y <= uy*x/ux.
    As vx, cx >= 0 (:func:`decompose`), the third caps y at uy - vy*(ux -
    x)/vx and the fourth raises it to uy - cy*(ux - x)/cx; where vx or cx
    is 0, that condition holds on every column from _x_lo to ux.
    """
    ux, uy = dec.u_point
    (vx, vy), (cx, cy) = dec.v, dec.c
    lo, hi = 0, uy * x // ux
    if vx:
        hi = minimum(hi, uy + vy * (x - ux) // vx)
    if cx:
        lo = maximum(lo, uy - cy * (ux - x) // cx)
    return lo, hi


def _cut(lo, top, N, ux: int, maximum=max):
    """The first y of a column, from lo up, to test against N > 0: its
    pairs have C = top - y*ux, and a C > N cannot divide N (see
    :func:`search`), so the cut is ⌈(top - N)/ux⌉.  Ints, or int64 arrays
    with np.maximum as ``maximum``."""
    return maximum(lo, -((N - top) // ux))


def triangle_points(dec: ConeDecomposition) -> list[Vec2]:
    """Lattice points of the triangle K₋ ∩ (u_point − K₊), lexicographic:
    its columns x = :func:`_x_lo`..ux, each from :func:`_column_range`."""
    return [(x, y) for x in range(_x_lo(dec), dec.u_point[0] + 1)
            for lo, hi in [_column_range(dec, x)] for y in range(lo, hi + 1)]


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


def _survivors(base, N, pieces, iux) -> list[int]:
    """The indices i, in a block of column pieces, of the pairs that pass
    the one-modulo test of :func:`search`.  pieces[j] pairs lie in the
    block's column j, whose test number is N[j]; the block's i-th pair, if
    in piece j, has C = base[j] - i*ux, and iux[i] = -i*ux.  In search,
    N[j] = h2*x*(ux - x): a winning pair holds the point lattice's (0, h2),
    so its C divides N; and as a divisor of N > 0 is at most N, the pieces
    hold only the pairs with C <= N (:func:`_cut`).

    base is int64; N and iux are float64 or int64, as :func:`_batch_dtype`
    gates them.  In int64 a pair survives when N % C == 0.  In float64 it
    survives when q = N/C is an integer, which is the same test: under the
    float64 gate N, C, base and i*ux are integers below 2**53, held exactly
    (base[j] = C + i*ux <= ux*uy + _BATCH_MAX*ux for any pair i of piece
    j).  If C divides N, q is that integer exactly.  If not, N/C is at
    least 1/C from every integer, and the division errs by at most
    (N/C)*2**-53 < 1/C, so q is no integer either.
    """
    # array methods, not np.repeat & co.: their dispatch costs 1-3 us a call
    C = base.astype(N.dtype).repeat(pieces)
    C += iux[:C.size]
    N = N.repeat(pieces)
    if N.dtype == np.float64:
        q = N / C
        return (np.rint(q) == q).nonzero()[0].tolist()
    return (N % C == 0).nonzero()[0].tolist()


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
    _BATCH_FLOAT_BOUND; N = h2*x*(ux - x) <= G*(ux*ux // 4) and base_j = C +
    i*ux <= ux*uy + _BATCH_MAX*ux.
    """
    ux, uy = dec.u_point
    vy, cy = dec.v[1], dec.c[1]
    if max(G * ux, uy, vy, cy) * ux >= _BATCH_INT64_BOUND:
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
    deterministic.  The pairs come as one ordered stream of (k*a, q, k), q
    the direction of b and k counting from 1, and one loop checks each.

    Each pair first meets an O(1) divisibility test.  Let G be the index in
    Z² of the lattice L_P the points generate.  If (a, b) generates every
    point then L_P ⊆ L(a, b), and the index |cross(a, b)| of L(a, b)
    divides G.  A pair failing that cannot win, so it is rejected without
    the full check over every point; it still counts in ``pairs_examined``.
    The loop runs it on cross(k*a, q)/(g1*g2), for g1 and g2 the gcds of
    k*a and q, and divides by them into a and b only for a pair that passes.
    Under ``collect_rejections`` every pair gets the full check, so each
    rejection is recorded with its first failing point and coefficients.

    A cheaper necessary test, one modulo per pair, runs in front of it.
    In column x the pair from k*a = (x, y) has D = cross(a, b) = C/(g1*g2),
    with C = cross(k*a, u_point) > 0, g1 = gcd(x, y) and g2 = gcd(dx, dy)
    for (dx, dy) = u_point - k*a.  A winning pair generates (0, h2), the
    second row of the points' Hermite basis ((h1, s), (0, h2)), so its
    coefficient on b, cross(a, (0, h2))/D = h2*x*g2/C, is an integer; as
    g2 | dx, C | N = h2*x*dx, fixed for the column, and a pair with
    N % C != 0 cannot win (as h2 | G, a sharper test than C | G*x*dx).
    A divisor of N > 0 is at most N, so only the pairs with C <= N are
    tested (:func:`_cut`); the others still count.  Where dx == 0, N = 0
    cuts nothing and every pair goes on to the index test.

    With pruning on and a pair bound up to MAX_CANDIDATE_PAIRS, the columns
    x < ux after the first _BATCH_MIN_PAIRS pairs run that test as numpy
    arrays.  They are taken in chunks of up to _BATCH_MAX columns; each
    chunk's column bounds, cuts and prefix sums of its pairs and of its
    tested pairs come from a fixed number of array operations.  The t-th
    tested pair lies in the first column j with tested_j > t, at y = t +
    hi_j + 1 - tested_j, so C = P_j - t*ux for P_j = x_j*uy - (y - t)*ux.
    Each block of _BATCH_MAX of them is one call of :func:`_survivors`, on
    base = P[j0:j1] - first*ux for its first pair t = ``first``, in the
    arithmetic :func:`_batch_dtype` picks.  A survivor's column comes from
    bisecting the prefix sums as a Python list; it meets the index test
    there, and only a pair that passes joins the stream in order, numbered
    by the prefix sum of all pairs, to be built by the one loop.
    int64 gate: as 0 <= y <= uy, every x*uy, y*ux <= ux*uy and N <=
    G*ux**2/4, as h2 | G; the column bounds' within uy, vy*ux and cy*ux
    (vy, cy >= 0 in the cone), the cuts' within x*uy + N and a chunk's
    prefix sums within the pair bound.  With all of these below
    _BATCH_INT64_BOUND = 2**62 nothing overflows: ux < 2**31 and
    tested_j <= MAX_CANDIDATE_PAIRS < 2**28, so in a column with tested
    pairs (0 <= hi_j <= uy; the others are repeated zero times) |P_j| <
    2**62 + 2**59 and 0 < base_j <= ux*uy + _BATCH_MAX*ux < 2**63.
    float64 gate: with N <= G*(ux*ux // 4) and ux*(uy + _BATCH_MAX) also
    below _BATCH_FLOAT_BOUND = 2**53, every N, C, base_j and i*ux is an
    integer that float64 holds exactly, and the quotient test N/C is exact
    (proof in :func:`_survivors`): it runs in float64, at about half the
    cost of the int64 modulo.  Above the int64 gate, as in the dx == 0
    column and the b sweep, the Python walk runs, at any magnitude.  Either
    way ``pairs_examined`` and every record are the same.

    The walk takes the columns from _x_lo up, each from :func:`_column_range`;
    with a batch dtype, the first x < ux it reaches after _BATCH_MIN_PAIRS
    pairs hands x..ux-1 to the batch, and it goes on at ux.  The sweep's
    v_point - k'*a stays in the cone while k'*ay <= py and k'*cross(a, c) <=
    cross(v_point, c); as a = u is in the cone, neither factor is negative
    and one is positive, so the sweep has S = 1 + min(⌊py/ay⌋,
    ⌊cross(v_point, c)/cross(a, c)⌋) steps, over the positive denominators.
    S <= 1 + max(v_point), as _pair_bound counts: if ay >= 1, k' <= py; else
    a = (1, 0) and k' <= px - py*cx/cy <= px.

    When :func:`_pair_bound` exceeds MAX_CANDIDATE_PAIRS but the bound at
    the other canonization index, that of ``canonicalize(cd, 2)``, is within
    it, the search runs on that diagram instead: its points are those of
    the other index's canonical diagram, so the verdict, ``pairs_examined``,
    every record and the certificate are the other index's.  When both
    bounds exceed it, it raises ValueError once PROBE_PAIRS pairs go by
    without a winner, or once the walk passes PROBE_PAIRS + 1 columns, which
    may hold none (a full search has ux - _x_lo + 1 <= bound columns); under
    ``collect_rejections`` a pruned probe runs first, so a refusal costs no
    record of each rejected pair.
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
    points = cd.points
    (h1, _), (_, h2) = _hermite2(points)
    G = h1 * h2  # the point lattice's index: det of its Hermite basis
    rejections: list[PairRejection] | None = [] if collect_rejections else None
    prune = rejections is None
    ux, uy = dec.u_point
    dtype = _batch_dtype(dec, G) if prune and bound <= MAX_CANDIDATE_PAIRS else None
    pairs = 0  # the pairs counted so far, after each column, chunk and sweep step

    def refusal(pairs_in: str = "") -> ValueError:
        from .matrixio import _TooManyDigits, base10_str  # on refusal only: it imports argparse
        try:
            count = base10_str(bound)
        except _TooManyDigits as over:
            count = f"a {over.digits}-digit number of"
        return ValueError(f"the triangle search would examine up to {count} candidate pairs, above"
                          f" the limit of {MAX_CANDIDATE_PAIRS}, and none of the {pairs_in or f'first {limit}'} wins")

    def walk(x0: int):
        # columns x0, x0 + 1, ..., ux in Python ints, at any magnitude, up to the
        # limit; with a batch dtype, the first column x < ux reached after
        # _BATCH_MIN_PAIRS pairs hands the columns x..ux-1 to the batch
        nonlocal pairs
        for x in range(x0, ux + 1):
            if x - x0 > limit:  # only in a probe: a full search has ux - _x_lo < bound
                raise refusal(f"{pairs} pairs in its first {limit + 1} columns")
            if dtype is not None and x < ux and pairs >= _BATCH_MIN_PAIRS:
                yield from batch(x)
                yield from walk(ux)
                return
            lo, hi = _column_range(dec, x)
            if x == ux:
                # u_point tops its column; its pairs come from the b sweep
                if hi != uy:
                    raise RuntimeError("internal error: u_point is not its column's top")
                hi -= 1
            elif lo > hi:
                continue  # an empty column
            over = hi - lo + 1 > limit - pairs  # walk no further than the limit
            hi = min(hi, lo + limit - pairs - 1)
            top = x * uy
            # 0 sends every pair on, uncut: under collect_rejections, and where dx == 0
            N = h2 * x * (ux - x) if prune else 0
            cut = _cut(lo, top, N, ux) if N else lo
            # C = cross(k*a, u_point) = x*uy - y*ux for y from the cut to hi
            for C in range(top - cut * ux, top - hi * ux - 1, -ux):
                if N % C == 0:
                    y = (top - C) // ux
                    yield (x, y), (ux - x, uy - y), pairs + y - lo + 1
            pairs += max(0, hi - lo + 1)
            if over:
                raise refusal()

    def batch(x0: int):
        # the columns x0..ux-1 in dtype, under the bound, so never past the limit
        nonlocal pairs
        iux = np.arange(0, -ux * _BATCH_MAX, -ux, dtype=dtype)
        for start in range(x0, ux, _BATCH_MAX):
            xs = np.arange(start, min(start + _BATCH_MAX, ux), dtype=np.int64)
            lo, hi = _column_range(dec, xs, np.maximum, np.minimum)
            N, stop, top = h2 * xs * (ux - xs), hi + 1, xs * uy  # N > 0: 0 < x < ux here
            ends = np.maximum(stop - lo, 0).cumsum()  # every pair, cut or not
            counts = np.maximum(stop - _cut(lo, top, N, ux, np.maximum), 0)
            tested = counts.cumsum()
            # the chunk's t-th tested pair, in column j, has y = offsets_j + t (hi for t =
            # tested_j - 1), C = P_j - t*ux, and is its (untested_j + t + 1)-th pair
            offsets = stop - tested
            P, untested = top - offsets * ux, (ends - tested).tolist()
            tested, offsets, N = tested.tolist(), offsets.tolist(), N.astype(dtype)
            for first in range(0, tested[-1], _BATCH_MAX):
                last = min(first + _BATCH_MAX, tested[-1])
                # the columns holding the tested pairs first..last-1, the end pieces trimmed
                j0, j1 = bisect_right(tested, first), bisect_right(tested, last - 1) + 1
                pieces = counts[j0:j1].copy()
                pieces[0] = tested[j0] - first
                pieces[-1] -= tested[j1 - 1] - last
                for t in _survivors(P[j0:j1] - first * ux, N[j0:j1], pieces, iux):
                    t += first
                    j = bisect_right(tested, t, j0, j1)
                    x, y = start + j, offsets[j] + t
                    if G % ((x * uy - y * ux) // (gcd(x, y) * gcd(ux - x, uy - y))) == 0:
                        yield (x, y), (ux - x, uy - y), pairs + untested[j] + t + 1
            pairs += int(ends[-1])

    def sweep():
        # b's direction v_point - k2*a for k2 = 0, 1, ..., S - 1, the steps in the cone
        nonlocal pairs
        (ax, ay), (px, py), (cx, cy) = dec.u, dec.v_point, dec.c
        S = 1 + min(n // d for n, d in ((py, ay), (px * cy - py * cx, ax * cy - ay * cx)) if d > 0)
        if S > 1 + max(px, py):  # the sweep's share of _pair_bound
            raise RuntimeError("internal error: the b sweep overran its bound")
        for k2 in range(S):
            pairs += 1
            if pairs > limit:
                raise refusal()
            yield dec.u, (px - k2 * ax, py - k2 * ay), pairs

    for (px, py), (qx, qy), k in chain(walk(_x_lo(dec)), sweep()):
        g1, g2 = gcd(px, py), gcd(qx, qy)
        if prune and G % ((px * qy - py * qx) // (g1 * g2)):
            continue  # the index test: cross(a, b) does not divide G
        a, b = (px // g1, py // g1), (qx // g2, qy // g2)  # the pair, primitive
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


def verify_factorization(A, F1, F2) -> bool:
    """True iff F1 (n x 2) times F2 (2 x m) reproduces A exactly with
    nonnegative integer entries throughout.  Never raises.

    Each matrix is validated once and one test, on its array if it has one,
    refuses a negative factor entry.  When A has at least _INT64_MIN_ENTRIES
    entries, linalg's size cut, each factor is cast by linalg._int64_rows;
    if both casts succeed, every factor entry is in [0, 2**20], so each
    product entry is at most 2**41 and the int64 product is exact; it is
    compared with a signed-integer A as it is, with anything else as lists.
    Otherwise the product runs on Python ints, faster on a small A.
    """
    try:
        (rows, a0), (f1, a1), (f2, a2) = (_int_rows(X) for X in (A, F1, F2))
    except (ValueError, TypeError):
        return False
    if (len(f1), len(f1[0]), len(f2), len(f2[0])) != (len(rows), 2, 2, len(rows[0])):
        return False
    if any((min(map(min, f)) if a is None else a.min()) < 0 for f, a in ((f1, a1), (f2, a2))):
        return False
    if len(rows) * len(rows[0]) >= linalg._INT64_MIN_ENTRIES:
        F, G = _int64_rows(f1, a1), _int64_rows(f2, a2)
        if F is not None and G is not None:
            return (F @ G).tolist() == list(rows) if a0 is None or a0.dtype == object else np.array_equal(F @ G, a0)
    return [[a * x + b * y for x, y in zip(*f2)] for a, b in f1] == list(rows)


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
    A is type-checked once, by as_int_matrix; the layers get its int64 copy
    (the object array when an entry is outside int64), which they read as
    it is inside linalg's int64 gate and as rows of Python ints outside it.
    """
    if type(r) is not int or r not in (1, 2):
        r = _canon_index(r)  # a plain int 1 or 2 needs no conversion
    A = as_int_matrix(A)
    try:
        A = A.astype(np.int64)
    except OverflowError:
        pass  # the object array: every layer reads Python ints at any size
    if A.min() < 0:
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

