"""Seeded generators for the three test-instance families.

* ``product``: A = B C with C columns drawn from a discrete Gaussian on
  the nonnegative quadrant and B rows drawn from the dual cone of the
  columns; A is nonnegative integer of rank 2 by construction.
* ``bt``: the deterministic 3 x 3 family with entries {t-1, t, t+1} whose
  nonnegative integer rank is 3 for every t >= 1.
* ``near_t``: 3 x 3 matrices with all entries near t, built by evaluating
  three sampled points of the cone spanned by (1,0) and (1,2) at the
  linear forms x, y and 2x - y.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import Callable

import numpy as np

from .linalg import Vec2, _extremes, _pivot, as_int_matrix


# the largest sigma the samplers accept; the suites use at most 25
SIGMA_MAX = 100_000


def seeded_rng(seed) -> np.random.Generator:
    """numpy's Generator for ``seed``: None (fresh entropy), an int >= 0,
    or a sequence of them (entropy for numpy's SeedSequence)."""
    try:
        return np.random.default_rng(seed)
    except ValueError:
        raise ValueError("seed must be nonnegative") from None


# the table1/table2 grid draws from 4 sigmas; at the cap one table holds
# 2.4 M floats (19.2 MB), so the cache keeps at most about 77 MB
@functools.lru_cache(maxsize=4)
def _dgauss1_cdf(sigma: float) -> memoryview:
    """CDF of the offsets -radius..radius, read by bisect without a copy."""
    if not (sigma > 0 and math.isfinite(sigma)):
        # at sigma = 0 the CDF would be NaN and every draw the same
        raise ValueError("sigma must be positive")
    if sigma > SIGMA_MAX:
        # the table holds 24 sigma + 1 entries: terabytes at sigma = 1e12
        raise ValueError(f"sigma must be at most {SIGMA_MAX}")
    # truncated at +- 12 sigma; mass beyond is < exp(-72).  Offsets keep
    # the table small integers for any center.
    radius = max(1, math.ceil(12 * sigma))
    ks = np.arange(-radius, radius + 1)
    cdf = np.cumsum(np.exp(-(ks**2) / (2.0 * sigma * sigma)))
    cdf /= cdf[-1]
    return memoryview(cdf).toreadonly()


def _sampler(cdf: memoryview, rng: np.random.Generator) -> Callable[[], int]:
    """One draw of the offset k with weight exp(-k^2 / 2 sigma^2) per call,
    from the table ``_dgauss1_cdf(sigma)``.

    The CDF is nondecreasing and ends at 1.0 while rng.random() < 1, so
    bisect_right gives the index np.searchsorted(cdf, u, side="right")
    gives, and the offset is index - radius.
    """
    radius = len(cdf) // 2
    random = rng.random
    return lambda: bisect_right(cdf, random()) - radius


def dgauss2(sigma: float, center: Vec2, rng: np.random.Generator) -> Vec2:
    """One Z^2 sample with weight exp(-|x - center|^2 / (2 sigma^2)).

    The density is separable, so the two coordinates are independent 1-D
    discrete Gaussians.
    """
    draw = _sampler(_dgauss1_cdf(float(sigma)), rng)
    return (int(center[0]) + draw(), int(center[1]) + draw())


def gen_product(
    rows: int,
    cols: int,
    sigma: float,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random product instance (B, C, A) with A = B @ C of rank 2.

    Columns of C are nonzero quadrant samples; rows of B are nonzero
    samples lying in the dual cone of the columns (boundary allowed).  The
    whole instance is resampled until both factors have rank 2.

    A B row q is tested against C's two angular extremes lo and hi only:
    the columns lie in the open half-plane x + y > 0, so each is a
    nonnegative combination of lo and hi, and q.c >= 0 for every column
    exactly when q.lo >= 0 and q.hi >= 0.  That accepts the candidates a
    test against every column accepts, and the draws are _sampler's, so a
    seed or an rng state gives the same instance and consumes the same
    draws either way.
    """
    if rows < 2 or cols < 2:
        raise ValueError("product instances need rows >= 2 and cols >= 2")
    cdf = _dgauss1_cdf(float(sigma))
    if sigma < 0.5:
        # nearly every draw is then the origin, which is resampled: a 3 x 3
        # takes seconds at sigma = 0.2 and never returns at 0.01
        raise ValueError("sigma must be at least 1/2")
    draw = _sampler(cdf, rng if rng is not None else seeded_rng(seed))
    while True:
        ccols: list[Vec2] = []
        while len(ccols) < cols:
            p = (draw(), draw())
            if p != (0, 0) and p[0] >= 0 and p[1] >= 0:
                ccols.append(p)
        (lx, ly), (hx, hy) = _extremes(ccols)
        brows: list[Vec2] = []
        while len(brows) < rows:
            q = (draw(), draw())
            if q != (0, 0) and q[0] * lx + q[1] * ly >= 0 and q[0] * hx + q[1] * hy >= 0:
                brows.append(q)
        if _pivot(ccols) is not None and _pivot(brows) is not None:
            break
    B = as_int_matrix([[q[0], q[1]] for q in brows])
    C = as_int_matrix([[c[0] for c in ccols], [c[1] for c in ccols]])
    return B, C, B @ C


def gen_bt(t: int) -> np.ndarray:
    """The 3 x 3 matrix with rows (t+1, t, t-1), (t, t, t), (t-1, t, t+1)."""
    if t < 1:
        raise ValueError("bt instances need t >= 1")
    return as_int_matrix([[t + 1, t, t - 1], [t, t, t], [t - 1, t, t + 1]])


def gen_near_t(
    t: int,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """3 x 3 instance with entries concentrated near t.

    Three points are sampled with sigma = 2 around (t, t), rejected unless
    they lie in the cone 0 <= y <= 2x, and evaluated at the forms x, y and
    2x - y; the rows therefore satisfy row3 = 2*row1 - row2 exactly and all
    entries are nonnegative.  Resamples until the matrix has rank 2.
    """
    if t < 3:
        raise ValueError("near_t instances need t >= 3")
    if rng is None:
        rng = seeded_rng(seed)
    while True:
        pts: list[Vec2] = []
        while len(pts) < 3:
            x, y = dgauss2(2.0, (t, t), rng)
            if 0 <= y <= 2 * x:
                pts.append((x, y))
        if _pivot(pts) is not None:
            break
    return as_int_matrix(
        [
            [p[0] for p in pts],
            [p[1] for p in pts],
            [2 * p[0] - p[1] for p in pts],
        ]
    )

