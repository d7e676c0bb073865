import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import run_python
from nnirank2.instances import (
    SIGMA_MAX,
    _dgauss1_cdf,
    _sampler,
    dgauss2,
    gen_bt,
    gen_near_t,
    gen_product,
)
from nnirank2.linalg import _extremes, rank_exact
from nnirank2.matrixio import format_matrix


def test_dgauss2_moments():
    rng = np.random.default_rng(42)
    n = 100_000
    xs = np.empty(n)
    ys = np.empty(n)
    for i in range(n):
        x, y = dgauss2(10.0, (0, 0), rng)
        xs[i], ys[i] = x, y
    for arr in (xs, ys):
        assert abs(arr.mean()) < 0.2
        assert abs(arr.var() - 100.0) < 10.0


def test_dgauss2_concentration():
    rng = np.random.default_rng(1)
    for _ in range(200):
        assert dgauss2(0.01, (5, 5), rng) == (5, 5)


def test_dgauss2_integrality():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x, y = dgauss2(3.0, (0, 0), rng)
        assert isinstance(x, int) and isinstance(y, int)


@pytest.mark.parametrize("sigma", [0.5, 3, 25, 1000, SIGMA_MAX])
def test_sampler_index_matches_searchsorted(sigma):
    # u at every CDF value below 1 and just below it, 0.0 and 20k random u:
    # the bisect draw is the searchsorted index minus the radius
    table = _dgauss1_cdf(float(sigma))
    cdf = np.asarray(table)
    radius = math.ceil(12 * sigma)
    assert len(cdf) == 2 * radius + 1 and cdf[-1] == 1.0
    below = cdf[cdf < 1.0]
    us = np.concatenate([below, np.nextafter(below, 0.0), [0.0], np.random.default_rng(5).random(20_000)])
    for chunk in np.array_split(us, max(1, len(us) // 100_000)):
        draw = _sampler(table, SimpleNamespace(random=iter(chunk.tolist()).__next__))
        got = np.fromiter(iter(draw, None), dtype=np.int64, count=len(chunk))
        assert (got == np.searchsorted(cdf, chunk, side="right") - radius).all()


def test_two_extremes_decide_the_dual_cone():
    # q.c >= 0 for every column c exactly when q.lo >= 0 and q.hi >= 0 for
    # C's angular extremes: axis columns, duplicates, all-parallel columns
    col_sets = [
        [(1, 0), (0, 1)],
        [(0, 3), (0, 1)],
        [(2, 0)],
        [(2, 3), (2, 3), (1, 1)],
        [(1, 2), (2, 4), (3, 6)],
        [(1, 0), (3, 1), (1, 1), (0, 2), (3, 1)],
        [(5, 1), (4, 1), (1, 3)],
    ]
    rng = np.random.default_rng(3)
    while len(col_sets) < 200:
        cols = [tuple(int(v) for v in rng.integers(0, 4, 2)) for _ in range(int(rng.integers(1, 6)))]
        if (0, 0) not in cols:
            col_sets.append(cols)
    grid = list(itertools.product(range(-7, 8), repeat=2))
    for cols in col_sets:
        lo, hi = _extremes(cols)
        # candidates on either boundary ray of the dual cone and past them
        rays = [(k * a, k * b) for x, y in (lo, hi) for a, b in ((-y, x), (y, -x)) for k in (1, 3)]
        for q in grid + rays:
            every = all(q[0] * c[0] + q[1] * c[1] >= 0 for c in cols)
            two = q[0] * lo[0] + q[1] * lo[1] >= 0 and q[0] * hi[0] + q[1] * hi[1] >= 0
            assert every == two, (cols, q)


def test_cdf_cache_is_bounded():
    bound = _dgauss1_cdf.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 3):
        dgauss2(1.5 + i / 100, (0, 0), np.random.default_rng(i))
    assert _dgauss1_cdf.cache_info().currsize <= bound


@pytest.mark.parametrize("sample", [lambda s, r: dgauss2(s, (0, 0), r), lambda s, r: dgauss2(s, (5, 5), r)])
def test_samplers_reject_invalid_sigma(sample):
    # sigma = 0 drew (4, 4) every time from a NaN table, -3 drew from a
    # 3-point table and 1e12 asked for a 175 TiB table
    rng = np.random.default_rng(0)
    for s in (0, 0.0, -3.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="sigma must be positive"):
            sample(s, rng)
    for s in (SIGMA_MAX * 1.5, 1e12):
        with pytest.raises(ValueError, match=f"sigma must be at most {SIGMA_MAX}"):
            sample(s, rng)
    sample(SIGMA_MAX, rng)  # the cap itself is accepted


def test_gen_product_properties():
    for i in range(60):
        B, C, A = gen_product(3, 4, 3, seed=[1, i])
        assert B.shape == (3, 2) and C.shape == (2, 4)
        assert (A == B @ C).all()
        assert (A >= 0).all()
        assert rank_exact(A) == 2
        # acceptance condition restated: every row of B pairs nonnegatively
        # with every column of C
        for r in range(3):
            for c in range(4):
                assert B[r, 0] * C[0, c] + B[r, 1] * C[1, c] >= 0


# SHA-256 of generator_record(); the sampler and the B-row test may get
# faster but must draw the same instances from the same rng states
GENERATOR_DIGEST = "6879b0d3ec0b93f9ce3fa8afc36263aa3a439204315be88d86939522f1bc2606"


def generator_record() -> str:
    """B, C and A of gen_product over a shared rng (as the benchmark draws
    them), then gen_near_t, then the rng's final state: values, dtypes,
    entry types and rng consumption."""
    rng = np.random.default_rng(1919)
    shapes = ((2, 2), (2, 40), (40, 2), (10, 10), (100, 300))
    calls = [(n, m, s) for s in (0.5, 3, 25, 1000) for n, m in shapes] + [(300, 300, 25)]
    mats = [M for n, m, s in calls for M in gen_product(n, m, s, rng=rng)]
    mats += [gen_near_t(t, rng=rng) for t in (3, 50, 10**19)]
    return repr((
        [(M.dtype.str, M.shape, sorted({type(x).__name__ for x in M.flat}), M.tolist()) for M in mats],
        rng.bit_generator.state,
    ))


def test_generators_are_pinned():
    assert hashlib.sha256(generator_record().encode()).hexdigest() == GENERATOR_DIGEST


def test_gen_product_validation():
    with pytest.raises(ValueError):
        gen_product(1, 3, 3.0)


def test_gen_product_rejects_sigma_not_positive():
    # sigma = 0 made the sampler's CDF NaN and gen_product loop forever
    proc = run_python(
        "-c",
        "from nnirank2.instances import gen_product\n"
        "for s in (0, 0.0, -3.0, float('nan'), float('inf')):\n"
        "    try:\n"
        "        gen_product(3, 3, s, seed=0)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    assert proc.stdout.splitlines() == ["sigma must be positive"] * 5


def test_gen_product_rejects_sigma_below_one_half():
    # 0 < sigma < 1/2 draws almost only the origin: gen_product(3, 3, 0.01)
    # never returned
    proc = run_python(
        "-c",
        "from nnirank2.instances import gen_product\n"
        "for s in (0.01, 0.2, 0.49):\n"
        "    try:\n"
        "        gen_product(3, 3, s, seed=0)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
        "print(gen_product(3, 3, 0.5, seed=0)[2].shape)\n"
    )
    assert proc.stdout.splitlines() == ["sigma must be at least 1/2"] * 3 + ["(3, 3)"]


def test_gen_product_rejects_sigma_above_the_cap():
    # the sampler's table has 24 sigma + 1 entries: sigma = 1e12 tried to
    # allocate 175 TiB
    for s in (SIGMA_MAX * 1.5, 1e12):
        with pytest.raises(ValueError, match=f"sigma must be at most {SIGMA_MAX}"):
            gen_product(3, 3, s, seed=0)


def test_gen_near_t_beyond_int64():
    # a center beyond int64 made the sampler's table float, every point the
    # same, and gen_near_t resample forever
    proc = run_python(
        "-c",
        "from nnirank2.instances import gen_near_t\n"
        "A = gen_near_t(10**19, seed=1)\n"
        "print(A[2].tolist() == [2 * x - y for x, y in zip(A[0], A[1])])\n"
        "print(all(abs(x - 10**19) <= 30 for x in A[:2].flat))\n",
    )
    assert proc.stdout.splitlines() == ["True", "True"]


def test_gen_bt():
    assert gen_bt(4).tolist() == [[5, 4, 3], [4, 4, 4], [3, 4, 5]]
    assert gen_bt(1).tolist() == [[2, 1, 0], [1, 1, 1], [0, 1, 2]]
    assert set(int(x) for x in gen_bt(100).flat) == {99, 100, 101}
    with pytest.raises(ValueError):
        gen_bt(0)


def test_gen_near_t_properties():
    for i in range(40):
        A = gen_near_t(50, seed=[2, i])
        assert (A[2, :] == 2 * A[0, :] - A[1, :]).all()
        assert (A >= 0).all()
        assert rank_exact(A) == 2
        assert all(abs(int(x) - 50) <= 15 for x in A[:2, :].flat)
    with pytest.raises(ValueError):
        gen_near_t(2)


def test_seeded_determinism():
    _, _, a = gen_product(3, 3, 3.0, seed=7)
    _, _, b = gen_product(3, 3, 3.0, seed=7)
    assert format_matrix(a) == format_matrix(b)
    c = gen_near_t(30, seed=9)
    d = gen_near_t(30, seed=9)
    assert format_matrix(c) == format_matrix(d)


def test_sigma_monotonicity():
    medians = []
    for sigma in (3, 6, 10, 25):
        vals = []
        for i in range(200):
            _, _, A = gen_product(3, 3, sigma, seed=[3, int(sigma), i])
            vals.append(max(int(x) for x in A.flat))
        vals.sort()
        medians.append(vals[100])
    assert medians == sorted(medians)
    assert medians[0] < medians[-1]
