import numpy as np
import pytest

from conftest import run_python
from nnirank2.instances import SIGMA_MAX, dgauss2, gen_bt, gen_near_t, gen_product
from nnirank2.linalg import rank_exact
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
