"""Seeded instance sets for the three benchmark workloads.

Each workload is a fixed list of instances built from ``--seed`` with the
generators of ``nnirank2.instances``.  The timed loop replays the list in
whole passes, so every instance contributes the same number of samples and
the percentiles do not depend on where a run happened to stop.

The lists are stratified: the seed draws matrix entries (and jitters t
inside fixed strata), while the mix of sizes, shapes and sigmas is the same
for every seed.  That keeps the run-to-run spread of the percentiles down
to timing noise rather than a different instance mix each run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nnirank2.instances import gen_bt, gen_near_t, gen_product


@dataclass(frozen=True)
class Instance:
    label: str  # e.g. "product 10x10 s=25", "bt t=317"
    kind: str  # "product" | "bt" | "near_t"
    A: np.ndarray


# table1's small cells: fixed per-call cost dominates.  40 instances per
# cell keep the seed from moving the share of slow not_rank2 searches.
SMALL_NS = (3, 5, 10)
SMALL_SIGMAS = (3, 6, 10, 25)
SMALL_PER_CELL = 40

# n, m in [100, 300]: square, tall (n >> m) and wide (n << m); sigma
# alternates 3, 10 along the list.  An odd count puts the median inside
# one instance's samples instead of between two shapes.
LARGE_SHAPES = (
    (100, 100), (150, 150), (200, 200), (250, 250), (300, 300),
    (200, 100), (250, 100), (300, 100), (300, 150), (300, 200),
    (100, 200), (100, 250), (100, 300), (150, 300), (200, 300),
)
LARGE_SIGMAS = (3, 10)

# bt(t) has about t^2/4 triangle points, so t in [200, 400) gives 10^4 to
# 4*10^4 points; bt is deterministic, so its t grid is fixed.  The seed
# draws the near_t instances, whose early-exit rank2 wins make solve times
# bimodal.  Keeping their t under 250, a quarter of the way up the bt grid,
# keeps them all below p50, so p50 and p90 fall on the same bt instances
# for every seed.
TRIANGLE_BT = tuple(200 + (200 * i + 100) // 24 for i in range(24))
TRIANGLE_NEAR_T = (200, 250)
NEAR_T_COUNT = 8


def _strata(lo: int, hi: int, count: int, rng: np.random.Generator) -> list[int]:
    """One integer drawn uniformly from each of ``count`` equal slices of [lo, hi)."""
    width = (hi - lo) / count
    return [int(lo + width * (i + rng.random())) for i in range(count)]


def product_small(rng: np.random.Generator) -> list[Instance]:
    out = []
    for _ in range(SMALL_PER_CELL):
        for n in SMALL_NS:
            for sigma in SMALL_SIGMAS:
                _, _, A = gen_product(n, n, sigma, rng=rng)
                out.append(Instance(f"product {n}x{n} s={sigma}", "product", A))
    return out


def product_large(rng: np.random.Generator) -> list[Instance]:
    out = []
    for i, (n, m) in enumerate(LARGE_SHAPES):
        sigma = LARGE_SIGMAS[i % len(LARGE_SIGMAS)]
        _, _, A = gen_product(n, m, sigma, rng=rng)
        out.append(Instance(f"product {n}x{m} s={sigma}", "product", A))
    return out


def triangle_sweep(rng: np.random.Generator) -> list[Instance]:
    out = [Instance(f"bt t={t}", "bt", gen_bt(t)) for t in TRIANGLE_BT]
    for t in _strata(*TRIANGLE_NEAR_T, NEAR_T_COUNT, rng):
        out.append(Instance(f"near_t t={t}", "near_t", gen_near_t(t, rng=rng)))
    return out


WORKLOADS = {
    "product_small": product_small,
    "product_large": product_large,
    "triangle_sweep": triangle_sweep,
}

# verdicts cross-checked against oracle.brute_force
ORACLE_WORKLOADS = frozenset({"product_small"})
# each instance also runs reduce_to_3x3(A) and solve(C); triangle_sweep
# runs solve only, since its cost is the search alone
REDUCE_WORKLOADS = frozenset({"product_small", "product_large"})


def generate(name: str, seed: int) -> list[Instance]:
    """The workload's instances in pass order (a seeded shuffle)."""
    rng = np.random.default_rng(seed)
    insts = WORKLOADS[name](rng)
    return [insts[i] for i in rng.permutation(len(insts))]
