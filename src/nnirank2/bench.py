"""Benchmark suites over the instance generators, with CSV output.

Per-instance wall time is measured around the solve call only (generation
and parsing excluded).  The NNIRANK2_THREADS environment variable caps
parallelism; instances carry their own seeds, so per-instance results and
timings do not depend on scheduling.
"""

from __future__ import annotations

import csv
import io
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .instances import gen_bt, gen_near_t, gen_product
from .reduction import reduce_to_3x3
from .solver import RANK2, solve

TABLE1_NS = (3, 5, 10, 50, 100)
TABLE1_SIGMAS = (3, 6, 10, 25)
TABLE2_CELLS = ((10, 3), (10, 6), (10, 10), (10, 25), (300, 3))
CSV_COLUMNS = (
    "n",
    "m",
    "sigma_or_t",
    "count",
    "avg_largest_entry",
    "min_seconds",
    "avg_seconds",
    "max_seconds",
    "rank2_count",
)
TABLE2_EXTRA = ("reduce_seconds", "reduced_factor_seconds")


@dataclass
class BenchRecord:
    n: int
    m: int
    sigma_or_t: float
    count: int
    avg_largest_entry: float
    min_seconds: float
    avg_seconds: float
    max_seconds: float
    rank2_count: int
    reduce_seconds: float | None = None
    reduced_factor_seconds: float | None = None

    def row(self, with_reduce: bool) -> list:
        out = [
            self.n,
            self.m,
            self.sigma_or_t,
            self.count,
            self.avg_largest_entry,
            self.min_seconds,
            self.avg_seconds,
            self.max_seconds,
            self.rank2_count,
        ]
        if with_reduce:
            out += [self.reduce_seconds, self.reduced_factor_seconds]
        return out


def _threads() -> int:
    try:
        return max(1, int(os.environ.get("NNIRANK2_THREADS", "1")))
    except ValueError:
        return 1


def _map(fn, tasks):
    workers = _threads()
    if workers == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _timed(fn, A):
    t0 = time.perf_counter()
    out = fn(A)
    return out, time.perf_counter() - t0


def _timed_solve(A):
    out, dt = _timed(solve, A)
    return max(int(x) for x in A.flat), dt, out.verdict == RANK2


def _solve_product_instance(task):
    n, sigma, seed = task
    return _timed_solve(gen_product(n, n, sigma, seed=seed)[2])


def _solve_reduce_instance(task):
    n, sigma, seed = task
    _, _, A = gen_product(n, n, sigma, seed=seed)
    out, t_direct = _timed(solve, A)
    (C, _), t_reduce = _timed(reduce_to_3x3, A)
    out_c, t_factor = _timed(solve, C)
    if (out.verdict == RANK2) != (out_c.verdict == RANK2):
        raise RuntimeError("internal error: the reduced instance has another verdict")
    return max(int(x) for x in A.flat), t_direct, t_reduce, t_factor, out.verdict == RANK2


def _solve_bt_instance(t):
    return _timed_solve(gen_bt(t))


def _solve_near_t_instance(task):
    t, seed = task
    return (t, *_timed_solve(gen_near_t(t, seed=seed)))


def _single(t, largest, dt, is_r2) -> BenchRecord:
    """Record of one 3 x 3 instance."""
    return BenchRecord(
        n=3,
        m=3,
        sigma_or_t=t,
        count=1,
        avg_largest_entry=largest,
        min_seconds=dt,
        avg_seconds=dt,
        max_seconds=dt,
        rank2_count=1 if is_r2 else 0,
    )


def _aggregate(n, m, sigma_or_t, results) -> BenchRecord:
    if not results:
        raise ValueError("count must be at least 1")
    larges = [r[0] for r in results]
    times = [r[1] for r in results]
    return BenchRecord(
        n=n,
        m=m,
        sigma_or_t=sigma_or_t,
        count=len(results),
        avg_largest_entry=sum(larges) / len(larges),
        min_seconds=min(times),
        avg_seconds=sum(times) / len(times),
        max_seconds=max(times),
        rank2_count=sum(1 for r in results if r[2]),
    )


def run_table1(count: int = 100, seed: int = 0, ns=None, sigmas=None) -> list[BenchRecord]:
    """Per-cell stats for the (n, sigma) grid of square product instances."""
    ns = tuple(ns) if ns else TABLE1_NS
    sigmas = tuple(sigmas) if sigmas else TABLE1_SIGMAS
    records = []
    for ci, (n, sigma) in enumerate((n, s) for n in ns for s in sigmas):
        tasks = [(n, sigma, [seed, ci, i]) for i in range(count)]
        results = _map(_solve_product_instance, tasks)
        records.append(_aggregate(n, n, sigma, results))
    return records


def run_table2(count: int = 100, seed: int = 0, ns=None, sigmas=None) -> list[BenchRecord]:
    """Direct solve vs reduce-then-solve timings on product instances.

    The n = 300 cell runs at most 3 instances regardless of count; a full
    direct solve at that size is the expensive part being measured.
    """
    cells = [
        (n, s)
        for (n, s) in TABLE2_CELLS
        if (not ns or n in set(ns)) and (not sigmas or s in set(sigmas))
    ]
    if not cells:
        valid = ", ".join(f"({n}, {s})" for n, s in TABLE2_CELLS)
        raise ValueError(
            f"no table2 cell matches the filter; the (n, sigma) cells are {valid}"
        )
    records = []
    for ci, (n, sigma) in enumerate(cells):
        cell_count = min(count, 3) if n >= 300 else count
        tasks = [(n, sigma, [seed, ci, i]) for i in range(cell_count)]
        results = _map(_solve_reduce_instance, tasks)
        rec = _aggregate(n, n, sigma, [(r[0], r[1], r[4]) for r in results])
        rec.reduce_seconds = sum(r[2] for r in results) / len(results)
        rec.reduced_factor_seconds = sum(r[3] for r in results) / len(results)
        records.append(rec)
    return records


def run_bt(tmax: int = 100) -> list[BenchRecord]:
    """One record per t for the hard deterministic 3 x 3 family."""
    results = _map(_solve_bt_instance, list(range(1, tmax + 1)))
    return [_single(t, *r) for t, r in zip(range(1, tmax + 1), results)]


def run_near_t(count: int = 1000, seed: int = 0) -> list[BenchRecord]:
    """One record per matrix, t drawn uniformly from [3, 100]."""
    rng = np.random.default_rng([seed, 999])
    tasks = [(int(rng.integers(3, 101)), [seed, i]) for i in range(count)]
    return [_single(*r) for r in _map(_solve_near_t_instance, tasks)]


def records_to_csv(records: list[BenchRecord], with_reduce: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = list(CSV_COLUMNS) + (list(TABLE2_EXTRA) if with_reduce else [])
    writer.writerow(header)
    for rec in records:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in rec.row(with_reduce)])
    return buf.getvalue()
