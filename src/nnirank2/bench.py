"""Benchmark suites over the instance generators, with CSV output.

Per-instance wall time is measured around the solve call only (generation
and parsing excluded), as the least of three calls' times, so that a call
slowed by other work on the host does not set a record.  Every suite runs
its instances one after another in this process, after one untimed run of
its first instance, so that no record pays for the process's first, cold
calls.  Each instance is generated from its own seed, so the non-timing
columns are the same on every run.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import astuple, dataclass, fields

from .instances import gen_bt, gen_near_t, gen_product, seeded_rng
from .reduction import reduce_to_3x3
from .solver import RANK2, solve

TABLE1_NS = (3, 5, 10, 50, 100)
TABLE1_SIGMAS = (3, 6, 10, 25)
TABLE2_CELLS = ((10, 3), (10, 6), (10, 10), (10, 25), (300, 3))


@dataclass
class BenchRecord:
    """One CSV row: the fields are its columns in order, table2's two last."""

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


def _cell_seed(seed: int, n: int, sigma, i: int) -> list[int]:
    """Seed of instance i of the grid cell (n, sigma): the cell's values,
    not its place in the grid, so a filtered run draws the same instances
    as the full one.  Seeds are integers, so sigma must be one."""
    if sigma != int(sigma):
        raise ValueError(f"grid sigmas must be integers, got {sigma}")
    return [seed, n, int(sigma), i]


def _cell_instance(seed: int, n: int, sigma, i: int):
    """Instance i of the grid cell (n, sigma): an n x n product."""
    return gen_product(n, n, sigma, seed=_cell_seed(seed, n, sigma, i))[2]


def _timed(fn, A):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn(A)
        times.append(time.perf_counter() - t0)
    return out, min(times)


def _timed_solve(A):
    out, dt = _timed(solve, A)
    return max(int(x) for x in A.flat), dt, out.verdict == RANK2


def _timed_solve_reduce(A):
    """Direct solve, reduce and solve of the reduction, each timed."""
    out, t_direct = _timed(solve, A)
    (C, _), t_reduce = _timed(reduce_to_3x3, A)
    out_c, t_factor = _timed(solve, C)
    if (out.verdict == RANK2) != (out_c.verdict == RANK2):
        raise RuntimeError("internal error: the reduced instance has another verdict")
    return max(int(x) for x in A.flat), t_direct, out.verdict == RANK2, t_reduce, t_factor


def _single(t, A) -> BenchRecord:
    """Record of one 3 x 3 instance."""
    largest, dt, is_r2 = _timed_solve(A)
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
    _timed_solve(_cell_instance(seed, ns[0], sigmas[0], 0))  # warm-up, untimed
    records = []
    for n, sigma in ((n, s) for n in ns for s in sigmas):
        results = [_timed_solve(_cell_instance(seed, n, sigma, i)) for i in range(count)]
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
    _timed_solve_reduce(_cell_instance(seed, *cells[0], 0))  # warm-up, untimed
    records = []
    for n, sigma in cells:
        cell_count = min(count, 3) if n >= 300 else count
        results = [
            _timed_solve_reduce(_cell_instance(seed, n, sigma, i)) for i in range(cell_count)
        ]
        rec = _aggregate(n, n, sigma, results)
        rec.reduce_seconds = sum(r[3] for r in results) / len(results)
        rec.reduced_factor_seconds = sum(r[4] for r in results) / len(results)
        records.append(rec)
    return records


def run_bt(tmax: int = 100) -> list[BenchRecord]:
    """One record per t for the hard deterministic 3 x 3 family."""
    if tmax < 1:
        raise ValueError("tmax must be at least 1")
    _timed_solve(gen_bt(1))  # warm-up, untimed
    return [_single(t, gen_bt(t)) for t in range(1, tmax + 1)]


def run_near_t(count: int = 1000, seed: int = 0) -> list[BenchRecord]:
    """One record per matrix, t drawn uniformly from [3, 100]."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = seeded_rng([seed, 999])
    ts = [int(rng.integers(3, 101)) for _ in range(count)]
    _timed_solve(gen_near_t(ts[0], seed=[seed, 0]))  # warm-up, untimed
    return [_single(t, gen_near_t(t, seed=[seed, i])) for i, t in enumerate(ts)]


def records_to_csv(records: list[BenchRecord]) -> str:
    """CSV of the records; table2's reduce columns only when they are set."""
    reduce_cols = any(rec.reduce_seconds is not None for rec in records)
    cols = slice(None if reduce_cols else -2)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([f.name for f in fields(BenchRecord)][cols])
    for rec in records:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in astuple(rec)[cols]])
    return buf.getvalue()
