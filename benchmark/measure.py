"""Closed-loop timing of the public API and the correctness gate.

One caller, one instance in flight.  Every instance runs ``solve(A)``; on
the product workloads it then runs ``reduce_to_3x3(A)`` and ``solve(C)`` on
the reduced 3 x 3.  Each call is timed alone with ``perf_counter_ns``.

Outputs are checked outside the timed calls with explicit comparisons, so
the gate holds under ``python -O``.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from nnirank2 import (
    NOT_RANK2,
    RANK2,
    ReductionTrace,
    SolveOutcome,
    brute_force,
    build_diagram,
    canonicalize,
    reduce_to_3x3,
    solve,
    validate_equivalence,
    verify_factorization,
)
from nnirank2.oracle import COORD_CAP

from workloads import Instance

# percentiles up to p90 need ten samples beyond the highest one
MIN_SAMPLES = 100
# the loop stops after this many seconds even inside a pass or below
# MIN_SAMPLES, so a run always ends within 180 s
MAX_LOOP_SECONDS = 120.0
# brute_force is quartic in the largest canonical coordinate: at the
# oracle's own cap of 100 one product_small instance took 8 s, at 30 the
# slowest took 0.2 s.  Instances above this are not cross-checked.
ORACLE_MAX_COORD = min(30, COORD_CAP)


@dataclass
class Outputs:
    """What the three public calls returned for one instance."""

    out: SolveOutcome | None = None  # solve(A)
    rtrace: ReductionTrace | None = None  # reduce_to_3x3(A), if it ran
    out_c: SolveOutcome | None = None  # solve(C), if it ran
    error: str | None = None

    def fingerprint(self) -> tuple:
        if self.error is not None:
            return ("error", self.error)
        cert = self.out.certificate
        fp = (
            self.out.verdict,
            self.out.pairs_examined,
            None if cert is None else (cert.F1.tolist(), cert.F2.tolist()),
        )
        if self.rtrace is None:
            return fp
        return fp + (
            self.rtrace.three_by_m.tolist(),
            self.rtrace.three_by_three.tolist(),
            self.out_c.verdict,
        )


def run_instance(A, reduce: bool) -> tuple[Outputs, list[int]]:
    """The timed calls: ``solve(A)``, and with ``reduce`` also
    ``reduce_to_3x3(A)`` and ``solve(C)``.  Returns the outputs and the
    durations (ns) of the calls that ran.  An exception ends the instance
    and is recorded."""
    outs = Outputs()
    times: list[int] = []
    try:
        t0 = time.perf_counter_ns()
        outs.out = solve(A)
        t1 = time.perf_counter_ns()
        times.append(t1 - t0)
        if not reduce:
            return outs, times
        t0 = time.perf_counter_ns()
        C, outs.rtrace = reduce_to_3x3(A)
        t1 = time.perf_counter_ns()
        times.append(t1 - t0)
        t0 = time.perf_counter_ns()
        outs.out_c = solve(C)
        t1 = time.perf_counter_ns()
        times.append(t1 - t0)
    except Exception as exc:  # a raising call fails the instance, never the run
        times.append(time.perf_counter_ns() - t0)
        outs.error = f"{type(exc).__name__}: {exc}"
    return outs, times


def check(inst: Instance, outs: Outputs, oracle: bool) -> tuple[list[str], bool]:
    """Reasons the outputs are wrong (empty when correct), and whether the
    oracle cross-checked the verdict."""
    if outs.error is not None:
        return [f"exception: {outs.error}"], False
    try:
        return _check(inst, outs, oracle)
    except Exception as exc:  # a check that cannot run is a failed check
        return [f"check raised {type(exc).__name__}: {exc}"], False


def _check(inst: Instance, outs: Outputs, oracle: bool) -> tuple[list[str], bool]:
    reasons = []
    A, out = inst.A, outs.out
    if out.verdict == RANK2:
        cert = out.certificate
        if cert is None or not verify_factorization(A, cert.F1, cert.F2):
            reasons.append("verify_factorization rejects the rank2 certificate")
    elif out.verdict != NOT_RANK2:
        reasons.append(f"verdict {out.verdict} on a rank-2 input")
    if outs.rtrace is not None:
        if outs.out_c.verdict != out.verdict:
            reasons.append(f"solve(C) says {outs.out_c.verdict}, solve(A) says {out.verdict}")
        if not validate_equivalence(A, outs.rtrace.three_by_m).ok:
            reasons.append("stage-1 3 x m is not equivalent to A")
    if inst.kind == "bt" and out.verdict != NOT_RANK2:
        reasons.append(f"bt verdict {out.verdict}, expected {NOT_RANK2}")
    crossed = False
    if oracle:
        cd = canonicalize(build_diagram(A))
        if max(max(p) for p in cd.points) <= ORACLE_MAX_COORD:
            crossed = True
            if brute_force(cd).rank2 != (out.verdict == RANK2):
                reasons.append(f"oracle.brute_force disagrees with verdict {out.verdict}")
    return reasons, crossed


class Gate:
    """Checks each instance's outputs, fully on first sight and again only
    when a later attempt returns different outputs (every call is
    deterministic, so repeats normally match)."""

    def __init__(self, oracle: bool):
        self.oracle = oracle
        self._seen: dict[int, tuple[tuple, list[str], bool]] = {}
        self.cross_checked: set[int] = set()

    def __call__(self, index: int, inst: Instance, outs: Outputs) -> list[str]:
        fp = outs.fingerprint()
        seen = self._seen.get(index)
        if seen is not None and seen[0] == fp:
            return seen[1]
        reasons, crossed = check(inst, outs, self.oracle)
        self._seen[index] = (fp, reasons, crossed)
        if crossed:
            self.cross_checked.add(index)
        return reasons


@dataclass
class Tally:
    """Per-run counters and timing samples (ns)."""

    solve: list[int] = field(default_factory=list)
    reduce: list[int] = field(default_factory=list)
    reduced_solve: list[int] = field(default_factory=list)
    timed_ns: int = 0
    attempted: int = 0
    completed: int = 0
    failed: int = 0
    passes: int = 0
    reasons: Counter = field(default_factory=Counter)

    def add(self, outs: Outputs, times: list[int], reasons: list[str]) -> None:
        self.attempted += 1
        self.timed_ns += sum(times)
        if outs.error is None:
            self.completed += 1
            for samples, ns in zip((self.solve, self.reduce, self.reduced_solve), times):
                samples.append(ns)
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)


def closed_loop(
    instances: list[Instance],
    oracle: bool,
    reduce: bool,
    seconds: float,
    min_samples: int = MIN_SAMPLES,
    side_jobs: Sequence[Callable[[], object]] = (),
) -> tuple[Tally, Gate]:
    """Whole passes over ``instances`` until ``seconds`` have passed and at
    least ``min_samples`` instances were attempted (or MAX_LOOP_SECONDS).
    ``reduce`` is run_instance's.

    The first instance runs once untimed before the loop, so lazy set-up
    inside numpy and nnirank2 is not charged to the first sample.

    ``side_jobs`` run one at a time between two instances, spread evenly
    over the ``seconds``, so that a short measurement repeated in them
    samples the host across the whole run instead of in one burst.  Their
    time does not count towards ``seconds``.
    """
    gate = Gate(oracle)
    tally = Tally()
    jobs = list(side_jobs)
    run_instance(instances[0].A, reduce)
    start = time.perf_counter()
    side_s = 0.0  # time spent in side jobs
    timed_out = False
    while not timed_out:
        for i, inst in enumerate(instances):
            outs, times = run_instance(inst.A, reduce)
            tally.add(outs, times, gate(i, inst, outs))
            now = time.perf_counter()
            timed_out = now - start >= MAX_LOOP_SECONDS
            if timed_out:
                break
            ran = len(side_jobs) - len(jobs)
            if jobs and now - start - side_s >= (ran + 0.5) * seconds / len(side_jobs):
                jobs.pop(0)()
                side_s += time.perf_counter() - now
        else:
            tally.passes += 1
            if time.perf_counter() - start - side_s >= seconds and tally.attempted >= min_samples:
                break
    for job in jobs:  # left over when the loop timed out
        job()
    return tally, gate


def percentiles_ms(samples: list[int]) -> tuple[float | None, float | None]:
    """(p50, p90) in milliseconds; None when there are too few samples."""
    if len(samples) < 2:
        return None, None
    p90 = statistics.quantiles(samples, n=10)[-1]
    return statistics.median(samples) / 1e6, p90 / 1e6
