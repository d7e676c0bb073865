"""Traced replay of the public entry points through their layers.

``replay_solve`` and ``replay_reduce`` make the same calls, in the same
order, as ``nnirank2.solve`` and ``nnirank2.reduce_to_3x3``, each wrapped in
a span that is a child of a ``solve`` or ``reduce`` root:

    solve  = as_int_matrix, rank_exact, build_diagram, canonicalize,
             search, verify_factorization
    reduce = as_int_matrix, build_3xm(A), build_3xm(B1.T), rank_exact(C)

The replay is a copy of those two bodies, so it must change whenever they
do; ``test_replay_makes_the_entry_points_calls`` fails when the call
sequences part.

The traced pass replays both entry points on every workload, including
triangle_sweep, whose timed loop runs solve only, so every layer metric is
measured on every workload.

Probe spans re-run a sub-step on the same input to show how a replay span
splits (Smith form, lattice basis, point coordinates, cone decomposition,
triangle enumeration, extreme rays, row-lattice basis).  They are roots of
their own and never subtracted from a replay span.

Spans live in memory; a root's self time is its duration minus its
children's, which is the part of an entry point the replay does not
attribute to a layer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from nnirank2 import (
    RANK2,
    ReductionTrace,
    SolveOutcome,
    as_int_matrix,
    build_3xm,
    build_diagram,
    canonicalize,
    column_lattice_basis,
    decompose,
    extreme_rays,
    point_coordinates,
    rank_exact,
    search,
    smith_normal_form,
    triangle_points,
    verify_factorization,
)
from nnirank2.reduction import row_lattice_basis

from measure import Gate, Tally, run_instance


@dataclass
class Span:
    name: str
    trace_id: int  # the instance the span belongs to
    parent: int | None  # index of the parent span, None for a root
    start: int  # perf_counter_ns
    end: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans of nested calls; one trace id per instance."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, self.trace_id, parent, time.perf_counter_ns()))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter_ns()
        self._open.pop()

    def call(self, name: str, fn, *args):
        index = self.begin(name)
        try:
            return fn(*args)
        finally:
            self.end(index)

    def totals(self) -> dict[str, int]:
        """Total duration (ns) per span name."""
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + s.duration
        return out

    def root_self(self, name: str) -> tuple[int, int]:
        """(self time, total time) in ns over the roots called ``name``."""
        roots = {i for i, s in enumerate(self.spans) if s.parent is None and s.name == name}
        total = sum(self.spans[i].duration for i in roots)
        covered = sum(s.duration for s in self.spans if s.parent in roots)
        return total - covered, total


def replay_solve(tr: Tracer, A_in) -> SolveOutcome:
    """``nnirank2.solve(A_in)`` (default r=1) for a rank-2 input, traced."""
    root = tr.begin("solve")
    try:
        A = tr.call("linalg.as_int_matrix", as_int_matrix, A_in)
        if (A < 0).any():
            raise ValueError("matrix must be nonnegative")
        rk = tr.call("linalg.rank_exact", rank_exact, A)
        if rk != 2:
            raise ValueError(f"the replay covers rank-2 inputs, got rank {rk}")
        d = tr.call("diagram.build_diagram", build_diagram, A)
        cd = tr.call("diagram.canonicalize", canonicalize, d, 1)
        out = tr.call("solver.search", search, cd)
        if out.verdict == RANK2:
            cert = out.certificate
            if not tr.call(
                "solver.verify_factorization", verify_factorization, A, cert.F1, cert.F2
            ):
                raise RuntimeError("internal error: certificate failed verification")
    finally:
        tr.end(root)
    return out


def replay_reduce(tr: Tracer, A_in) -> tuple:
    """``nnirank2.reduce_to_3x3(A_in)``, traced."""
    root = tr.begin("reduce")
    try:
        A = tr.call("linalg.as_int_matrix", as_int_matrix, A_in)
        B1, st1 = tr.call("reduction.build_3xm_stage1", build_3xm, A)
        C, st2 = tr.call("reduction.build_3xm_stage2", build_3xm, B1.T)
        if tr.call("reduction.rank_check", rank_exact, C) != 2:
            raise RuntimeError("internal error: reduced matrix does not have rank 2")
        trace = ReductionTrace(input=A, three_by_m=B1, three_by_three=C, stages=(st1, st2))
    finally:
        tr.end(root)
    return C, trace


def probe_solve(tr: Tracer, A_in) -> int:
    """Probe spans for the sub-steps of a solve; returns the number of
    triangle points the search enumerates."""
    A = as_int_matrix(A_in)
    tr.call("linalg.smith_normal_form", smith_normal_form, A)
    basis = tr.call("diagram.column_lattice_basis", column_lattice_basis, A)
    tr.call("diagram.point_coordinates", point_coordinates, A, basis)
    cd = canonicalize(build_diagram(A), 1)
    dec = tr.call("solver.decompose", decompose, cd)
    return len(tr.call("solver.triangle_points", triangle_points, dec))


def probe_reduce(tr: Tracer, A_in) -> None:
    A = as_int_matrix(A_in)
    tr.call("reduction.extreme_rays", extreme_rays, A)
    tr.call("reduction.row_lattice_basis", row_lattice_basis, A)


@dataclass
class LayerCounts:
    pairs_examined: int = 0
    triangle_points: int = 0
    rank2_verdicts: int = 0
    solves: int = 0

    def add(self, out: SolveOutcome, points: int) -> None:
        self.solves += 1
        self.pairs_examined += out.pairs_examined
        self.triangle_points += points
        if out.verdict == RANK2:
            self.rank2_verdicts += 1


def replay_instance(tr: Tracer, counts: LayerCounts, A) -> tuple[SolveOutcome, tuple, SolveOutcome]:
    """Traced solve(A), reduce_to_3x3(A) and solve(C), then their probes."""
    out = replay_solve(tr, A)
    C, rtrace = replay_reduce(tr, A)
    out_c = replay_solve(tr, C)
    counts.add(out, probe_solve(tr, A))
    counts.add(out_c, probe_solve(tr, C))
    probe_reduce(tr, A)
    return out, rtrace, out_c


def replay_mismatch(untraced, traced) -> list[str]:
    """Differences between the untraced outputs and the replay's."""
    out, rtrace, out_c = traced
    reasons = []
    for what, a, b in (("solve(A)", untraced.out, out), ("solve(C)", untraced.out_c, out_c)):
        if (a.verdict, a.pairs_examined) != (b.verdict, b.pairs_examined):
            reasons.append(
                f"replayed {what} gives {b.verdict} after {b.pairs_examined} pairs, "
                f"untraced {a.verdict} after {a.pairs_examined}"
            )
    if rtrace.three_by_three.tolist() != untraced.rtrace.three_by_three.tolist():
        reasons.append("replayed reduce_to_3x3 gives a different 3 x 3")
    return reasons


def traced_pass(instances, oracle: bool) -> tuple[Tally, Gate, Tracer, LayerCounts, dict[str, int]]:
    """One pass over ``instances``: each instance runs untraced (timed as in
    the closed loop), then is replayed under the tracer and probed.

    Returns the tally, the gate, the spans, the layer counts and the
    untraced time (ns) per entry point, which the traced roots are compared
    against.  A replay that raises or disagrees with the untraced outputs
    fails the instance.
    """
    gate, tally, tr, counts = Gate(oracle), Tally(), Tracer(), LayerCounts()
    untraced = {"solve": 0, "reduce": 0}
    run_instance(instances[0].A, reduce=True)
    for i, inst in enumerate(instances):
        outs, times = run_instance(inst.A, reduce=True)
        reasons = list(gate(i, inst, outs))
        if outs.error is None:
            untraced["solve"] += times[0] + times[2]
            untraced["reduce"] += times[1]
            tr.trace_id = i
            try:
                reasons += replay_mismatch(outs, replay_instance(tr, counts, inst.A))
            except Exception as exc:  # a failing replay fails the instance
                reasons.append(f"replay raised {type(exc).__name__}: {exc}")
        tally.add(outs, times, reasons)
    tally.passes = 1
    return tally, gate, tr, counts, untraced
