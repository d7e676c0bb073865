"""Benchmark of nnirank2's public API: solve and reduce_to_3x3.

Run from the repository root:

    python3 benchmark/run.py --workload product_small --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --seed 1        # every workload, one process each

One process, one closed-loop caller, one instance in flight.  The inputs
come from ``--seed`` and ``nnirank2.instances``; the package is imported
from ``src/`` of the same checkout.

``--trace 0`` times the public calls and prints the end-to-end metrics.
``--trace 1`` runs one pass of the same instances, each untraced and then
replayed through the layers under a tracer, and prints the per-layer
metrics.  The metrics' names and units come from ``BENCHMARK.json``; their
layers and kinds from ``layer_map.json``.  Before the last line, stdout
shows every metric with its unit and a JSON record of the run and its
environment; the last line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("product_small", "product_large", "triangle_sweep")
# setup_s is the median of this many set-ups: this process's, then fresh
# interpreters' spread over the timed loop.  On a shared 2-vCPU host, whose
# speed drifts within seconds, the same set-ups run in one burst at the end
# of a run gave an IQR/median of 0.24 to 0.41 over ten runs; spread over
# the loop, 0.07 to 0.15.
SETUP_REPEATS = 11

# Printed and recorded on the product workloads, the only ones that run the
# reduction, but not in BENCHMARK.json: every end-to-end metric there must
# be reported by every workload, triangle_sweep included.
RECORD_UNITS = {
    "reduce_ms_p50": "ms",
    "reduce_ms_p90": "ms",
    "reduced_solve_ms_p50": "ms",
}


def benchmark_units(key: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[key]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Import nnirank2 and generate the inputs; returns the instances, the
    set-up time and the generation time (s)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import nnirank2  # noqa: F401  (timed: the import is part of set-up)

    t1 = time.perf_counter()
    from workloads import generate

    instances = generate(workload, seed)
    t2 = time.perf_counter()
    return instances, t2 - t0, t2 - t1


def fresh_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a new interpreter, so the import and the
    generators' caches start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1])


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256() -> str:
    """Digest of the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nnirank2").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
        "src_sha256": src_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def ratio(num: float, den: float) -> float | None:
    """num / den, or None when nothing was measured (every instance failed)."""
    return num / den if den else None


def end_to_end(args, instances, setup_s: float):
    """The timed closed loop: end-to-end metrics, sample counts, tally, gate."""
    from measure import closed_loop, percentiles_ms
    from workloads import ORACLE_WORKLOADS, REDUCE_WORKLOADS

    reduce = args.workload in REDUCE_WORKLOADS
    setups = [setup_s]
    fresh = [lambda: setups.append(fresh_setup_seconds(args.workload, args.seed))] * (SETUP_REPEATS - 1)
    tally, gate = closed_loop(
        instances, args.workload in ORACLE_WORKLOADS, reduce, args.seconds, side_jobs=fresh
    )
    metrics, samples = {}, {}
    for call in ("solve", "reduce", "reduced_solve") if reduce else ("solve",):
        got = getattr(tally, call)
        p50, p90 = percentiles_ms(got)
        metrics[f"{call}_ms_p50"] = p50
        samples[f"{call}_ms_p50"] = len(got)
        if call != "reduced_solve":
            metrics[f"{call}_ms_p90"] = p90
            samples[f"{call}_ms_p90"] = len(got)
    metrics["instances_per_s"] = ratio(tally.completed, tally.timed_ns / 1e9)
    metrics["peak_rss_mib"] = peak_rss_mib()
    metrics["setup_s"] = statistics.median(setups)
    samples["setup_s"] = len(setups)
    units = benchmark_units("end_to_end")
    units.update({k: u for k, u in RECORD_UNITS.items() if k in metrics})
    return {k: {"value": metrics[k], "unit": u} for k, u in units.items()}, samples, tally, gate


def per_layer(args, instances, generate_s: float):
    """One traced pass: per-layer metrics, span counts, tally, gate."""
    from replay import traced_pass
    from workloads import ORACLE_WORKLOADS

    tally, gate, tr, counts, untraced = traced_pass(instances, args.workload in ORACLE_WORKLOADS)
    layer_map = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
    units = benchmark_units("per_layer")
    totals = tr.totals()
    values = {
        "solver.pairs_examined": counts.pairs_examined,
        "solver.triangle_points": counts.triangle_points,
        "solver.pair_yield": ratio(counts.rank2_verdicts, counts.pairs_examined),
        "instances.generate_s": generate_s,
        "oracle.cross_checked": len(gate.cross_checked),
    }
    for root in ("solve", "reduce"):
        self_ns, root_ns = tr.root_self(root)
        overhead = ratio(root_ns, untraced[root])
        values[f"trace.overhead_frac.{root}"] = None if overhead is None else overhead - 1
        values[f"trace.unattributed_frac.{root}"] = ratio(self_ns, root_ns)
    for name in units:
        if layer_map[name]["kind"] in ("replay", "probe"):
            values[name] = totals.get(name[: -len("_s")], 0) / 1e9
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return metrics, {"spans": len(tr.spans), "solves": counts.solves}, tally, gate


def run_one(args) -> int:
    instances, setup_s, generate_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    if args.trace:
        metrics, samples, tally, gate = per_layer(args, instances, generate_s)
    else:
        metrics, samples, tally, gate = end_to_end(args, instances, setup_s)
    failed_frac = tally.failed / tally.attempted
    record = {
        "environment": environment(args),
        "instances": {
            "distinct": len(instances),
            "passes": tally.passes,
            "attempted": tally.attempted,
            "completed": tally.completed,
            "failed": tally.failed,
        },
        "failed_frac": failed_frac,
        "failure_reasons": dict(tally.reasons),
        "oracle_cross_checked": len(gate.cross_checked),
        "samples": samples,
        "metrics": metrics,
    }
    print(f"{args.workload}  seed {args.seed}  {len(instances)} instances x {tally.passes} passes"
          f"  attempted {tally.attempted}  failed {tally.failed}")
    for name, m in metrics.items():
        n = samples.get(name)
        print(f"  {name:34s} {m['value']!r:>24} {m['unit']:6s}" + (f" ({n} samples)" if n else ""))
    print(f"  {'failed_frac':34s} {failed_frac!r:>24} ratio  ({tally.failed} of {tally.attempted})")
    for reason, n in tally.reasons.most_common():
        print(f"  FAILED x{n}: {reason}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: v for k, v in metrics.items() if k not in RECORD_UNITS},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory does not carry
    over; the last line merges their results under workload-prefixed names."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        lines = done.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nnirank2" / "__init__.py").is_file():
        print(f"error: no nnirank2 package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
