"""Tests of the benchmark itself: exact layer counts, the correctness gate's
failure path, the replay's fidelity to the entry points, and agreement
between BENCHMARK.json and the code.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import replay
import run
import workloads
import nnirank2
from nnirank2 import NOT_RANK2, RANK2, SolveOutcome, as_int_matrix

HERE = Path(__file__).resolve().parent
BEASLEY = [[2, 0, 3], [1, 1, 4], [1, 3, 9]]  # rank 2, not_rank2
BEASLEY_ONLY = [workloads.Instance("beasley", "bt", as_int_matrix(BEASLEY))] * 3


@pytest.fixture
def small_triangles(monkeypatch):
    """triangle_sweep's mix of bt and near_t, at t small enough for a test."""
    monkeypatch.setattr(workloads, "TRIANGLE_BT", (30, 40, 50, 60))
    monkeypatch.setattr(workloads, "TRIANGLE_NEAR_T", (20, 40))
    return lambda seed: workloads.generate("triangle_sweep", seed)


def small_products(seed: int) -> list[workloads.Instance]:
    return workloads.generate("product_small", seed)[:36]


def layer_counts(instances, oracle: bool):
    tally, gate, _, counts, _ = replay.traced_pass(instances, oracle)
    return tally.failed, counts.pairs_examined, counts.triangle_points, len(gate.cross_checked)


def test_layer_counts_repeat_exactly(small_triangles):
    for make, oracle in ((small_triangles, False), (small_products, True)):
        first = layer_counts(make(7), oracle)
        assert first == layer_counts(make(7), oracle)
        failed, pairs, points, _ = first
        assert failed == 0 and pairs > 0 and points > 0


def run_loop(instances, oracle=False, reduce=True):
    tally, _ = measure.closed_loop(instances, oracle, reduce, seconds=0.0, min_samples=1)
    return tally


def rank2_count(instances) -> int:
    return sum(measure.solve(i.A).verdict == RANK2 for i in instances)


def test_forged_certificate_counts_as_failed(monkeypatch):
    insts = small_products(1)
    real_solve = measure.solve

    def forged(A):
        out = real_solve(A)
        if out.verdict != RANK2:
            return out
        F1 = out.certificate.F1.copy()
        F1[0, 0] += 1
        return dataclasses.replace(out, certificate=dataclasses.replace(out.certificate, F1=F1))

    expected = rank2_count(insts)
    monkeypatch.setattr(measure, "solve", forged)
    tally = run_loop(insts)
    assert expected > 0
    assert tally.failed == expected and tally.attempted == len(insts)
    assert tally.reasons["verify_factorization rejects the rank2 certificate"] == expected


def test_mismatched_reduced_verdict_counts_as_failed(monkeypatch):
    insts = small_products(2)
    real_reduce = measure.reduce_to_3x3

    def wrong_reduction(A):
        _, trace = real_reduce(A)
        return as_int_matrix(BEASLEY), trace

    expected = rank2_count(insts)
    monkeypatch.setattr(measure, "reduce_to_3x3", wrong_reduction)
    tally = run_loop(insts)
    assert 0 < expected and tally.failed == expected


def test_exceptions_count_as_failed(monkeypatch):
    insts = small_products(3)

    def broken(A):
        raise ValueError("broken")

    monkeypatch.setattr(measure, "reduce_to_3x3", broken)
    tally = run_loop(insts)
    assert tally.failed == tally.attempted == len(insts)
    assert tally.completed == 0


def test_wrong_bt_verdict_counts_as_failed(monkeypatch, small_triangles):
    insts = [i for i in small_triangles(4) if i.kind == "bt"]
    real_solve = measure.solve

    def says_rank2(A):
        return dataclasses.replace(real_solve(A), verdict=RANK2, certificate=None)

    monkeypatch.setattr(measure, "solve", says_rank2)
    tally = run_loop(insts, reduce=False)
    assert tally.failed == len(insts)
    assert tally.reasons[f"bt verdict {RANK2}, expected {NOT_RANK2}"] == len(insts)


def test_oracle_disagreement_counts_as_failed():
    products = small_products(4)
    gate = measure.Gate(oracle=True)
    wrong = 0
    for i, inst in enumerate(products):
        outs, _ = measure.run_instance(inst.A, reduce=True)
        flipped = NOT_RANK2 if outs.out.verdict == RANK2 else RANK2
        outs.out = outs.out_c = SolveOutcome(flipped, outs.out.certificate, outs.out.pairs_examined)
        reasons = gate(i, inst, outs)
        wrong += any(r.startswith("oracle.brute_force disagrees") for r in reasons)
    assert wrong == len(gate.cross_checked) > 0


def test_replay_mismatch_counts_as_failed(monkeypatch, small_triangles):
    insts = small_triangles(5)
    real_search = replay.search

    def off_by_one(cd):
        out = real_search(cd)
        return dataclasses.replace(out, pairs_examined=out.pairs_examined + 1)

    monkeypatch.setattr(replay, "search", off_by_one)
    tally, *_ = replay.traced_pass(insts, oracle=False)
    assert tally.failed == tally.attempted == len(insts)


def test_per_layer_reports_every_layer_metric(small_triangles):
    args = argparse.Namespace(workload="triangle_sweep")
    metrics, _, tally, _ = run.per_layer(args, small_triangles(6), generate_s=0.5)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert tally.failed == 0
    assert list(metrics) == [m["name"] for m in bench["per_layer"]]
    values = {k: v["value"] for k, v in metrics.items()}
    assert values["solver.search_s"] > 0 and values["reduction.build_3xm_stage1_s"] > 0
    assert 0 <= values["trace.unattributed_frac.solve"] < 1


def test_end_to_end_reports_every_metric(monkeypatch):
    """Every workload's last line holds exactly BENCHMARK.json's end-to-end
    metrics; the reduction's are recorded on the product workloads only."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    monkeypatch.setattr(run, "fresh_setup_seconds", lambda workload, seed: 0.25)
    for name, insts in (("product_small", small_products(8)), ("triangle_sweep", BEASLEY_ONLY)):
        args = argparse.Namespace(workload=name, seed=0, seconds=0.0)
        metrics, samples, tally, _ = run.end_to_end(args, insts, setup_s=0.5)
        assert tally.failed == 0
        recorded = set(run.RECORD_UNITS) if name in workloads.REDUCE_WORKLOADS else set()
        assert set(metrics) == set(names) | recorded
        assert all(metrics[k]["value"] > 0 for k in names)
        assert samples["setup_s"] == run.SETUP_REPEATS


def test_benchmark_json_matches_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())["per_layer"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"] for m in bench["per_layer"]} == set(layer_map)
    assert not set(run.RECORD_UNITS) & {m["name"] for m in bench["end_to_end"]}


def calls_from(caller, fn, *args) -> list[str]:
    """Names of the nnirank2 functions that ``caller``'s code calls
    directly while ``fn(*args)`` runs, in call order."""
    package = str(Path(nnirank2.__file__).parent)
    calls = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_back is not None and frame.f_back.f_code is caller
                and frame.f_code.co_filename.startswith(package)):
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.skipif(sys.flags.optimize > 0, reason="reduce_to_3x3's rank check is an assert")
def test_replay_makes_the_entry_points_calls(small_triangles):
    """The replay calls what solve and reduce_to_3x3 call, in their order,
    so its spans stay the program's figures when the entry points change."""
    insts = small_products(9)[:12] + small_triangles(9)[:2]
    assert {measure.solve(i.A).verdict for i in insts} == {RANK2, NOT_RANK2}
    for inst in insts:
        for entry, replayed in ((nnirank2.solve, replay.replay_solve),
                                (nnirank2.reduce_to_3x3, replay.replay_reduce)):
            expected = calls_from(entry.__code__, entry, inst.A)
            got = calls_from(replay.Tracer.call.__code__, replayed, replay.Tracer(), inst.A)
            assert got == expected, (entry.__name__, inst.label)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "product_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
