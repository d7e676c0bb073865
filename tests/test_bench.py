import csv
import io

import pytest

from nnirank2.bench import (
    records_to_csv,
    run_bt,
    run_near_t,
    run_table1,
    run_table2,
)


def test_run_table1_shape():
    recs = run_table1(count=3, seed=1, ns=[3], sigmas=[3])
    assert len(recs) == 1
    rec = recs[0]
    assert rec.n == rec.m == 3 and rec.count == 3
    assert rec.min_seconds <= rec.avg_seconds <= rec.max_seconds
    assert 0 <= rec.rank2_count <= 3


def test_run_table2_has_reduce_columns():
    recs = run_table2(count=1, seed=1, ns=[10], sigmas=[3])
    assert len(recs) == 1
    assert recs[0].reduce_seconds is not None
    assert recs[0].reduced_factor_seconds is not None
    text = records_to_csv(recs)
    assert text.splitlines()[0].endswith("reduce_seconds,reduced_factor_seconds")


def test_bt_suite_time_trend():
    # triangle size grows quadratically with t, so solve times must trend up
    recs = run_bt(tmax=60)
    assert all(r.rank2_count == 0 for r in recs)
    times = [r.avg_seconds for r in recs]
    first, second = times[:30], times[30:]
    assert sum(second) / len(second) > sum(first) / len(first)


def test_near_t_records():
    recs = run_near_t(count=5, seed=3)
    assert len(recs) == 5
    for r in recs:
        assert 3 <= r.sigma_or_t <= 100
        assert r.count == 1
        # entries concentrate near t
        assert abs(r.avg_largest_entry - r.sigma_or_t) <= 2 * r.sigma_or_t


# The non-timing CSV columns (n, m, sigma_or_t, count, avg_largest_entry,
# rank2_count) exactly as records_to_csv writes them for fixed seeds: a 3 x 3
# record's largest entry is an int ("76"), a cell's average is a float ("34.0").
PINNED_CSV = {
    "table1": [
        ["3", "3", "3", "3", "26.666666666666668", "2"],
        ["3", "3", "6", "3", "98.33333333333333", "3"],
        ["5", "5", "3", "3", "34.666666666666664", "3"],
        ["5", "5", "6", "3", "106.66666666666667", "0"],
    ],
    "table2": [
        ["10", "10", "3", "2", "34.0", "2"],
        ["10", "10", "6", "2", "173.5", "1"],
    ],
    "bt": [["3", "3", str(t), "1", str(t + 1), "0"] for t in range(1, 6)],
    "near_t": [
        ["3", "3", "72", "1", "76", "0"],
        ["3", "3", "93", "1", "96", "1"],
        ["3", "3", "16", "1", "22", "0"],
        ["3", "3", "64", "1", "78", "0"],
    ],
}


def test_csv_non_timing_columns_are_pinned():
    runs = {
        "table1": records_to_csv(run_table1(count=3, seed=1, ns=[3, 5], sigmas=[3, 6])),
        "table2": records_to_csv(run_table2(count=2, seed=1, ns=[10], sigmas=[3, 6])),
        "bt": records_to_csv(run_bt(tmax=5)),
        "near_t": records_to_csv(run_near_t(count=4, seed=3)),
    }
    for suite, text in runs.items():
        rows = list(csv.reader(io.StringIO(text)))[1:]
        got = [[row[i] for i in (0, 1, 2, 3, 4, 8)] for row in rows]
        assert got == PINNED_CSV[suite], suite


def _non_timing(records) -> dict:
    return {(r.n, r.sigma_or_t): (r.count, r.avg_largest_entry, r.rank2_count) for r in records}


def test_grid_filter_keeps_each_cells_instances():
    # a cell is seeded by its (n, sigma), so filtering the grid around it
    # leaves its rows as they are in a wider run
    wide1 = _non_timing(run_table1(count=2, seed=4, ns=[3, 5], sigmas=[3, 6]))
    assert _non_timing(run_table1(count=2, seed=4, ns=[5], sigmas=[6])) == {(5, 6): wide1[5, 6]}
    wide2 = _non_timing(run_table2(count=1, seed=4, ns=[10]))
    assert _non_timing(run_table2(count=1, seed=4, ns=[10], sigmas=[6])) == {(10, 6): wide2[10, 6]}
    assert _non_timing(run_table1(count=2, seed=4, ns=[5], sigmas=[6.0])) == {(5, 6): wide1[5, 6]}
    with pytest.raises(ValueError, match="sigmas must be integers"):
        run_table1(count=1, ns=[3], sigmas=[2.5])
