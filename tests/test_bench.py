import csv
import io

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
# record's largest entry is an int ("76"), a cell's average is a float ("98.0").
PINNED_CSV = {
    "table1": [
        ["3", "3", "3", "3", "23.333333333333332", "3"],
        ["3", "3", "6", "3", "98.0", "2"],
        ["5", "5", "3", "3", "31.333333333333332", "3"],
        ["5", "5", "6", "3", "114.0", "1"],
    ],
    "table2": [
        ["10", "10", "3", "2", "35.0", "2"],
        ["10", "10", "6", "2", "91.5", "2"],
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
