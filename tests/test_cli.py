import csv
import hashlib
import io
import json
import random

import pytest

from conftest import BEASLEY, M55, run_python
from nnirank2 import gen_bt, gen_near_t, gen_product
from nnirank2.cli import main
from nnirank2.matrixio import format_matrix, load_matrix, parse_matrix, write_matrix
from nnirank2.linalg import as_int_matrix
from nnirank2.solver import solve, verify_factorization


def write(tmp_path, name, rows):
    path = tmp_path / name
    write_matrix(path, as_int_matrix(rows))
    return str(path)


def test_parse_matrix_comments_and_errors():
    M = parse_matrix("# header\n1 2\n3 4\n")
    assert M.tolist() == [[1, 2], [3, 4]]
    with pytest.raises(ValueError):
        parse_matrix("1 2\n3\n")
    with pytest.raises(ValueError):
        parse_matrix("# only comments\n")
    with pytest.raises(ValueError):
        parse_matrix("1 x\n")


def test_format_roundtrip():
    M = as_int_matrix([[1, -2, 3], [0, 5, 6]])
    assert parse_matrix(format_matrix(M)).tolist() == M.tolist()


def test_factor_beasley_exit1(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    rc = main(["factor", path])
    out = capsys.readouterr().out
    assert rc == 1
    assert "not_rank2" in out
    assert "pairs_examined: 1" in out


def test_factor_explain_json(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    rc = main(["factor", path, "--json", "--explain"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["verdict"] == "not_rank2"
    assert doc["pairs_examined"] == 1
    assert doc["rejections"][0]["index"] == 2
    assert doc["rejections"][0]["w"] == ["5/2", "3/2"]


def test_factor_rank2_verified_output(tmp_path, capsys):
    A = [[1, 0, 1], [0, 1, 1]]
    path = write(tmp_path, "a.txt", A)
    rc = main(["factor", path, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["verdict"] == "rank2"
    assert verify_factorization(A, doc["F1"], doc["F2"])


def test_factor_rank1_exit0(tmp_path, capsys):
    path = write(tmp_path, "r1.txt", [[2, 4], [1, 2]])
    rc = main(["factor", path, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["verdict"] == "rank_le_1"
    prod = as_int_matrix(doc["F1"]) @ as_int_matrix(doc["F2"])
    assert prod.tolist() == [[2, 4], [1, 2]]


# factor's text output, exactly: the not_rank2 rejection, the rank2 factors
# and the rank <= 1 factors
FACTOR_TEXT = [
    (
        BEASLEY,
        ["--explain"],
        "verdict: not_rank2\n"
        "pairs_examined: 1\n"
        "rejected a=(1, 0) b=(1, 2): point 2 has coefficients (5/2, 3/2)\n",
    ),
    (
        [[1, 0, 1], [0, 1, 1]],
        [],
        "verdict: rank2\n"
        "pairs_examined: 1\n"
        "generators: a=(1, 0) b=(0, 1)\n"
        "F1:\n0 1\n1 0\n"
        "F2:\n0 1 1\n1 0 1\n",
    ),
    (
        [[2, 4], [1, 2]],
        [],
        "verdict: rank_le_1\npairs_examined: 0\nF1:\n2\n1\nF2:\n1 2\n",
    ),
]


@pytest.mark.parametrize("rows, flags, text", FACTOR_TEXT)
def test_factor_text_is_pinned(tmp_path, capsys, rows, flags, text):
    path = write(tmp_path, "m.txt", rows)
    rc = main(["factor", path, *flags])
    assert capsys.readouterr().out == text
    assert rc == (1 if "not_rank2" in text else 0)


# the SHA-256 of every answer below: stdout, stderr and exit code of each
# command on each matrix of answer_corpus()
ANSWERS_DIGEST = "e65f9bf4fbc2511bc7470a691e30d8f48f25e7e3583972c0e5aaf4ddc77e3740"
ANSWER_COMMANDS = [
    ["factor"],
    ["factor", "--json"],
    ["factor", "--explain"],
    ["factor", "--json", "--explain"],
    ["factor", "--r", "2"],
    ["diagram"],
    ["diagram", "--canonical", "--r", "2"],
    ["oracle"],
]


def answer_corpus():
    """(matrix, whether the oracle runs on it): bt 1..40, 20 near_t, 30 small
    products, a rank-1 matrix, Beasley, and a rank-3 and a negative matrix
    for the error path.  The oracle's exhaustion takes seconds on bt above
    t = 12, so it stops there."""
    for t in range(1, 41):
        yield gen_bt(t), t <= 12
    for i in range(20):
        yield gen_near_t(3 + i % 10, seed=[1717, i]), True
    for i in range(30):
        yield gen_product(2 + i % 3, 2 + (i // 3) % 3, 3, seed=[1717, i])[2], True
    for rows in ([[2, 4], [1, 2]], BEASLEY, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, -1]]):
        yield rows, True


def test_cli_answers_are_pinned(tmp_path, capsys):
    h = hashlib.sha256()
    for i, (A, with_oracle) in enumerate(answer_corpus()):
        path = write(tmp_path, f"m{i}.txt", A)
        for command in ANSWER_COMMANDS if with_oracle else ANSWER_COMMANDS[:-1]:
            rc = main([*command, path])
            captured = capsys.readouterr()
            h.update(repr((i, command, rc, captured.out, captured.err)).encode())
    assert h.hexdigest() == ANSWERS_DIGEST


def test_factor_errors(tmp_path, capsys):
    ragged = tmp_path / "bad.txt"
    ragged.write_text("1 2\n3\n")
    assert main(["factor", str(ragged)]) == 2
    rank3 = write(tmp_path, "i3.txt", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert main(["factor", rank3]) == 2
    neg = write(tmp_path, "neg.txt", [[1, 0], [0, -1]])
    assert main(["factor", neg]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["factor", "reduce", "diagram", "oracle"])
def test_rank_error_names_the_rank(tmp_path, capsys, command):
    for n in (3, 4):
        path = write(tmp_path, f"i{n}.txt", [[int(i == j) for j in range(n)] for i in range(n)])
        assert main([command, path]) == 2
        assert f"got rank {n}\n" in capsys.readouterr().err


def test_factor_r_flag(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    assert main(["factor", path, "--r", "2"]) == 1
    capsys.readouterr()


def test_reduce_m55(tmp_path, capsys):
    path = write(tmp_path, "m.txt", M55)
    out_path = tmp_path / "red.txt"
    rc = main(["reduce", path, "--output", str(out_path), "--trace"])
    assert rc == 0
    C = load_matrix(out_path)
    assert C.shape == (3, 3)
    text = out_path.read_text()
    assert "# stage 1:" in text and "# stage 2:" in text
    assert solve(C).verdict == solve(as_int_matrix(M55)).verdict
    capsys.readouterr()


def test_reduce_trace_same_text_to_stdout_and_file(tmp_path, capsys):
    path = write(tmp_path, "m.txt", M55)
    out_path = tmp_path / "red.txt"
    assert main(["reduce", path, "--trace"]) == 0
    stdout = capsys.readouterr().out
    assert main(["reduce", path, "--trace", "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text() == stdout
    assert "\n# stage 2 row-lattice basis:" in stdout


def test_reduce_verdict_preserved_3x3(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    rc = main(["reduce", path])
    out = capsys.readouterr().out
    assert rc == 0
    C = parse_matrix(out)
    assert solve(C).verdict == "not_rank2"


def test_reduce_rank1_exit2(tmp_path, capsys):
    path = write(tmp_path, "r1.txt", [[2, 4], [1, 2]])
    assert main(["reduce", path]) == 2
    capsys.readouterr()


def test_generate_bt(tmp_path, capsys):
    rc = main(["generate", "--kind", "bt", "--t", "4", "--outdir", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    M = load_matrix(tmp_path / "bt_0_0.txt")
    assert M.tolist() == [[5, 4, 3], [4, 4, 4], [3, 4, 5]]


def test_generate_product_deterministic(tmp_path, capsys):
    for sub in ("one", "two"):
        rc = main(
            [
                "generate",
                "--kind",
                "product",
                "--rows",
                "3",
                "--cols",
                "3",
                "--sigma",
                "3",
                "--count",
                "10",
                "--seed",
                "7",
                "--outdir",
                str(tmp_path / sub),
            ]
        )
        assert rc == 0
    capsys.readouterr()
    for i in range(10):
        a = (tmp_path / "one" / f"product_7_{i}.txt").read_bytes()
        b = (tmp_path / "two" / f"product_7_{i}.txt").read_bytes()
        assert a == b


def test_generate_near_t_identity(tmp_path, capsys):
    rc = main(
        ["generate", "--kind", "near_t", "--t", "50", "--outdir", str(tmp_path)]
    )
    assert rc == 0
    capsys.readouterr()
    M = load_matrix(tmp_path / "near_t_0_0.txt")
    assert (M[2, :] == 2 * M[0, :] - M[1, :]).all()


def test_generate_invalid_spec(tmp_path, capsys):
    rc = main(
        ["generate", "--kind", "product", "--rows", "1", "--outdir", str(tmp_path)]
    )
    assert rc == 2
    capsys.readouterr()


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_bench_table1_csv(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    rc = main(
        [
            "bench",
            "--suite",
            "table1",
            "--count",
            "2",
            "--n",
            "3",
            "--sigma",
            "3,6",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    header, rows = _parse_csv(out.read_text())
    assert header == [
        "n",
        "m",
        "sigma_or_t",
        "count",
        "avg_largest_entry",
        "min_seconds",
        "avg_seconds",
        "max_seconds",
        "rank2_count",
    ]
    assert len(rows) == 2
    for row in rows:
        rec = dict(zip(header, row))
        assert int(rec["n"]) == 3 and int(rec["m"]) == 3
        assert int(rec["count"]) == 2
        lo, avg, hi = (
            float(rec["min_seconds"]),
            float(rec["avg_seconds"]),
            float(rec["max_seconds"]),
        )
        assert lo <= avg <= hi
        assert 0 <= int(rec["rank2_count"]) <= 2
        # numeric fields parse back exactly
        assert repr(avg) == rec["avg_seconds"]


def test_bench_table2_csv(capsys):
    rc = main(
        ["bench", "--suite", "table2", "--count", "1", "--n", "10", "--sigma", "3"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    header, rows = _parse_csv(out)
    assert header[-2:] == ["reduce_seconds", "reduced_factor_seconds"]
    assert len(rows) == 1


@pytest.mark.parametrize(
    "suite, count",
    [("table1", "0"), ("table1", "-3"), ("table2", "0"), ("near_t", "0"), ("near_t", "-3")],
)
def test_bench_count_below_one_exit2(suite, count, capsys):
    grid = [] if suite == "near_t" else ["--n", "10", "--sigma", "3"]
    rc = main(["bench", "--suite", suite, "--count", count, *grid])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "count must be at least 1" in captured.err


@pytest.mark.parametrize(
    "suite, flag",
    [("table1", "--tmax"), ("table2", "--tmax"), ("bt", "--count"), ("near_t", "--sigma")],
)
def test_bench_flag_its_suite_does_not_read_exit2(suite, flag, capsys):
    rc = main(["bench", "--suite", suite, flag, "3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"the {suite} suite does not read {flag}" in captured.err


@pytest.mark.parametrize(
    "kind, flag", [("product", "--t"), ("bt", "--seed"), ("near_t", "--rows")]
)
def test_generate_flag_its_kind_does_not_read_exit2(kind, flag, tmp_path, capsys):
    outdir = tmp_path / "out"
    rc = main(["generate", "--kind", kind, flag, "5", "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"the {kind} kind does not read {flag}" in captured.err
    assert not outdir.exists()


@pytest.mark.parametrize("tmax", ["0", "-3"])
def test_bench_bt_tmax_below_one_exit2(tmax, capsys):
    rc = main(["bench", "--suite", "bt", "--tmax", tmax])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "tmax must be at least 1" in captured.err


def test_generate_count_below_one_exit2(tmp_path, capsys):
    outdir = tmp_path / "out"
    rc = main(["generate", "--kind", "bt", "--count", "0", "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "count must be at least 1" in captured.err
    assert not outdir.exists()


def test_generate_sigma_inf_exit2(tmp_path, capsys):
    outdir = tmp_path / "inf"
    rc = main(["generate", "--kind", "product", "--sigma", "inf", "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "sigma must be positive" in captured.err
    assert not outdir.exists()


def test_generate_sigma_below_one_half_exit2(tmp_path):
    # sigma = 0.01 used to hang the sampler, so run the CLI in a child process
    outdir = tmp_path / "tiny"
    argv = ["generate", "--kind", "product", "--sigma", "0.01", "--outdir", str(outdir)]
    proc = run_python("-m", "nnirank2.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "sigma must be at least 1/2" in proc.stderr
    assert not outdir.exists()


def test_generate_sigma_above_the_cap_exit2(tmp_path):
    # sigma = 1e12 exited 1 with a 175 TiB allocation error; a child
    # process keeps such an attempt out of the test runner
    outdir = tmp_path / "big"
    argv = ["generate", "--kind", "product", "--sigma", "1e12", "--outdir", str(outdir)]
    proc = run_python("-m", "nnirank2.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "sigma must be at most 100000" in proc.stderr
    assert not outdir.exists()


@pytest.mark.parametrize("sigma", ["1_0", "\u0663", "\uff13", " 3"])
def test_generate_sigma_refuses_what_matrix_files_refuse_exit2(sigma, tmp_path, capsys):
    # float() takes "1_0", " 3" and non-ASCII digits, as int() does
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "product", "--sigma", sigma, "--outdir", str(outdir)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not outdir.exists()


def test_entry_above_the_digit_limit_exit2(tmp_path, capsys):
    # int() refuses more than 4,300 digits with advice to call
    # sys.set_int_max_str_digits(), which a command-line user cannot follow
    path = tmp_path / "big.txt"
    path.write_text("9" * 5000 + " 1\n1 1\n")
    assert main(["factor", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: ") and "5000" in err
    assert "set_int_max_str_digits" not in err
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "bt", "--t", "9" * 5000, "--outdir", str(outdir)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "5000" in err and "set_int_max_str_digits" not in err
    assert not outdir.exists()


def big_basis_rows():
    """A 3 x 3 product with 3,000-digit entries; its canonical basis has
    about 6,000 digits, above int()'s limit of 4,300."""
    rng = random.Random(1)
    F1 = [[rng.randrange(10**3000) for _ in range(2)] for _ in range(3)]
    F2 = [[rng.randrange(1, 1000) for _ in range(3)] for _ in range(2)]
    return [[a * x + b * y for x, y in zip(*F2)] for a, b in F1]


def test_output_above_the_digit_limit_exit2(tmp_path, capsys):
    # the same plain message as on input: such output could not be read back
    with pytest.raises(ValueError, match="^an integer of 4401 digits is over the limit of 4300 digits$"):
        format_matrix([[10**4400, 1]])
    path = write(tmp_path, "big.txt", big_basis_rows())
    for flags in ([], ["--json"]):
        assert main(["diagram", "--canonical", "--r", "2", *flags, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: an integer of 6000 digits is over the limit of 4300 digits\n"


@pytest.mark.parametrize("kind", ["product", "near_t"])
def test_generate_negative_seed_exit2(kind, tmp_path, capsys):
    outdir = tmp_path / "negseed"
    rc = main(["generate", "--kind", kind, "--seed", "-1", "--outdir", str(outdir)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "seed must be nonnegative" in captured.err
    assert not outdir.exists()


@pytest.mark.parametrize("suite", ["table1", "table2", "near_t"])
def test_bench_negative_seed_exit2(suite, capsys):
    grid = [] if suite == "near_t" else ["--n", "10", "--sigma", "3"]
    rc = main(["bench", "--suite", suite, "--count", "1", "--seed", "-1", *grid])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "seed must be nonnegative" in captured.err


@pytest.mark.parametrize("sigma", ["0", "-3"])
def test_bench_sigma_not_positive_exit2(sigma):
    # sigma = 0 used to hang the sampler, so run the CLI in a child process
    argv = ["bench", "--suite", "table1", "--n", "3", "--count", "2", "--sigma", sigma]
    proc = run_python("-m", "nnirank2.cli", *argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "sigma must be positive" in proc.stderr


@pytest.mark.parametrize(
    "args", [["--n", "7"], ["--sigma", "4"], ["--n", "300", "--sigma", "6"]]
)
def test_bench_table2_filter_matching_no_cell_exit2(args, capsys):
    rc = main(["bench", "--suite", "table2", "--count", "1", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "no table2 cell matches" in captured.err
    assert "(10, 3), (10, 6), (10, 10), (10, 25), (300, 3)" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--suite", "table1", "--n", "", "--sigma", "3", "--count", "1"],
        ["bench", "--suite", "table1", "--n", " , ", "--sigma", "3", "--count", "1"],
        ["bench", "--suite", "table1", "--n", "1_0", "--sigma", "3", "--count", "1"],
        ["bench", "--suite", "table1", "--n", "10", "--sigma", "\u0663", "--count", "1"],
        ["bench", "--suite", "table1", "--n", "10", "--sigma", "3", "--count", "1_0"],
        ["bench", "--suite", "bt", "--tmax", "\u0663"],
        ["bench", "--suite", "near_t", "--count", "1", "--seed", "1_0"],
        ["generate", "--kind", "bt", "--t", "1_0"],
        ["generate", "--kind", "near_t", "--t", "1\u0660"],
        ["generate", "--kind", "product", "--rows", "\u0663"],
        ["generate", "--kind", "product", "--cols", " 3"],
        ["generate", "--kind", "bt", "--count", "1_0"],
    ],
)
def test_integer_flags_refuse_what_matrix_files_refuse_exit2(argv, tmp_path, capsys):
    # int() takes "1_0", " 3" and non-ASCII digits, which parse_matrix
    # refuses; an empty --n list used to mean every n of the grid
    out = tmp_path / "out"
    where = ["--outdir", str(out)] if argv[0] == "generate" else ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *where])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "invalid" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("r", ["\u0661", "+\u0662", "0_1"])
def test_factor_r_refuses_what_matrix_files_refuse_exit2(r, tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--r", r, path])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_bench_n_list_keeps_blanks_and_signs(capsys):
    rc = main(["bench", "--suite", "table2", "--count", "1", "--n", " +10 ,", "--sigma", "3"])
    assert rc == 0
    assert len(_parse_csv(capsys.readouterr().out)[1]) == 1


def test_bench_bt_csv(capsys):
    rc = main(["bench", "--suite", "bt", "--tmax", "4"])
    out = capsys.readouterr().out
    assert rc == 0
    header, rows = _parse_csv(out)
    assert len(rows) == 4
    assert [int(r[2]) for r in rows] == [1, 2, 3, 4]
    assert all(int(r[8]) == 0 for r in rows)  # bt is never rank2


def test_bench_near_t_csv(capsys):
    rc = main(["bench", "--suite", "near_t", "--count", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    header, rows = _parse_csv(out)
    assert len(rows) == 3
    for r in rows:
        assert 3 <= int(r[2]) <= 100


def test_diagram_beasley(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    rc = main(["diagram", path, "--canonical", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["points"] == [[1, 2], [1, 0], [4, 3]]
    assert doc["cone"] == [[1, 0], [1, 3]]
    assert doc["canon_index"] == 1
    T = doc["transform"]
    assert abs(T[0][0] * T[1][1] - T[0][1] * T[1][0]) == 1


def test_diagram_bt4(tmp_path, capsys):
    path = write(tmp_path, "bt.txt", [[5, 4, 3], [4, 4, 4], [3, 4, 5]])
    rc = main(["diagram", path, "--canonical", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["cone"] == [[1, 0], [1, 2]]
    assert sorted(tuple(p) for p in doc["points"]) == [(4, 3), (4, 4), (4, 5)]


def test_diagram_identity_text(tmp_path, capsys):
    path = write(tmp_path, "i.txt", [[1, 0], [0, 1]])
    rc = main(["diagram", path])
    out = capsys.readouterr().out
    assert rc == 0
    assert "basis:" in out and "points:" in out and "cone:" in out
    assert "transform:" not in out


@pytest.mark.parametrize(
    "flags, text",
    [
        ([], "basis:\n2 -1\n1 0\n1 1\npoints:\n1 0\n1 2\n4 5\ncone:\n1 2\n1 -1\n"),
        (
            ["--canonical"],
            "basis:\n0 1\n1 0\n3 -1\npoints:\n1 2\n1 0\n4 3\ncone:\n1 0\n1 3\n"
            "transform:\n1 0\n2 -1\ncanon_index: 1\n",
        ),
    ],
)
def test_diagram_text_is_pinned(tmp_path, capsys, flags, text):
    path = write(tmp_path, "b.txt", BEASLEY)
    assert main(["diagram", path, *flags]) == 0
    assert capsys.readouterr().out == text


def test_diagram_r_without_canonical_exit2(tmp_path, capsys):
    path = write(tmp_path, "b.txt", BEASLEY)
    rc = main(["diagram", path, "--r", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "--canonical" in captured.err and "--r" in captured.err


def test_diagram_rank1_exit2(tmp_path, capsys):
    path = write(tmp_path, "r1.txt", [[2, 4], [1, 2]])
    assert main(["diagram", path]) == 2
    capsys.readouterr()


def test_oracle_agrees_with_factor(tmp_path, capsys):
    b = write(tmp_path, "b.txt", BEASLEY)
    assert main(["oracle", b]) == 1
    a = write(tmp_path, "a.txt", [[1, 0, 1], [0, 1, 1]])
    assert main(["oracle", a]) == 0
    out = capsys.readouterr().out
    assert "witness" in out


def test_oracle_oversized_exit2(tmp_path, capsys):
    big = write(
        tmp_path,
        "big.txt",
        [[201, 200, 199], [200, 200, 200], [199, 200, 201]],
    )
    assert main(["oracle", big]) == 2
    capsys.readouterr()


def test_factor_refuses_a_pair_bound_above_the_limit(tmp_path):
    # the near_t(10**19) file has about 10**38 pairs and never returned;
    # a child process, so a factor that does not refuse fails on the timeout
    outdir = tmp_path / "huge"
    assert main(["generate", "--kind", "near_t", "--t", str(10**19), "--outdir", str(outdir)]) == 0
    proc = run_python("-m", "nnirank2.cli", "factor", str(outdir / "near_t_0_0.txt"))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "above the limit of 200000000, and none of the first 1000000 wins" in proc.stderr
