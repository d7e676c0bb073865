"""Seeded contract fuzzer for the command line and the matrix parser.

Every call of ``cli.main`` must end within LIMIT_S seconds with exit 0, 1
or 2 (argparse's usage error is SystemExit(2)), raise nothing else, and on
exit 2 leave no --outdir or --output path behind.  ``parse_matrix`` must
return a matrix or raise ValueError on any token stream.
"""

import random
import signal

from nnirank2.cli import main
from nnirank2.instances import gen_near_t
from nnirank2.matrixio import format_matrix, parse_matrix

SEED = 2026
LIMIT_S = 4

BIG = "1" + "0" * 3999  # a 4,000-digit entry
# matrix files as the bytes they hold
FILES = {
    "empty": b"",
    "comments": b"# a comment\n\n# another\n",
    "ragged": b"1 2 3\n4 5\n",
    "negative": b"1 -2\n3 4\n",
    "rank0": b"0 0\n0 0\n",
    "rank1": b"1 2 3\n2 4 6\n",
    "rank3": b"1 0 0\n0 1 0\n0 0 1\n",
    "beasley": b"2 0 3\n1 1 4\n1 3 9\n",
    "one_row": b"1 2 3\n",
    "one_column": b"1\n2\n3\n",
    "zero_column": b"1 0 2\n3 0 4\n4 0 6\n",
    "duplicate_columns": b"1 1 2\n3 3 4\n4 4 6\n",
    "big_entry": f"{BIG} 1\n1 1\n".encode(),
    "big_entry_3x3": f"{BIG} 1 0\n1 1 1\n{BIG} 2 1\n".encode(),
    "not_utf8": b"1 2\n\xff\xfe 3\n",
    "underscore": b"1_0 2\n3 4\n",
    "non_ascii_digits": "١ 2\n3 ٤\n".encode(),
    "near_t_1e19": format_matrix(gen_near_t(10**19, seed=0)).encode(),
}
# hostile values for the integer and sigma flags
TOKENS = ["0", "-1", "1_0", "٣", "３", "١٠", "inf", "nan", ""]
# the flags each matrix subcommand takes: a switch (None), a path or --r
MATRIX_FLAGS = {
    "factor": {"--json": None, "--explain": None, "--r": "r"},
    "reduce": {"--trace": None, "--output": "path"},
    "diagram": {"--canonical": None, "--json": None, "--r": "r"},
    "oracle": {},
}
GENERATE_FLAGS = ["--rows", "--cols", "--sigma", "--t", "--seed", "--count"]
# a bench with none of these runs its suite's full grid, which is long by
# design, so every bench vector carries at least one of them
BENCH_BOUNDING = ["--count", "--tmax", "--n", "--sigma"]


def subset(rng, items, least=0):
    k = rng.randint(least, len(items))
    return rng.sample(items, k)


def matrix_vector(rng, command, name, every_flag):
    """command on the file name: with every flag and a valid --r, or with
    a random subset of its flags and --r from the hostile tokens too."""
    flags = MATRIX_FLAGS[command]
    argv = [command]
    for flag in flags if every_flag else subset(rng, list(flags)):
        if flags[flag] is None:
            argv.append(flag)
        elif flags[flag] == "path":
            argv += [flag, "{out}"]
        else:
            argv += [flag, rng.choice(["1", "2"] + ([] if every_flag else TOKENS))]
    return argv + ["{dir}/" + name]


def vectors():
    rng = random.Random(SEED)
    out = [matrix_vector(rng, command, name, True) for command in MATRIX_FLAGS for name in FILES]
    for _ in range(78):
        command, name = rng.choice(list(MATRIX_FLAGS)), rng.choice(list(FILES))
        out.append(matrix_vector(rng, command, name, False))
    for _ in range(75):
        argv = ["generate", "--kind", rng.choice(["product", "bt", "near_t"])]
        for flag in subset(rng, GENERATE_FLAGS):
            argv += [flag, rng.choice(TOKENS)]
        out.append(argv + ["--outdir", "{out}"])
    for _ in range(75):
        argv = ["bench", "--suite", rng.choice(["table1", "table2", "bt", "near_t"])]
        for flag in subset(rng, BENCH_BOUNDING, least=1) + subset(rng, ["--seed"]):
            argv += [flag, rng.choice(TOKENS)]
        out.append(argv + ["--out", "{out}"])
    return out


class Overtime(Exception):
    pass


def _overtime(signum, frame):
    raise Overtime


def run_main(argv) -> int:
    """main(argv) under a LIMIT_S wall-clock limit; SystemExit is its code."""
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_cli_contract_on_hostile_arguments(tmp_path, capsys):
    for name, data in FILES.items():
        (tmp_path / name).write_bytes(data)
    cases = vectors()
    assert 290 <= len(cases) <= 310
    codes = set()
    for i, template in enumerate(cases):
        out = tmp_path / f"out{i}"
        argv = [arg.format(dir=tmp_path, out=out) for arg in template]
        rc = run_main(argv)
        capsys.readouterr()
        assert rc in (0, 1, 2), argv
        if rc == 2:
            assert not out.exists(), argv
        codes.add(rc)
    assert codes == {0, 1, 2}


# the token streams fed to parse_matrix: rows of tokens, mostly integers
INTEGERS = ["0", "1", "7", "-3", "+12", "-0", "007", BIG]
HOSTILE = ["9" * 5000, "1_0", "٣", "３", "x", "1e3", "0x1f", "1.5", "#", "-", "\x00"]
SEPARATORS = [" ", "\t", "   ", "\u00a0", "\u3000", "\x0b"]
BREAKS = ["\n", "\r\n", "\r", "\x85", "\u2028", "\n# comment\n", "\n\n"]


def token_stream(rng) -> str:
    width = rng.randint(1, 4)
    lines = []
    for _ in range(rng.randint(0, 5)):
        k = width if rng.random() < 0.9 else rng.randint(0, 5)
        tokens = [rng.choice(INTEGERS if rng.random() < 0.95 else HOSTILE) for _ in range(k)]
        lines.append(rng.choice(SEPARATORS).join(tokens))
    return "".join(line + rng.choice(BREAKS) for line in lines)


def test_parse_matrix_returns_a_matrix_or_raises_value_error():
    rng = random.Random(SEED)
    parsed = 0
    for _ in range(2000):
        text = token_stream(rng)
        try:
            M = parse_matrix(text)
        except ValueError:
            continue
        assert M.ndim == 2 and M.size > 0, repr(text)
        parsed += 1
    assert 200 < parsed < 1800
