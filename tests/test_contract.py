"""One input contract for every entry point: integer entries only (no bools,
floats or strings), ValueError otherwise, exit code 2 in the CLI."""

from fractions import Fraction

import numpy as np
import pytest

import nnirank2
from nnirank2.cli import main
from nnirank2.diagram import build_diagram
from nnirank2.linalg import as_int_matrix, rank_exact
from nnirank2.reduction import reduce_to_3x3, validate_equivalence
from nnirank2.solver import solve, verify_factorization

NOT_INTEGER = [
    [[True, False], [False, True]],
    np.array([[True, False], [False, True]]),
    [[1, np.True_], [0, 1]],
    [[1.5, 0], [0, 1]],
    [[1, 0], [0, np.float64(1.0)]],
    [["1", 0], [0, 1]],
    [[Fraction(1), 0], [0, 1]],
]


@pytest.mark.parametrize("bad", NOT_INTEGER)
def test_entry_points_reject_non_integer_entries(bad):
    for entry in (as_int_matrix, rank_exact, solve, reduce_to_3x3, build_diagram):
        with pytest.raises(ValueError):
            entry(bad)
    with pytest.raises(ValueError):
        validate_equivalence([[1, 0], [0, 1]], bad)
    assert not verify_factorization(bad, [[1, 0], [0, 1]], [[1, 0], [0, 1]])


def test_integer_types_are_accepted_as_python_ints():
    for data in ([[2, 0], [0, 3]], np.array([[2, 0], [0, 3]]), [[np.int64(2), 0], [0, np.uint8(3)]]):
        M = as_int_matrix(data)
        assert M.tolist() == [[2, 0], [0, 3]]
        assert all(type(x) is int for x in M.flat)
    assert solve(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)).verdict == "rank2"


@pytest.mark.parametrize("bad", [[], [[]], [[1, 2], [3]], [1, 2], np.array([1, 2]), 5])
def test_malformed_shapes_raise_value_error(bad):
    with pytest.raises(ValueError):
        as_int_matrix(bad)


# each text and the line of its first bad token; "1_0" and the Arabic-Indic
# digit three are ints to int(), but not base-10 integers in ASCII
BAD_TEXTS = {
    "1.5 0\n0 1\n": 1,
    "True 0\n0 1\n": 1,
    "1 0\n0 x\n": 2,
    "1_0 0\n0 1\n": 1,
    "1 0\n0 \u0663\n": 2,
}


@pytest.mark.parametrize("text", list(BAD_TEXTS))
@pytest.mark.parametrize("command", ["factor", "reduce", "diagram"])
def test_cli_exits_2_on_non_integer_entries(tmp_path, capsys, text, command):
    path = tmp_path / "m.txt"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {BAD_TEXTS[text]}:")



@pytest.mark.parametrize(
    "A",
    [
        [[1, 1], [1, 1]],  # rank 1
        [[0, 0], [0, 0]],  # rank 0
        [[1, 0, 1], [0, 1, 1]],  # rank 2
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # rank 3: r is checked before the rank
        [[1, 0], [0, -1]],  # negative: r is checked before the entries
    ],
)
def test_solve_rejects_a_bad_canonization_index_first(A):
    for r in (0, 3, -1):
        with pytest.raises(ValueError, match="canonization index"):
            solve(A, r=r)


def test_every_public_name_resolves():
    missing = [name for name in nnirank2.__all__ if not hasattr(nnirank2, name)]
    assert missing == []
    namespace: dict = {}
    exec("from nnirank2 import *", namespace)
    assert set(nnirank2.__all__) <= set(namespace)
