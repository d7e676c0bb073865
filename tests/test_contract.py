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


def object_matrix(entry):
    """The 2 x 2 identity as an object array, with entry at (1, 1)."""
    A = np.empty((2, 2), dtype=object)
    A[:] = [[1, 0], [0, 1]]
    A[1, 1] = entry
    return A


NOT_INTEGER = [
    [[True, False], [False, True]],
    np.array([[True, False], [False, True]]),
    [[1, np.True_], [0, 1]],
    [[1.5, 0], [0, 1]],
    [[1, 0], [0, np.float64(1.0)]],
    [["1", 0], [0, 1]],
    [[Fraction(1), 0], [0, 1]],
    *(object_matrix(x) for x in (True, 1.0, Fraction(1), "1", [1])),
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
    for data in (
        [[2, 0], [0, 3]],
        np.array([[2, 0], [0, 3]]),
        [[np.int64(2), 0], [0, np.uint8(3)]],
        np.array([[np.int64(2), np.int64(0)], [np.int64(0), np.int64(3)]], dtype=object),
    ):
        M = as_int_matrix(data)
        assert M.tolist() == [[2, 0], [0, 3]]
        assert all(type(x) is int for x in M.flat)
    assert solve(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)).verdict == "rank2"


def test_an_exact_object_array_comes_back_as_a_copy():
    A = np.array([[1, 2], [3, 2**70]], dtype=object)
    M = as_int_matrix(A)
    assert M is not A and M.tolist() == [[1, 2], [3, 2**70]]
    M[0, 0] = 9
    assert A[0, 0] == 1
    A[1, 1] = 5
    assert M[1, 1] == 2**70


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
def test_matrix_and_masked_object_input_come_back_as_plain_arrays():
    rows = [[1, 2], [3, 4]]
    for data in (np.asmatrix(np.array(rows, dtype=object)), np.ma.array(np.array(rows, dtype=object))):
        M = as_int_matrix(data)
        assert type(M) is np.ndarray and M.dtype == object
        assert M.tolist() == rows and all(type(x) is int for x in M.flat)


def test_views_of_an_object_array_give_their_own_entries():
    A = np.array([[1, 2, 3, 4], [5, 6, 7, 8]], dtype=object)
    assert as_int_matrix(A.T).tolist() == [[1, 5], [2, 6], [3, 7], [4, 8]]
    assert as_int_matrix(A[:, ::2]).tolist() == [[1, 3], [5, 7]]


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
