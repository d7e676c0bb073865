"""The int64 hand-off: ``solve`` and ``reduce_to_3x3`` type-check A once in
``as_int_matrix`` and, at every size, give their layers one int64 copy of
it, which ``linalg._int_rows`` takes without a type pass; when an entry is
outside int64 the layers get the object array.  Whether a layer runs numpy
or Python-int arithmetic is linalg's own size cut, _INT64_MIN_ENTRIES.
Every answer must equal the one the object array gives."""

import dataclasses
import random

import numpy as np
import pytest

from nnirank2 import diagram, linalg, matrixio, reduction, solver
from nnirank2.diagram import build_diagram, column_lattice_basis, extreme_rays, point_coordinates
from nnirank2.linalg import _int_rows, rank_exact
from nnirank2.reduction import build_3xm, reduce_to_3x3, row_lattice_basis
from nnirank2.solver import solve, verify_factorization


def python_ints(x):
    """x with every array turned into nested lists, after checking that each
    array is an object array and that every int anywhere is a Python int."""
    if isinstance(x, np.ndarray):
        assert x.dtype == object and all(type(v) is int for v in x.flat), x.dtype
        return ("array", x.shape, x.tolist())
    if dataclasses.is_dataclass(x):
        return (type(x).__name__, *(python_ints(getattr(x, f.name)) for f in dataclasses.fields(x)))
    if isinstance(x, (tuple, list)):
        return tuple(python_ints(v) for v in x)
    assert x is None or type(x) in (int, bool, str), type(x)
    return x


def answer(fn, *args):
    """fn's result as python_ints gives it, or its ValueError's message."""
    try:
        return python_ints(fn(*args))
    except ValueError as exc:
        return str(exc)


# --- linalg._int_rows -----------------------------------------------------

@pytest.mark.parametrize(
    "dtype, rows",
    [
        (np.int8, [[0, -1, 5], [127, -128, 3]]),
        (np.int32, [[0, -(2**31), 5], [2**31 - 1, 7, 3]]),
        (np.int64, [[-(2**63), 2**63 - 1], [0, 1]]),
    ],
)
def test_signed_arrays_give_the_object_arrays_rows(dtype, rows):
    X = np.array(rows, dtype=dtype)
    got, array = _int_rows(X)
    assert got == _int_rows(np.array(rows, dtype=object))[0] == rows
    assert all(type(x) is int for row in got for x in row)
    assert array is X


def test_uint64_is_never_handed_to_astype():
    X = np.full((20, 20), 2**64 - 1, dtype=np.uint64)
    rows, array = _int_rows(X)
    assert array is None and rows[0][0] == 2**64 - 1
    assert linalg._int64_matrix(rows, array) is None
    assert rank_exact(X) == 1


@pytest.mark.parametrize(
    "data, message",
    [
        # rows are checked in order, each for its length and then its entries
        ([[1, 2], [1.5, 0], [3]], "entries must be integers, got 1.5"),
        ([[1, 2], [3], [1.5, 0]], "ragged matrix: row 1 has 1 entries, expected 2"),
        (np.array([[1.0, 2.0]]), "entries must be integers, got 1.0"),
        (np.array([["1", "2"]]), "entries must be integers, got '1'"),
        (np.array([[1, 2], [3, 4]], dtype=np.float32), "entries must be integers, got 1.0"),
        (np.array([[True, False], [False, True]]), "entries must be integers, got the bool True"),
    ],
)
def test_malformed_input_keeps_its_message(data, message):
    with pytest.raises(ValueError) as exc:
        _int_rows(data)
    assert str(exc.value) == message


# --- public entry points on every input form ------------------------------


def product(n, m, lo, hi, seed, rank=2):
    """A nonnegative n x m product F1 @ F2 of rank <= 2 and its factors.  F1
    holds the rows (1, 0) and (0, 1), so the column points are F2's columns
    and stay small; its other entries are drawn from [lo, hi].  F2's
    entries are in [0, 3].  At rank 1, F1's second column is zero."""
    r = random.Random(seed)
    F1 = [[1, 0], [0, 1]] + [[r.randint(lo, hi), r.randint(lo, hi)] for _ in range(n - 2)]
    F2 = [[1, 0] + [r.randint(0, 3) for _ in range(m - 2)], [0, 1] + [r.randint(0, 3) for _ in range(m - 2)]]
    if rank == 1:
        F1 = [[a, 0] for a, _ in F1]
        F1[1][0] = r.randint(lo, hi)
    A = [[a * x + b * y for x, y in zip(*F2)] for a, b in F1]
    return A, F1, F2


FORMS = {
    "list": lambda X: [list(row) for row in X],
    "object": lambda X: np.array(X, dtype=object),
    "int64": lambda X: np.array(X, dtype=np.int64),
}

ENTRY_POINTS = {
    "rank_exact": lambda A, F1, F2: rank_exact(A),
    "build_diagram": lambda A, F1, F2: build_diagram(A),
    "column_lattice_basis": lambda A, F1, F2: column_lattice_basis(A),
    "point_coordinates": lambda A, F1, F2: point_coordinates(A, F1),
    "extreme_rays": lambda A, F1, F2: extreme_rays(A),
    "build_3xm": lambda A, F1, F2: build_3xm(A),
    "row_lattice_basis": lambda A, F1, F2: row_lattice_basis(A),
    "verify_factorization": lambda A, F1, F2: verify_factorization(A, F1, F2),
}

# under and over the size cut, with entries under 2**20 and between 2**20
# and 2**63 (int64 input cannot hold larger ones)
MATRICES = {
    "4 x 5": product(4, 5, 0, 50, seed=1),
    "20 x 20": product(20, 20, 0, 2**17, seed=2),
    "20 x 20 over 2**20": product(20, 20, 2**40, 2**41, seed=3),
}


@pytest.mark.parametrize("matrix", list(MATRICES))
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_public_entry_points_agree_on_every_input_form(entry, matrix):
    fn = ENTRY_POINTS[entry]
    answers = {name: answer(fn, *map(form, MATRICES[matrix])) for name, form in FORMS.items()}
    assert answers["list"] == answers["object"] == answers["int64"], entry
    assert not isinstance(answers["list"], str), answers["list"]
    if entry == "verify_factorization":
        assert answers["list"] is True


# --- the size cut and the magnitude bands ---------------------------------

# entries at most 2**20, in (2**20, 2**63), and at least 2**63, where the
# cast raises OverflowError and the layers get the object array
BANDS = {"small": (0, 2**17), "int64": (2**40, 2**41), "above int64": (2**63, 2**64)}
# 9 entries, and 299 and 300, just under and at the size cut
SHAPES = [(13, 23), (15, 20), (3, 3)]


def python_answers(fn, X, monkeypatch):
    """fn's answers on list, object-array and (when it fits) int64-array
    input, then on the object array with the size cut out of reach."""
    forms = [FORMS["list"](X), FORMS["object"](X)]
    if max(map(max, X)) < 2**63:
        forms.append(FORMS["int64"](X))
    answers = [answer(fn, A) for A in forms]
    with monkeypatch.context() as m:
        m.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)
        answers.append(answer(fn, forms[1]))
    return answers


def reduced(A):
    C, trace = reduce_to_3x3(A)
    return C, trace.three_by_m, trace.input, trace.stages


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("band", list(BANDS))
def test_solve_and_reduce_on_both_sides_of_the_cut(monkeypatch, shape, band):
    (n, m), (lo, hi) = shape, BANDS[band]
    A = product(n, m, lo, hi, seed=n * m)[0]
    assert n * m in (9, linalg._INT64_MIN_ENTRIES - 1, linalg._INT64_MIN_ENTRIES)
    top = max(map(max, A))
    assert {"small": top <= 2**20, "int64": 2**20 < top < 2**63, "above int64": 2**63 <= top}[band]
    for fn in (solve, reduced):
        answers = python_answers(fn, A, monkeypatch)
        assert all(a == answers[0] for a in answers), fn.__name__
    assert solve(A).verdict == "rank2"
    R1 = product(n, m, lo, hi, seed=n * m + 1, rank=1)[0]
    answers = python_answers(solve, R1, monkeypatch)
    assert all(a == answers[0] for a in answers)
    assert solve(R1).verdict == "rank_le_1"
    assert answer(reduced, R1) == "matrix must have rank 2, got rank 1"


@pytest.mark.parametrize("band", list(BANDS))
def test_a_negative_entry_over_the_cut_is_refused_before_the_rank(band):
    lo, hi = BANDS[band]
    r = random.Random(7)
    X = [[r.randint(lo, hi) for _ in range(20)] for _ in range(15)]
    X[14][19] = -X[14][19]
    assert rank_exact(X) > 2
    forms = [FORMS["list"](X), FORMS["object"](X)] + ([FORMS["int64"](X)] if band != "above int64" else [])
    for A in forms:
        for fn in (solve, reduce_to_3x3):
            with pytest.raises(ValueError, match="matrix must be nonnegative"):
                fn(A)


# --- one type pass over A per call -----------------------------------------


def passes_over(A, call, monkeypatch):
    """The dtypes in which A reaches linalg._int_rows while call(A) runs:
    "list" for nested lists, the dtype's name for an array of A's entries
    (a 3 x 3 A shares its shape with reduce_to_3x3's later matrices)."""
    seen = []
    real = linalg._int_rows
    entries = np.asarray(A, dtype=object)

    def recorded(data):
        if isinstance(data, np.ndarray):
            if data.shape == entries.shape and (data == entries).all():
                seen.append(data.dtype.name)
        elif data is A:
            seen.append("list")
        return real(data)

    for module in (linalg, diagram, reduction, solver, matrixio):
        if hasattr(module, "_int_rows"):
            monkeypatch.setattr(module, "_int_rows", recorded)
    call(A)
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("band", list(BANDS))
def test_every_matrix_gets_one_type_pass_per_call(monkeypatch, band):
    lo, hi = BANDS[band]
    object_only = band == "above int64"  # the cast overflows: every layer reads the object array
    for n, m in ((3, 3), (13, 23), (15, 20)):
        A = np.array(product(n, m, lo, hi, seed=11)[0], dtype=object)
        assert solve(A).verdict == "rank2"
        # as_int_matrix, rank_exact, build_diagram, verify_factorization;
        # as_int_matrix and the first build_3xm
        for call, layers in ((solve, 4), (reduce_to_3x3, 2)):
            seen = passes_over(A, call, monkeypatch)
            assert len(seen) == layers
            # otherwise only as_int_matrix does, at every size
            assert seen.count("object") == (layers if object_only else 1), (call.__name__, n * m)
            assert seen.count("int64") == (0 if object_only else layers - 1)
        assert passes_over(A.tolist(), solve, monkeypatch)[0] == "list"
