"""A plain signed integer array that passes the int64 gate (at least
linalg._INT64_MIN_ENTRIES entries, each in [-2**20, 2**20]) is read as it
is: ``linalg._int_rows`` gives its rows as a read-only view of the int64
matrix and builds no list of them.  The layers read columns and single rows
from that matrix; a consumer that needs every row as a list builds them.
Every answer must equal the one list input gives."""

import random
import sys

import numpy as np
import pytest

from nnirank2.diagram import build_diagram, column_lattice_basis, extreme_rays, point_coordinates
from nnirank2.instances import gen_product
from nnirank2.linalg import _ArrayRows, _int_rows, as_int_matrix, det_exact, rank_exact
from nnirank2.matrixio import format_matrix
from nnirank2.reduction import build_3xm, reduce_to_3x3, row_lattice_basis, validate_equivalence
from nnirank2.solver import solve, verify_factorization


def full_size_tolists(call, X, size):
    """How many times call(X) calls ndarray.tolist on an array of size
    entries, as sys.setprofile's c_call events show them."""
    calls = []

    def profile(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "tolist":
            owner = getattr(arg, "__self__", None)
            if isinstance(owner, np.ndarray) and owner.size == size:
                calls.append(owner.dtype)

    sys.setprofile(profile)
    try:
        call(X)
    finally:
        sys.setprofile(None)
    return len(calls)


def test_solve_and_reduce_build_the_rows_of_a_large_product_at_most_once():
    A = gen_product(300, 300, 25, seed=[33, 0])[2]
    assert A.dtype == object and solve(A).verdict == "rank2"
    # only as_int_matrix's type pass over the object array lists it
    for X, most in ((A, 1), (A.astype(np.int64), 1), (A.tolist(), 0)):
        for call in (solve, reduce_to_3x3):
            n = full_size_tolists(call, X, A.size)
            assert n <= most, (call.__name__, type(X))
            if isinstance(X, np.ndarray) and X.dtype == object:
                assert n == 1, call.__name__


def gated(X):
    """X, an int64 array that passes the gate: its rows come as a view."""
    rows, M = _int_rows(X)
    assert isinstance(rows, _ArrayRows) and M.dtype == np.int64
    return X


def answer(fn, *args):
    """fn's result with every array as nested lists, or its ValueError's message."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    return repr(jsonish(out))


def jsonish(x):
    if isinstance(x, np.ndarray):
        assert x.dtype == object and all(type(v) is int for v in x.flat), x.dtype
        return x.tolist()
    if isinstance(x, (tuple, list)):
        return [jsonish(v) for v in x]
    if hasattr(x, "__dataclass_fields__"):
        return [jsonish(getattr(x, f)) for f in x.__dataclass_fields__]
    return x


def agree(fn, rows, *extra):
    """fn's answer on list input, checked equal on the gated int64 array."""
    want = answer(fn, [list(r) for r in rows], *extra)
    assert answer(fn, gated(np.array(rows, dtype=np.int64)), *extra) == want
    return want


def product(n, m, seed, top=50):
    r = random.Random(seed)
    F1 = [[1, 0], [0, 1]] + [[r.randint(0, top), r.randint(0, top)] for _ in range(n - 2)]
    F2 = [[1, 0] + [r.randint(0, 3) for _ in range(m - 2)], [0, 1] + [r.randint(0, 3) for _ in range(m - 2)]]
    return [[a * x + b * y for x, y in zip(*F2)] for a, b in F1], F1, F2


def test_det_exact_lists_the_rows_and_leaves_the_array_alone():
    r = random.Random(1)
    rows = [[r.randint(-(2**20), 2**20) for _ in range(20)] for _ in range(20)]
    X = gated(np.array(rows, dtype=np.int64))
    before = X.copy()
    assert det_exact(X) == det_exact(rows) != 0
    assert np.array_equal(X, before)
    rows[3] = [-x for x in rows[5]]
    assert agree(det_exact, rows) == "0"


def test_rank_above_2_is_named_by_bareiss():
    r = random.Random(2)
    F = [[r.randint(0, 9) for _ in range(3)] for _ in range(20)]
    G = [[r.randint(0, 9) for _ in range(20)] for _ in range(3)]
    rank3 = [[sum(a * b for a, b in zip(f, g)) for g in zip(*G)] for f in F]
    assert agree(rank_exact, rank3) == "3"
    assert agree(build_diagram, rank3) == "matrix must have rank 2, got rank 3"
    full = [[r.randint(-(2**20), 2**20) for _ in range(20)] for _ in range(20)]
    assert agree(rank_exact, full) == "20"


def test_point_coordinates_names_the_column_off_the_lattice():
    A, F1, F2 = product(20, 20, seed=3)
    # the basis doubles F1's first column: a column with an odd first
    # coefficient has a half-integer coordinate
    F2[0] = [2 * x for x in F2[0]]
    F2[0][7] += 1
    A = [[a * x + b * y for x, y in zip(*F2)] for a, b in F1]
    basis = [[2 * a, b] for a, b in F1]
    assert agree(point_coordinates, A, basis) == "column 7 has no integer coordinates in the basis"
    assert agree(point_coordinates, A, F1) == repr([list(p) for p in zip(*F2)])


def test_verify_factorization_with_a_factor_entry_over_2_20():
    r = random.Random(4)
    F1 = [[0, r.randint(0, 30)] for _ in range(20)]
    F2 = [[2**20 + 1] * 20, [r.randint(0, 30) for _ in range(20)]]
    A = [[b * y for y in F2[1]] for _, b in F1]
    assert agree(verify_factorization, A, F1, F2) == "True"
    A[5][6] += 1
    assert agree(verify_factorization, A, F1, F2) == "False"
    # and a forgery the int64 product catches
    A, F1, F2 = product(20, 20, seed=5)
    assert agree(verify_factorization, A, F1, F2) == "True"
    A[0][0] += 1
    assert agree(verify_factorization, A, F1, F2) == "False"


def test_validate_equivalence_stacks_lists():
    A = product(20, 20, seed=6)[0]
    B = build_3xm(A)[0].tolist()
    assert agree(validate_equivalence, A, B) == repr([True, True, True])
    # twice B's rows: the same row space and cone, a sublattice of index 4
    assert agree(validate_equivalence, A, [[2 * x for x in row] for row in B]) == repr([True, False, True])


def test_format_and_coerce_give_python_ints():
    A = product(20, 20, seed=7)[0]
    X = gated(np.array(A, dtype=np.int64))
    assert format_matrix(X) == format_matrix(A)
    out = as_int_matrix(X)
    assert out.dtype == object and all(type(v) is int for v in out.flat)
    assert out.tolist() == as_int_matrix(A).tolist() == A


CALLS = {
    "rank_exact": rank_exact,
    "build_diagram": build_diagram,
    "column_lattice_basis": column_lattice_basis,
    "extreme_rays": extreme_rays,
    "row_lattice_basis": row_lattice_basis,
    "build_3xm": build_3xm,
    "solve": solve,
    "reduce_to_3x3": lambda A: reduce_to_3x3(A)[0],
}


@pytest.mark.parametrize("call", list(CALLS))
def test_a_zero_first_column_and_a_parallel_second_one(call):
    A = product(20, 20, seed=8)[0]
    for row in A:
        row[0], row[2] = 0, 3 * row[1]  # the columns after them keep rank 2
    assert agree(rank_exact, A) == "2"
    agree(CALLS[call], A)


@pytest.mark.filterwarnings("ignore::PendingDeprecationWarning")  # np.matrix
@pytest.mark.parametrize("form", ["matrix", "uint16"])
def test_matrix_and_unsigned_input_keep_the_list_path(form):
    A = product(20, 20, seed=9)[0]
    X = np.matrix(A) if form == "matrix" else np.array(A, dtype=np.uint16)
    rows, array = _int_rows(X)
    assert type(rows) is list and rows == A and array is None
    for fn in CALLS.values():
        assert answer(fn, X) == answer(fn, A)
