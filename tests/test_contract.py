"""One input contract for every entry point: integer entries only (no bools,
floats or strings), ValueError otherwise, exit code 2 in the CLI."""

from fractions import Fraction

import numpy as np
import pytest

import nnirank2
from nnirank2 import diagram, linalg, matrixio, reduction, solver
from nnirank2.cli import main
from nnirank2.diagram import Diagram, build_diagram
from nnirank2.instances import gen_product
from nnirank2.linalg import as_int_matrix, rank_exact
from nnirank2.reduction import reduce_to_3x3, validate_equivalence
from nnirank2.solver import SolveOutcome, solve, verify_factorization


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
    for r in (0, 3, -1, 2.0, True):
        with pytest.raises(ValueError, match="canonization index"):
            solve(A, r=r)


def test_every_public_name_resolves():
    missing = [name for name in nnirank2.__all__ if not hasattr(nnirank2, name)]
    assert missing == []
    namespace: dict = {}
    exec("from nnirank2 import *", namespace)
    assert set(nnirank2.__all__) <= set(namespace)


def zero_one_rank2(n, m):
    """An n x m matrix of 0s and 1s of rank 2: rows u, v and u + v in turn,
    for u and v with disjoint supports."""
    u = [j % 2 for j in range(m)]
    v = [1 - x for x in u]
    return [(u, v, [1] * m)[i % 3] for i in range(n)]


def outcome(fn, *args):
    """fn's answer in a comparable form, or its ValueError's message."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    if isinstance(out, SolveOutcome):
        cert = out.certificate
        return out.verdict, out.pairs_examined, cert and (cert.F1.tolist(), cert.F2.tolist())
    if isinstance(out, Diagram):
        return out.basis.tolist(), out.points, out.cone_gens
    return out


# 20 x 20 zero-one matrices, over the int64 size cut, times a scale at or
# past the edges of the int64 span check and of int64 itself
Z = zero_one_rank2(20, 20)
U, V = Z[:2]
CAST_CASES = {
    "uint64 2**64-1": (np.array(Z, dtype=np.uint64) * np.uint64(2**64 - 1), 2**64 - 1),
    "object 2**63": (np.array(Z, dtype=object) * 2**63, 2**63),
    **{f"int64 {s}": (np.array(Z, dtype=np.int64) * s, s) for s in (2**20, -(2**20), 2**20 + 1, -(2**20) - 1)},
}


@pytest.mark.parametrize("case", list(CAST_CASES))
def test_int64_casts_give_the_python_int_answers(monkeypatch, case):
    X, s = CAST_CASES[case]
    assert linalg._INT64_MIN_ENTRIES <= X.size
    assert isinstance(linalg._int_matrix(X), linalg._ArrayRows) == (abs(s) <= 2**20)
    # the certificate (1, 0), (0, 1), (1, 1) in turn times the rows u and v, scaled
    F1 = np.array([[(1, 0), (0, 1), (1, 1)][i % 3] for i in range(20)], dtype=X.dtype)
    F2 = np.array([U, V], dtype=X.dtype) * X.dtype.type(s)
    calls = [(rank_exact, X), (build_diagram, X), (solve, X), (verify_factorization, X, F1, F2)]
    answers = [outcome(*call) for call in calls]
    monkeypatch.setattr(linalg, "_INT64_MIN_ENTRIES", 10**9)
    assert answers == [outcome(*call) for call in calls]
    # no entry wrapped: the scale's sign decides
    assert answers[0] == 2
    if s > 0:
        assert answers[2][0] == "rank2" and answers[3] is True
    else:
        assert answers[1] == answers[2] == "matrix must be nonnegative" and answers[3] is False


class IntByIndex:
    """0 to operator.index, as the contract reads entries; 5 to int(), which
    numpy's astype from an object array calls."""

    def __index__(self):
        return 0

    def __int__(self):
        return 5


def test_an_object_array_is_cast_by_astype_only_when_it_holds_python_ints():
    X = np.array(Z, dtype=object)
    X[0, 0] = IntByIndex()  # Z[0][0] is 0
    assert rank_exact(X) == 2 and as_int_matrix(X).tolist() == Z


# (validations, casts) of each public call on a 20 x 20 product: each of its
# matrices is validated once (linalg._int_rows) and cast to int64 at most
# once (linalg._int64_view, or linalg._int64_rows for each factor of a
# certificate).
# solve and reduce_to_3x3 count those of the public calls they make.
PASSES = {
    nnirank2.as_int_matrix: (1, 0),
    nnirank2.smith_normal_form: (1, 0),
    nnirank2.det_exact: (1, 0),
    nnirank2.rank_exact: (1, 1),
    nnirank2.column_lattice_basis: (1, 1),
    nnirank2.point_coordinates: (2, 1),
    nnirank2.extreme_rays: (1, 1),
    nnirank2.build_diagram: (1, 1),
    reduction.row_lattice_basis: (1, 1),
    nnirank2.build_3xm: (1, 1),
    nnirank2.validate_equivalence: (2, 1),
    nnirank2.verify_factorization: (3, 2),
    # as_int_matrix, rank_exact, build_diagram, verify_factorization
    nnirank2.solve: (6, 4),
    # as_int_matrix, build_3xm twice, rank_exact
    nnirank2.reduce_to_3x3: (4, 3),
}


def test_each_public_call_validates_once_and_casts_at_most_once(monkeypatch):
    A = next(A for A in (gen_product(20, 20, 3, seed=[2618, i])[2] for i in range(20))
             if solve(A).verdict == "rank2")
    cert = solve(A).certificate
    basis = nnirank2.column_lattice_basis(A)
    B1 = nnirank2.build_3xm(A)[0]
    args = {nnirank2.point_coordinates: (basis,), nnirank2.validate_equivalence: (B1,),
            nnirank2.verify_factorization: (cert.F1, cert.F2)}
    counts = {"validate": 0, "cast": 0, "fromiter": 0}

    def counted(key, fn):
        def wrapper(*a, **k):
            counts[key] += 1
            return fn(*a, **k)
        return wrapper

    everywhere = (linalg, diagram, reduction, solver, matrixio)
    # the certificate's factors are cast under solver's name for
    # _int64_rows; linalg's own calls cast a basis or go through _int64_view
    for key, name, modules in (("validate", "_int_rows", everywhere), ("cast", "_int64_view", everywhere),
                               ("cast", "_int64_rows", (solver,))):
        fn = counted(key, getattr(modules[0], name))
        for module in modules:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, fn)
    fromiter = np.fromiter

    def counted_fromiter(it, dtype, count=-1, **k):
        # a pass over a whole matrix, not over a basis or a certificate
        counts["fromiter"] += count >= A.size
        return fromiter(it, dtype, count, **k)

    monkeypatch.setattr(np, "fromiter", counted_fromiter)
    for call, want in PASSES.items():
        for data in (A, A.tolist()):
            counts.update(validate=0, cast=0, fromiter=0)
            call(data, *args.get(call, ()))
            assert (counts["validate"], counts["cast"]) == want, call.__name__
            # an object array is cast by astype; nested lists, and the rows
            # validate_equivalence stacks, go through fromiter
            by_astype = data is A and call is not nnirank2.validate_equivalence
            assert counts["fromiter"] <= (0 if by_astype else want[1]), call.__name__
