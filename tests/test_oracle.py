import random

import pytest

from nnirank2.diagram import Diagram, build_diagram, canonicalize
from nnirank2.instances import gen_bt, gen_product
from nnirank2.linalg import as_int_matrix
from nnirank2.oracle import brute_force, generated_by
from nnirank2.solver import RANK2, search


def test_generated_by_examples():
    assert not generated_by((4, 3), (1, 0), (1, 2))
    assert generated_by((0, 0), (3, 7), (2, 9))
    assert generated_by((2, 4), (1, 1), (1, 3))  # k = l = 1


def test_generated_by_parallel_pair():
    assert generated_by((6, 3), (2, 1), (4, 2))
    assert generated_by((6, 3), (4, 2), (2, 1))
    assert not generated_by((5, 3), (2, 1), (4, 2))


def test_generated_by_symmetry_and_primitivization():
    rng = random.Random(11)
    for _ in range(300):
        p = (rng.randint(0, 12), rng.randint(0, 12))
        a = (rng.randint(0, 5), rng.randint(0, 5))
        b = (rng.randint(0, 5), rng.randint(0, 5))
        if a == (0, 0) or b == (0, 0):
            continue
        res = generated_by(p, a, b)
        assert res == generated_by(p, b, a)
        if res:
            from nnirank2.linalg import primitive_point

            assert generated_by(p, primitive_point(a), primitive_point(b))


def test_brute_force_beasley(beasley):
    cd = canonicalize(build_diagram(beasley), 1)
    verdict = brute_force(cd)
    assert not verdict.rank2
    assert verdict.witness is None
    assert verdict.pairs_enumerated > 0


def test_brute_force_bt():
    for t in (1, 3, 6, 10):
        cd = canonicalize(build_diagram(gen_bt(t)), 1)
        assert not brute_force(cd).rank2


def test_brute_force_trivial_witness():
    A = [[1, 0, 1], [0, 1, 1]]
    cd = canonicalize(build_diagram(A), 1)
    verdict = brute_force(cd)
    assert verdict.rank2
    w = verdict.witness
    assert all(generated_by(p, w.a, w.b) for p in cd.points)


def test_brute_force_coordinate_cap():
    cd = canonicalize(build_diagram(gen_bt(150)), 1)
    with pytest.raises(ValueError):
        brute_force(cd)


def test_oracle_solver_agreement():
    done = 0
    i = 0
    while done < 100:
        _, _, A = gen_product(3, 3, 3, seed=[111, i])
        i += 1
        cd = canonicalize(build_diagram(A), 1)
        if max(max(p) for p in cd.points) > 50:
            continue
        assert brute_force(cd).rank2 == (search(cd).verdict == RANK2)
        done += 1


def test_brute_force_unimodular_invariance():
    rng = random.Random(12)
    for i in range(40):
        _, _, A = gen_product(3, 3, 3, seed=[222, i])
        d = build_diagram(A)
        cd = canonicalize(d, 1)
        if max(max(p) for p in cd.points) > 40:
            continue
        base = brute_force(cd).rank2
        # twist the diagram by a random unimodular map, re-canonicalize
        U = as_int_matrix([[1, rng.randint(-2, 2)], [0, 1]]) @ as_int_matrix(
            [[1, 0], [rng.randint(-2, 2), 1]]
        )
        Uinv = as_int_matrix(
            [[int(U[1, 1]), -int(U[0, 1])], [-int(U[1, 0]), int(U[0, 0])]]
        )

        def apply(p):
            return (
                int(U[0, 0]) * p[0] + int(U[0, 1]) * p[1],
                int(U[1, 0]) * p[0] + int(U[1, 1]) * p[1],
            )

        twisted = Diagram(
            basis=d.basis @ Uinv,
            points=tuple(apply(p) for p in d.points),
            cone_gens=tuple(apply(g) for g in d.cone_gens),
        )
        for r in (1, 2):
            assert brute_force(canonicalize(twisted, r)).rank2 == base
