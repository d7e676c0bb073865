"""Behaviour pin: a digest of solve's full output over a seeded corpus, a
digest of the reduction's output on the same corpus, the default solve (no
rejection records, no Fractions) against it, the reduction's equivalence on
the same corpus, and the same pipeline under ``python -O`` (invariants are
explicit checks, not asserts)."""

import ast
import hashlib
import os
import subprocess
import sys
from dataclasses import astuple
from fractions import Fraction
from pathlib import Path

import nnirank2
from nnirank2.diagram import build_diagram, canonicalize
from nnirank2.instances import gen_bt, gen_near_t, gen_product
from nnirank2.reduction import reduce_to_3x3, validate_equivalence
from nnirank2.solver import solve

PACKAGE = Path(nnirank2.__file__).parent

# SHA-256 of pin_record over pin_corpus(), computed with the Smith-form
# implementation this kernel replaced; the kernel must reproduce it byte
# for byte (verdicts, pairs_examined, certificates, rejection records and
# canonical diagrams).
PIN_DIGEST = "5823b7bc4ab6a1be7b663353281461d9b8bde23f4894472ed58e569068c40aae"
# SHA-256 of reduce_record over pin_corpus(), computed before the rank-2
# kernel reduced its row lattice on the Gram matrix: B1, C and both stage
# traces of reduce_to_3x3, byte for byte.
REDUCE_DIGEST = "d54220f879c3a2cda9b75f95c69d299f94523e70e795fb70ce635251b3ff4856"


def pin_corpus():
    """1,000 products (n, m in {2, 3, 4, 6, 10}), bt(1..100), 60 near_t."""
    sizes = (2, 3, 4, 6, 10)
    for i in range(1000):
        n, m = sizes[i % 5], sizes[(i // 5) % 5]
        _, _, A = gen_product(n, m, (3, 6, 10)[(i // 25) % 3], seed=[2602, i])
        yield A
    for t in range(1, 101):
        yield gen_bt(t)
    for i in range(60):
        yield gen_near_t(3 + (7 * i) % 98, seed=[2603, i])


def ints(M):
    return [[int(x) for x in row] for row in M]


def pin_record(A) -> str:
    out = solve(A, collect_rejections=True)
    cd = canonicalize(build_diagram(A), 1)
    cert = out.certificate
    return repr((
        out.verdict,
        out.pairs_examined,
        None if cert is None else (ints(cert.F1), ints(cert.F2)),
        [(r.pair.a, r.pair.b, r.index, str(r.coeffs[0]), str(r.coeffs[1])) for r in out.rejections],
        [(int(x), int(y)) for x, y in cd.points],
        [(int(x), int(y)) for x, y in cd.cone_gens],
        ints(cd.basis),
    ))


def test_solve_digest_is_pinned():
    h = hashlib.sha256()
    for A in pin_corpus():
        h.update(pin_record(A).encode())
        h.update(b"\n")
    assert h.hexdigest() == PIN_DIGEST


def reduce_record(A) -> str:
    C, trace = reduce_to_3x3(A)
    return repr((ints(trace.three_by_m), ints(C), [astuple(st) for st in trace.stages]))


def test_reduce_digest_is_pinned():
    h = hashlib.sha256()
    for A in pin_corpus():
        h.update(reduce_record(A).encode())
        h.update(b"\n")
    assert h.hexdigest() == REDUCE_DIGEST


def factors(out):
    cert = out.certificate
    return None if cert is None else (ints(cert.F1), ints(cert.F2))


def test_default_solve_matches_the_collecting_run():
    for A in pin_corpus():
        out, ref = solve(A), solve(A, collect_rejections=True)
        assert out.rejections is None
        assert (out.verdict, out.pairs_examined) == (ref.verdict, ref.pairs_examined)
        assert factors(out) == factors(ref)


def fractions_built(fn, *args, **kwargs) -> int:
    """Number of Fraction constructions while fn runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call" and frame.f_code is Fraction.__new__.__code__

    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return count


def test_default_solve_builds_no_fraction():
    A = gen_bt(50)
    assert fractions_built(solve, A) == 0
    # the count sees the rejection records' coefficients
    assert fractions_built(solve, A, collect_rejections=True) > 0


def test_reductions_of_the_pin_corpus_are_equivalent():
    for A in pin_corpus():
        C, trace = reduce_to_3x3(A)
        B1 = trace.three_by_m
        assert validate_equivalence(A, B1).ok and validate_equivalence(B1.T, C).ok
        assert solve(C).verdict == solve(A).verdict


def test_src_has_no_assert_statements():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


PIPELINE_RUN = """
import sys
from nnirank2 import gen_bt, gen_near_t, gen_product, reduce_to_3x3, solve
from nnirank2 import validate_equivalence, verify_factorization
print("optimize", sys.flags.optimize)
corpus = [gen_product(n, n, 4, seed=[2610, n, i])[2] for n in (3, 5, 8) for i in range(10)]
corpus += [gen_bt(t) for t in range(1, 11)] + [gen_near_t(20, seed=[2611, i]) for i in range(5)]
for A in corpus:
    out = solve(A)
    cert = out.certificate
    ok = cert is None or verify_factorization(A, cert.F1, cert.F2)
    C, trace = reduce_to_3x3(A)
    ok = ok and validate_equivalence(A, trace.three_by_m).ok
    ok = ok and solve(C).verdict == out.verdict
    print(out.verdict, out.pairs_examined, ok, C.tolist())
"""


def test_pipeline_under_python_O_matches_normal_run():
    paths = [str(PACKAGE.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    optimized, normal = (
        subprocess.run([sys.executable, *flags, "-c", PIPELINE_RUN],
                       env=env, capture_output=True, text=True, timeout=120)
        for flags in (["-O"], [])
    )
    assert optimized.returncode == 0, optimized.stderr
    assert normal.returncode == 0, normal.stderr
    head, *lines = optimized.stdout.splitlines()
    assert head == "optimize 1" and normal.stdout.splitlines()[0] == "optimize 0"
    assert len(lines) == 45 and all(" True " in line for line in lines)
    assert lines == normal.stdout.splitlines()[1:]
