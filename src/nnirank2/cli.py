"""Command-line interface.

Exit codes: 0 = the matrix factors at its rank (rank 2 achieved, or rank
<= 1), 1 = rank 2 but nonnegative integer rank > 2, 2 = usage or input
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import bench
from .diagram import build_diagram, canonicalize
from .instances import gen_bt, gen_near_t, gen_product
from .matrixio import base10_float, base10_int, base10_str, format_matrix, load_matrix, write_matrix
from .oracle import brute_force
from .reduction import ReductionTrace, reduce_to_3x3
from .solver import NOT_RANK2, RANK2, SolveOutcome, solve


def _json_line(doc) -> str:
    """json.dumps(doc) and a newline.  An int over the digit limit is
    refused with base10_str's message, as format_matrix refuses it."""
    try:
        return json.dumps(doc) + "\n"
    except ValueError:
        stack = [doc]  # walked in document order, so the first such int is named
        while stack:
            value = stack.pop()
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                stack += reversed(value)
            elif isinstance(value, int):
                base10_str(value)
        raise


def _factor_json(out: SolveOutcome, explain: bool) -> dict:
    doc = {
        "verdict": out.verdict,
        "F1": None,
        "F2": None,
        "generators": None,
        "pairs_examined": out.pairs_examined,
    }
    factors = out.rank1_factors
    if out.verdict == RANK2:
        cert = out.certificate
        factors = (cert.F1, cert.F2)
        doc["generators"] = [list(cert.pair.a), list(cert.pair.b)]
    if factors is not None:
        doc["F1"], doc["F2"] = (F.tolist() for F in factors)
    if explain and out.rejections is not None:
        doc["rejections"] = [
            {
                "a": list(rej.pair.a),
                "b": list(rej.pair.b),
                "index": rej.index,
                "w": [str(rej.coeffs[0]), str(rej.coeffs[1])],
            }
            for rej in out.rejections
        ]
    return doc


def _factor_text(doc: dict) -> str:
    """The document _factor_json builds, as text: the generators, F1 and F2
    when the verdict has them, then one line per rejection."""
    text = f"verdict: {doc['verdict']}\n"
    text += f"pairs_examined: {doc['pairs_examined']}\n"
    if doc["generators"]:
        a, b = map(tuple, doc["generators"])
        text += f"generators: a={a} b={b}\n"
    for key in ("F1", "F2"):
        if doc[key] is not None:
            text += f"{key}:\n" + format_matrix(doc[key])
    for rej in doc.get("rejections", []):
        w0, w1 = rej["w"]
        text += (
            f"rejected a={tuple(rej['a'])} b={tuple(rej['b'])}: "
            f"point {rej['index']} has coefficients ({w0}, {w1})\n"
        )
    return text


def cmd_factor(args) -> int:
    A = load_matrix(args.input)
    doc = _factor_json(solve(A, r=args.r, collect_rejections=args.explain), args.explain)
    sys.stdout.write(_json_line(doc) if args.json else _factor_text(doc))
    return 1 if doc["verdict"] == NOT_RANK2 else 0


def _trace_lines(trace: ReductionTrace) -> list[str]:
    lines = []
    for idx, st in enumerate(trace.stages, start=1):
        lines.append(
            f"stage {idx}: vanishing rows {st.row_choices}, "
            f"b1 coords {st.b1_coords}, bezout {st.bezout}, "
            f"shifts {st.shift_multipliers}, primitivized {st.primitivized}"
        )
        lines.append(
            f"stage {idx} row-lattice basis: {list(st.basis[0])} / {list(st.basis[1])}"
        )
    return lines


def cmd_reduce(args) -> int:
    A = load_matrix(args.input)
    C, trace = reduce_to_3x3(A)
    text = format_matrix(C)
    if args.trace:
        text += "".join(f"# {line}\n" for line in _trace_lines(trace))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _read_flags(args, flags, reads, owner: str) -> dict:
    """The flags among ``flags`` that the user gave (argparse leaves the
    others None); ValueError naming those ``owner`` does not read."""
    given = {k: v for k in flags if (v := getattr(args, k)) is not None}
    unread = [f"--{k}" for k in given if k not in reads]
    if unread:
        raise ValueError(f"{owner} does not read {' '.join(unread)}")
    return given


# each kind's generator of instance i, and the flags it reads with their
# defaults; instance i draws from an independent stream derived from (seed, i)
_KINDS = {
    "product": (
        lambda i, rows, cols, sigma, seed: gen_product(rows, cols, sigma, seed=(seed, i))[2],
        {"rows": 3, "cols": 3, "sigma": 3.0, "seed": 0},
    ),
    "bt": (lambda i, t: gen_bt(t), {"t": 4}),
    "near_t": (lambda i, t, seed: gen_near_t(t, seed=(seed, i)), {"t": 4, "seed": 0}),
}


def cmd_generate(args) -> int:
    gen, defaults = _KINDS[args.kind]
    flags = ("rows", "cols", "sigma", "t", "seed")
    params = defaults | _read_flags(args, flags, defaults, f"the {args.kind} kind")
    if args.count < 1:
        raise ValueError("count must be at least 1")
    outdir = Path(args.outdir)
    for i in range(args.count):
        A = gen(i, **params)
        # made after instance 0, so a bad parameter leaves no directory behind
        outdir.mkdir(parents=True, exist_ok=True)
        # bt reads no seed; its file names keep a 0 in the seed's place
        path = outdir / f"{args.kind}_{params.get('seed', 0)}_{i}.txt"
        write_matrix(path, A)
        print(path)
    return 0


def _int_list(text: str) -> list[int]:
    # an empty list would filter nothing: refused, like any bad item
    items = [base10_int(tok.strip()) for tok in text.split(",") if tok.strip()]
    if not items:
        raise ValueError(f"{text!r} lists no integer")
    return items


# each suite's runner and the flags it reads, mapped to the runner's keywords
_GRID = {"count": "count", "seed": "seed", "n": "ns", "sigma": "sigmas"}
_SUITES = {
    "table1": (bench.run_table1, _GRID),
    "table2": (bench.run_table2, _GRID),
    "bt": (bench.run_bt, {"tmax": "tmax"}),
    "near_t": (bench.run_near_t, {"count": "count", "seed": "seed"}),
}


def cmd_bench(args) -> int:
    run, reads = _SUITES[args.suite]
    flags = ("count", "seed", "tmax", "n", "sigma")
    given = _read_flags(args, flags, reads, f"the {args.suite} suite")
    records = run(**{reads[k]: v for k, v in given.items()})
    csv_text = bench.records_to_csv(records)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
    else:
        sys.stdout.write(csv_text)
    return 0


def _diagram_doc(args, A) -> dict:
    reads = ("r",) if args.canonical else ()
    canon = _read_flags(args, ("r",), reads, "diagram without --canonical")
    d = build_diagram(A)
    if args.canonical:
        d = canonicalize(d, **canon)
    doc = {
        "basis": d.basis.tolist(),
        "points": [list(p) for p in d.points],
        "cone": [list(g) for g in d.cone_gens],
    }
    if args.canonical:
        doc["transform"] = d.transform.tolist()
        doc["canon_index"] = d.canon_index
    return doc


def cmd_diagram(args) -> int:
    doc = _diagram_doc(args, load_matrix(args.input))
    if args.json:
        sys.stdout.write(_json_line(doc))
        return 0
    # the same document as text: a heading line per matrix, then its rows
    for key, value in doc.items():
        if isinstance(value, list):
            sys.stdout.write(f"{key}:\n" + format_matrix(value))
        else:
            print(f"{key}: {value}")
    return 0


def cmd_oracle(args) -> int:
    A = load_matrix(args.input)
    verdict = brute_force(canonicalize(build_diagram(A), 1))
    line = "verdict: " + ("rank2" if verdict.rank2 else "not_rank2")
    if verdict.witness:
        line += f" witness: a={verdict.witness.a} b={verdict.witness.b}"
    print(line)
    print(f"pairs_enumerated: {verdict.pairs_enumerated}")
    return 0 if verdict.rank2 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnirank2",
        description=(
            "Decide whether a rank-2 nonnegative integer matrix is a product "
            "of two nonnegative integer matrices with inner dimension 2, "
            "produce the factorization, and reduce instances to 3x3."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="decide and factor a matrix file")
    p.add_argument("input", help="matrix text file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--r", type=base10_int, choices=(1, 2), default=1, help="canonization index")
    p.add_argument("--explain", action="store_true", help="print the first failing point per rejected pair")
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("reduce", help="write the equivalent 3x3 instance")
    p.add_argument("input")
    p.add_argument("--trace", action="store_true", help="append the construction trace")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("generate", help="write seeded random instances")
    p.add_argument("--kind", choices=("product", "bt", "near_t"), required=True)
    # no defaults here, as for bench: _KINDS holds them
    p.add_argument("--rows", type=base10_int)
    p.add_argument("--cols", type=base10_int)
    p.add_argument("--sigma", type=base10_float)
    p.add_argument("--t", type=base10_int)
    p.add_argument("--seed", type=base10_int)
    p.add_argument("--count", type=base10_int, default=1)
    p.add_argument("--outdir", default=".")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    p.add_argument("--suite", choices=("table1", "table2", "bt", "near_t"), required=True)
    # no defaults here: the suite's runner holds them, and a flag left unset
    # stays None, so cmd_bench can refuse one its suite does not read
    p.add_argument("--seed", type=base10_int)
    p.add_argument("--count", type=base10_int, help="instances per cell")
    p.add_argument("--tmax", type=base10_int, help="largest t for the bt suite")
    p.add_argument("--n", type=_int_list, help="comma list restricting the n grid")
    p.add_argument("--sigma", type=_int_list, help="comma list restricting the sigma grid")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("diagram", help="emit the plane diagram of a matrix")
    p.add_argument("input")
    p.add_argument("--canonical", action="store_true", help="emit the canonical form and transform")
    p.add_argument("--r", type=base10_int, choices=(1, 2), help="canonization index (needs --canonical)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_diagram)

    p = sub.add_parser("oracle", help="brute-force cross-check for small instances")
    p.add_argument("input")
    p.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
