"""Command-line front end: sequence generation, identity sweeps, exhaustive
signed-minor checks, and engine benchmarks.

Reports come in three formats (``table`` for humans, ``json`` canonical,
``csv`` flat) and exit codes are deterministic: 0 when every record passes,
1 when any fails, 2 on usage errors. Big integers are serialized as decimal
strings, never as native numbers. Given identical flags and seed, all
output except wall-time fields is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from math import comb
from random import Random

from . import __version__
from .exact_linalg import IntMatrix, check_at_least, det_bareiss, det_laplace, parse_matrix
from .nstep_seq import CLASSIC, PAPER_POWERS, term, term_fast, terms_range
from .construction import check_prop1, check_prop1_all
from .identities import (
    FAMILIES,
    GEN_DOCAGNE,
    VerificationRecord,
    case_to_dict,
    family_records,
    generalized_docagne,
    verify_cassini,
    verify_catalan,
    verify_docagne,
    verify_vajda,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

_CONVENTIONS = {"classic": CLASSIC, "paper": PAPER_POWERS}

# Canonical sweep order for `verify all` (alphabetical).
_VERIFY_KINDS = tuple(sorted([*FAMILIES, GEN_DOCAGNE]))

# Most records one `prop1` run may ask for: trials x C(n+r-1, r) summed
# over the (n, r) grid. Larger grids would take hours and gigabytes.
PROP1_MAX_RECORDS = 10**6


class UsageError(Exception):
    """Flag combination or value the parser syntax cannot catch."""


def parse_range(text: str) -> range:
    """Inclusive 'a..b' range or single integer 'a'; rejects empty ranges."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if lo > hi:
        raise UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def parse_sizes(text: str) -> list[int] | range:
    """Comma-separated integers 'a,b,c' or an inclusive 'a..b' range."""
    if "," in text:
        return [int(p) for p in text.split(",")]
    return parse_range(text)


def random_matrix(rng: Random, order: int, bound: int) -> IntMatrix:
    """Square matrix with entries drawn uniformly from [-bound, bound]."""
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(order)] for _ in range(order)])


def canonical_json(obj) -> str:
    """The one JSON serialization used everywhere: re-serializing a parsed
    report must reproduce it byte for byte."""
    return json.dumps(obj, indent=2) + "\n"


def build_report(command: str, params: dict, records: list[dict],
                 timings_ms: dict) -> dict:
    passed = sum(1 for rec in records if rec["pass"])
    return {
        "version": __version__,
        "command": command,
        "params": params,
        "records": records,
        "summary": {
            "total": len(records),
            "passed": passed,
            "failed": len(records) - passed,
        },
        "timings_ms": timings_ms,
    }


def _elide(value: str, limit: int = 24) -> str:
    if len(value) <= limit:
        return value
    return f"{value[:12]}...({len(value)} digits)"


def report_to_table(report: dict) -> str:
    lines = []
    for rec in report["records"]:
        case = " ".join(f"{key}={value}" for key, value in rec["case"].items())
        verdict = "pass" if rec["pass"] else "FAIL"
        lines.append(
            f"{case}  lhs={_elide(rec['lhs'])}  rhs={_elide(rec['rhs'])}  {verdict}")
    summary = report["summary"]
    lines.append(
        f"summary: total={summary['total']} passed={summary['passed']}"
        f" failed={summary['failed']}")
    timings = " ".join(f"{key}={value:.3f}" for key, value in report["timings_ms"].items())
    lines.append(f"timings_ms: {timings}")
    return "\n".join(lines) + "\n"


_CSV_FIELDS = ["kind", "task", "n", "r", "s", "p", "q", "k", "order", "trial",
               "deleted", "convention", "lhs", "rhs", "pass"]


def report_to_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    for rec in report["records"]:
        row = dict(rec["case"])
        if "deleted" in row:
            row["deleted"] = " ".join(str(j) for j in row["deleted"])
        row.update(lhs=rec["lhs"], rhs=rec["rhs"],
                   **{"pass": "true" if rec["pass"] else "false"})
        writer.writerow(row)
    return buf.getvalue()


def _write_output(text: str, out: str | None, summary_line: str | None = None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if summary_line:
            print(f"wrote {out}: {summary_line}")
    else:
        sys.stdout.write(text)


def emit_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = canonical_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        text = report_to_table(report)
    summary = report["summary"]
    _write_output(
        text, out,
        f"total={summary['total']} passed={summary['passed']}"
        f" failed={summary['failed']}")


def _record_dict(case: dict, lhs: int, rhs: int, passed: bool) -> dict:
    return {"case": case, "lhs": str(lhs), "rhs": str(rhs), "pass": passed}


def _check_trials_bound(args: argparse.Namespace) -> None:
    if args.trials < 1:
        raise UsageError(f"--trials must be >= 1, got {args.trials}")
    if args.bound < 0:
        raise UsageError(f"--bound must be >= 0, got {args.bound}")


def _finish(args: argparse.Namespace, params: tuple[str, ...], records: list[dict],
            timings: dict, started: float) -> int:
    """Emit the report of ``records``, with the named flags as its params,
    and return the exit code."""
    if not records:
        raise UsageError("the sweep produced no records, so nothing was checked")
    timings["total"] = (time.perf_counter() - started) * 1000.0
    report = build_report(
        args.command, {key: getattr(args, key) for key in params}, records, timings)
    emit_report(report, args.format, args.out)
    return EXIT_OK if all(rec["pass"] for rec in records) else EXIT_FAIL


# --------------------------------------------------------------------------
# seq


def cmd_seq(args: argparse.Namespace) -> int:
    conv = _CONVENTIONS[args.convention]
    values = terms_range(args.n, conv, args.lo, args.hi)
    if args.format == "json":
        payload = {
            "version": __version__,
            "command": "seq",
            "params": {"n": args.n, "convention": args.convention,
                       "from": args.lo, "to": args.hi},
            "terms": [str(v) for v in values],
        }
        text = canonical_json(payload)
    elif args.format == "csv":
        lines = ["k,term"] + [
            f"{k},{v}" for k, v in zip(range(args.lo, args.hi + 1), values)]
        text = "\n".join(lines) + "\n"
    else:
        text = " ".join(str(v) for v in values) + "\n"
    _write_output(text, args.out)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


def _verification_dict(rec: VerificationRecord, trial: int | None = None) -> dict:
    return _record_dict(case_to_dict(rec.case, trial), rec.lhs, rec.rhs, rec.passed)


def _verify_sweep(kind: str, args: argparse.Namespace, conventions,
                  rng: Random, base_matrix: IntMatrix | None) -> list[dict]:
    if kind == GEN_DOCAGNE:
        r_values = parse_range(args.r)
        if base_matrix is not None:
            return [_verification_dict(generalized_docagne(base_matrix, r))
                    for r in r_values]
        if args.n is None:
            raise UsageError("--n is required (or pass --matrix)")
        records: list[dict] = []
        for n in parse_range(args.n):
            for r in r_values:
                for trial in range(1, args.trials + 1):
                    a = random_matrix(rng, n, args.bound)
                    records.append(_verification_dict(generalized_docagne(a, r), trial))
        return records

    if args.n is None:
        raise UsageError("--n is required")
    grid = {axis: parse_range(getattr(args, axis)) for axis in ("n", "r", "s", "p", "q")}
    family = FAMILIES[kind]
    # Call the verifier through the name this module imports it under: the
    # benchmark's tracer patches those names (nstepdet.cli.verify_*).
    verify = globals()[family.verify.__name__]
    return [_verification_dict(rec)
            for rec in family_records(verify, family.axes, grid, conventions)]


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _check_trials_bound(args)
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    if args.convention == "both":
        conventions = (CLASSIC, PAPER_POWERS)
    else:
        conventions = (_CONVENTIONS[args.convention],)
    base_matrix = None
    if args.matrix is not None:
        if kinds != ["gen-docagne"]:
            raise UsageError("--matrix is only valid with the gen-docagne kind")
        base_matrix = parse_matrix(args.matrix)
    rng = Random(args.seed)
    records: list[dict] = []
    for kind in kinds:
        records.extend(_verify_sweep(kind, args, conventions, rng, base_matrix))
    return _finish(args, ("kind", "n", "r", "s", "p", "q", "convention", "trials",
                          "bound", "matrix", "seed"), records, {}, started)


# --------------------------------------------------------------------------
# prop1


def cmd_prop1(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _check_trials_bound(args)
    r_values = parse_range(args.r)
    base_matrix = parse_matrix(args.matrix) if args.matrix else None
    if base_matrix is not None:
        if not base_matrix.is_square:
            raise UsageError("--matrix must be square")
        n_values = [base_matrix.rows]
        trials = 1
    else:
        n_values = parse_range(args.n)
        trials = args.trials
    check_at_least(2, n=n_values[0])
    check_at_least(1, r=r_values[0])
    due = 0
    for n in n_values:
        for r in r_values:
            due += trials * comb(n + r - 1, r)
            if due > PROP1_MAX_RECORDS:
                raise UsageError(
                    f"the grid asks for more than {PROP1_MAX_RECORDS} records;"
                    " narrow --n, --r or --trials")
    rng = Random(args.seed)
    records: list[dict] = []
    for n in n_values:
        for r in r_values:
            mats = [base_matrix] if base_matrix is not None else [
                random_matrix(rng, n, args.bound) for _ in range(trials)]
            for trial, (a, batch) in enumerate(
                    zip(mats, check_prop1_all(mats, r)), start=1):
                # Recheck one deletion per matrix on the per-deletion
                # reference path, cycling through the deletions by trial.
                expected = batch[(trial - 1) % len(batch)]
                if check_prop1(a, r, expected.deleted) != expected:
                    raise ArithmeticError(
                        f"batch and per-deletion prop1 disagree for n={n},"
                        f" r={r}, trial={trial}, deleted={list(expected.deleted)}")
                for rec in batch:
                    case = {"kind": "prop1", "n": n, "r": r, "trial": trial,
                            "deleted": list(rec.deleted)}
                    records.append(_record_dict(
                        case, rec.minor_value, rec.rhs, rec.passed))
    return _finish(args, ("n", "r", "trials", "bound", "matrix", "seed"),
                   records, {}, started)


# --------------------------------------------------------------------------
# bench


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    records: list[dict] = []
    timings: dict = {}
    if args.task == "term-fast-vs-iter":
        conv = _CONVENTIONS[args.convention]
        for k in parse_sizes(args.k):
            if k < 1:
                raise UsageError(f"--k values must be >= 1, got {k}")
            t0 = time.perf_counter()
            slow = term(args.n, conv, k)
            t1 = time.perf_counter()
            fast = term_fast(args.n, conv, k)
            t2 = time.perf_counter()
            timings[f"iter[k={k}]"] = (t1 - t0) * 1000.0
            timings[f"fast[k={k}]"] = (t2 - t1) * 1000.0
            case = {"kind": "bench", "task": args.task, "n": args.n, "k": k,
                    "convention": args.convention}
            records.append(_record_dict(case, fast, slow, fast == slow))
    else:  # bareiss-vs-laplace
        _check_trials_bound(args)
        rng = Random(args.seed)
        for order in parse_sizes(args.order):
            if not 1 <= order <= 8:
                raise UsageError(
                    f"--order must lie in 1..8 (cofactor oracle limit), got {order}")
            bareiss_ms = 0.0
            laplace_ms = 0.0
            for trial in range(1, args.trials + 1):
                a = random_matrix(rng, order, args.bound)
                t0 = time.perf_counter()
                db = det_bareiss(a)
                t1 = time.perf_counter()
                dl = det_laplace(a)
                t2 = time.perf_counter()
                bareiss_ms += (t1 - t0) * 1000.0
                laplace_ms += (t2 - t1) * 1000.0
                case = {"kind": "bench", "task": args.task, "order": order,
                        "trial": trial}
                records.append(_record_dict(case, db, dl, db == dl))
            timings[f"bareiss[order={order}]"] = bareiss_ms
            timings[f"laplace[order={order}]"] = laplace_ms
    return _finish(args, ("task", "n", "k", "order", "trials", "bound", "convention",
                          "seed"), records, timings, started)


# --------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="report format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the deterministic random generator")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstepdet",
        description="Exact n-step Fibonacci determinant identity toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print sequence terms")
    p.add_argument("--n", type=int, required=True, help="step count (>= 2)")
    p.add_argument("--convention", choices=("classic", "paper"), default="classic")
    p.add_argument("--from", dest="lo", type=int, required=True,
                   help="first index (may be negative)")
    p.add_argument("--to", dest="hi", type=int, required=True,
                   help="last index, inclusive")
    _add_common(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="sweep an identity family")
    p.add_argument("kind", choices=_VERIFY_KINDS + ("all",))
    p.add_argument("--n", default=None, help="order range, e.g. 2..4")
    p.add_argument("--r", default="1..10", help="shift range (default 1..10)")
    p.add_argument("--s", default="1..5", help="d'Ocagne offset range")
    p.add_argument("--p", default="1..4", help="Vajda/Catalan offset range")
    p.add_argument("--q", default="1..4", help="Vajda offset range")
    p.add_argument("--convention", choices=("classic", "paper", "both"),
                   default="classic",
                   help="seed convention; 'both' probes the two side by side")
    p.add_argument("--trials", type=int, default=5,
                   help="random matrices per cell (gen-docagne)")
    p.add_argument("--bound", type=int, default=9,
                   help="entry bound for random matrices (gen-docagne)")
    p.add_argument("--matrix", default=None,
                   help="explicit base matrix literal, e.g. '1 2; 0 1' (gen-docagne)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prop1", help="exhaustive signed-minor product-rule check")
    p.add_argument("--n", default="2..3", help="order range")
    p.add_argument("--r", default="1..4", help="extension length range")
    p.add_argument("--trials", type=int, default=20,
                   help="random matrices per (n, r) cell")
    p.add_argument("--bound", type=int, default=9,
                   help="entry bound for random matrices")
    p.add_argument("--matrix", default=None,
                   help="check one explicit matrix instead of random ones")
    _add_common(p)
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("bench", help="time the two engines and check agreement")
    p.add_argument("task", choices=("term-fast-vs-iter", "bareiss-vs-laplace"))
    p.add_argument("--n", type=int, default=2, help="step count (term bench)")
    p.add_argument("--k", default="100000",
                   help="indices: comma list or a..b range (term bench)")
    p.add_argument("--order", default="6",
                   help="matrix orders: comma list or a..b range (det bench)")
    p.add_argument("--trials", type=int, default=10,
                   help="matrices per order (det bench)")
    p.add_argument("--bound", type=int, default=9, help="entry bound (det bench)")
    p.add_argument("--convention", choices=("classic", "paper"), default="classic")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    # Reports serialize big integers as decimal strings of any length, so
    # the interpreter's int/str conversion guard must not apply here.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
