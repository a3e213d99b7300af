"""Command-line front end: sequence generation, identity sweeps, exhaustive
signed-minor checks, and engine benchmarks.

Reports come in three formats (``table`` for humans, ``json`` canonical,
``csv`` flat) and exit codes are deterministic: 0 when every record passes,
1 when any fails, 2 on usage errors, among them runs that would produce
more than ``MAX_RECORDS`` records or terms and an ``--out`` path that
cannot be written. Big integers are serialized as
decimal strings, never as native numbers. Given identical flags and seed,
all output except wall-time fields is byte-identical across runs.

Every JSON report (``seq``, ``verify``, ``prop1``, ``bench``) is written by
``canonical_json``, one writer keyed on each value's type whose text is
always that of ``json.dumps(obj, indent=2)``; no report goes through
``json.dumps`` itself.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from json.encoder import encode_basestring_ascii
from math import comb, prod
from random import Random
from typing import Callable

from . import __version__
from .exact_linalg import (
    LAPLACE_MAX_ORDER,
    IntMatrix,
    check_at_least,
    check_square,
    det_bareiss,
    det_laplace,
    parse_matrix,
)
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

# Most records (or `seq` terms) one run may ask for. Larger grids and
# windows would take hours and gigabytes, so they exit 2 before any work.
MAX_RECORDS = 10**6


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


def _size(values: list[int] | range) -> int:
    """len() of a ``parse_range`` or ``parse_sizes`` result, which
    overflows past sys.maxsize for a huge range."""
    return values.stop - values.start if type(values) is range else len(values)


def _check_cap(due: int, unit: str, flags: str) -> None:
    if due > MAX_RECORDS:
        raise UsageError(
            f"this run asks for more than {MAX_RECORDS} {unit}; narrow {flags}")


def random_matrix(rng: Random, order: int, bound: int) -> IntMatrix:
    """Square matrix with entries drawn uniformly from [-bound, bound]."""
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(order)] for _ in range(order)])


# JSON text of each scalar type, by exact type, as ``json.dumps`` spells it
# (a finite float's repr holds no "inf" or "nan").
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda value: repr(value).replace("inf", "Infinity").replace("nan", "NaN"),
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _KeyPrefixes(dict):
    """Start of each key's line at one indentation, made on first use; a
    non-str key raises TypeError."""

    def __init__(self, pad: str):
        super().__init__()
        self.pad = pad

    def __missing__(self, key: str) -> str:
        prefix = self[key] = self.pad + encode_basestring_ascii(key) + ": "
        return prefix


def _container_writers(depth: int, end: str = "") -> dict:
    """Writers of a list and of a dict at indentation ``depth``, laid out as
    ``json.dumps(indent=2)`` does and followed by ``end``. Each text is made
    by one join over its items' texts, never by wrapping joined text, so a
    large report is not copied again at each level."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    sep, list_open = "," + inner, "[" + inner
    list_close, dict_close = pad + "]" + end, pad + "}" + end
    prefixes = _KeyPrefixes(inner)

    def write_list(items: list) -> str:
        if not items:
            return "[]" + end
        writers = _WRITERS[depth + 1]
        parts = [writers[type(v)](v) for v in items]
        parts[0] = list_open + parts[0]
        parts[-1] += list_close
        return sep.join(parts)

    def write_dict(obj: dict) -> str:
        if not obj:
            return "{}" + end
        writers = _WRITERS[depth + 1]
        parts = ["{"]
        for key, value in obj.items():
            parts += (prefixes[key], writers[type(value)](value), ",")
        parts[-1] = dict_close
        return "".join(parts)
    return {list: write_list, dict: write_dict}


class _Writers(dict):
    """Writer of each JSON value type, by exact type, for the values at one
    indentation depth; each depth's table is made on first use."""

    def __missing__(self, depth: int) -> dict:
        table = self[depth] = {**_SCALAR_JSON, **_container_writers(depth)}
        return table


# Depth 0 holds only the document, an object or an array, whose text also
# ends with the document's newline. The tables are shared by all documents:
# building them per document cost tens of microseconds per report and
# measured higher peak memory over repeated large `seq` reports.
_WRITERS = _Writers({0: _container_writers(0, "\n")})


def canonical_json(obj) -> str:
    """The one JSON serialization used everywhere: the text of
    ``json.dumps(obj, indent=2)`` plus a newline, so re-serializing a parsed
    report reproduces it byte for byte.

    ``json.dumps(indent=2)`` runs the pure-Python encoder, slow on the
    thousands of small records of a report, so the text is written here by
    one writer per value type. ``obj`` is a dict or a list; the values in it
    are dicts with str keys, lists, str, int, float, bool and None, by exact
    type. Anything else (a tuple, a non-str key, a str or int subclass)
    raises TypeError.
    """
    try:
        return _WRITERS[0][type(obj)](obj)
    except KeyError as exc:  # a value of a type no writer takes
        raise TypeError(f"{exc.args[0].__name__} is not JSON serializable") from None


def _elide(value: str) -> str:
    if len(value) <= 24:
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


def _record_dict(case: dict, lhs: int, rhs: int) -> dict:
    return {"case": case, "lhs": str(lhs), "rhs": str(rhs), "pass": lhs == rhs}


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
    passed = sum(1 for rec in records if rec["pass"])
    summary = {"total": len(records), "passed": passed, "failed": len(records) - passed}
    report = {"version": __version__, "command": args.command,
              "params": {key: getattr(args, key) for key in params},
              "records": records, "summary": summary, "timings_ms": timings}
    write = {"json": canonical_json, "csv": report_to_csv}.get(args.format, report_to_table)
    _write_output(write(report), args.out,
                  " ".join(f"{key}={value}" for key, value in summary.items()))
    return EXIT_OK if passed == len(records) else EXIT_FAIL


# --------------------------------------------------------------------------
# seq


def cmd_seq(args: argparse.Namespace) -> int:
    conv = _CONVENTIONS[args.convention]
    _check_cap(args.hi - args.lo + 1, "terms", "--from or --to")
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
    return _record_dict(case_to_dict(rec.case, trial), rec.lhs, rec.rhs)


def _plan_sweep(kind: str, args: argparse.Namespace, conventions, rng: Random,
                base_matrix: IntMatrix | None) -> tuple[int, Callable[[], list[dict]]]:
    """The number of records the sweep of ``kind`` yields, and the sweep,
    deferred so the caller can cap the total before any work starts."""
    if kind == GEN_DOCAGNE:
        r_values = parse_range(args.r)
        if base_matrix is not None:
            return _size(r_values), lambda: [
                _verification_dict(generalized_docagne(base_matrix, r)) for r in r_values]
        if args.n is None:
            raise UsageError("--n is required (or pass --matrix)")
        n_values = parse_range(args.n)
        trials = range(1, args.trials + 1)
        return _size(n_values) * _size(r_values) * args.trials, lambda: [
            _verification_dict(
                generalized_docagne(random_matrix(rng, n, args.bound), r), trial)
            for n in n_values for r in r_values for trial in trials]
    if args.n is None:
        raise UsageError("--n is required")
    grid = {axis: parse_range(getattr(args, axis)) for axis in ("n", "r", "s", "p", "q")}
    family = FAMILIES[kind]
    # Call the verifier through the name this module imports it under: the
    # benchmark's tracer patches those names (nstepdet.cli.verify_*).
    verify = globals()[family.verify.__name__]
    size = prod(_size(grid[axis]) for axis in ("n", "r", *family.axes))
    return size * len(conventions), lambda: [
        _verification_dict(rec)
        for rec in family_records(verify, family.axes, grid, conventions)]


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    _check_trials_bound(args)
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    if args.convention == "both":
        conventions = tuple(_CONVENTIONS.values())
    else:
        conventions = (_CONVENTIONS[args.convention],)
    base_matrix = None
    if args.matrix is not None:
        if kinds != ["gen-docagne"]:
            raise UsageError("--matrix is only valid with the gen-docagne kind")
        base_matrix = parse_matrix(args.matrix)
    rng = Random(args.seed)
    plans = [_plan_sweep(kind, args, conventions, rng, base_matrix) for kind in kinds]
    _check_cap(sum(size for size, _ in plans), "records", "the ranges or --trials")
    records = [rec for _, sweep in plans for rec in sweep()]
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
        n_values = [check_square("--matrix", base_matrix)]
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
            _check_cap(due, "records", "--n, --r or --trials")
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
                    records.append(_record_dict(case, rec.minor_value, rec.rhs))
    return _finish(args, ("n", "r", "trials", "bound", "matrix", "seed"),
                   records, {}, started)


# --------------------------------------------------------------------------
# bench


def _add_ms(timings: dict, key: str, seconds: float) -> None:
    """Add ``seconds`` to the milliseconds under ``key``, so a size listed
    twice sums its runs instead of keeping the last."""
    timings[key] = timings.get(key, 0.0) + seconds * 1000.0


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    records: list[dict] = []
    timings: dict = {}
    if args.task == "term-fast-vs-iter":
        conv = _CONVENTIONS[args.convention]
        ks = parse_sizes(args.k)
        _check_cap(_size(ks), "records", "--k")
        for k in ks:
            t0 = time.perf_counter()
            slow = term(args.n, conv, k)
            t1 = time.perf_counter()
            fast = term_fast(args.n, conv, k)
            t2 = time.perf_counter()
            _add_ms(timings, f"iter[k={k}]", t1 - t0)
            _add_ms(timings, f"fast[k={k}]", t2 - t1)
            case = {"kind": "bench", "task": args.task, "n": args.n, "k": k,
                    "convention": args.convention}
            records.append(_record_dict(case, fast, slow))
    else:  # bareiss-vs-laplace
        _check_trials_bound(args)
        orders = parse_sizes(args.order)
        _check_cap(_size(orders) * args.trials, "records", "--order or --trials")
        bad = [order for order in orders if not 1 <= order <= LAPLACE_MAX_ORDER]
        if bad:
            raise UsageError(f"--order must lie in 1..{LAPLACE_MAX_ORDER}"
                             f" (cofactor oracle limit), got {bad[0]}")
        rng = Random(args.seed)
        for order in orders:
            for trial in range(1, args.trials + 1):
                a = random_matrix(rng, order, args.bound)
                t0 = time.perf_counter()
                db = det_bareiss(a)
                t1 = time.perf_counter()
                dl = det_laplace(a)
                t2 = time.perf_counter()
                _add_ms(timings, f"bareiss[order={order}]", t1 - t0)
                _add_ms(timings, f"laplace[order={order}]", t2 - t1)
                case = {"kind": "bench", "task": args.task, "order": order,
                        "trial": trial}
                records.append(_record_dict(case, db, dl))
    return _finish(args, ("task", "n", "k", "order", "trials", "bound", "convention",
                          "seed"), records, timings, started)


# --------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="report format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nstepdet",
        description="Exact n-step Fibonacci determinant identity toolkit.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="print sequence terms")
    p.add_argument("--n", type=int, required=True, help="step count (>= 2)")
    p.add_argument("--convention", choices=tuple(_CONVENTIONS), default="classic")
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
    p.add_argument("--convention", choices=tuple(_CONVENTIONS) + ("both",),
                   default="classic",
                   help="seed convention; 'both' probes the two side by side")
    p.add_argument("--trials", type=int, default=5,
                   help="random matrices per cell (gen-docagne)")
    p.add_argument("--bound", type=int, default=9,
                   help="entry bound for random matrices (gen-docagne)")
    p.add_argument("--matrix", default=None,
                   help="explicit base matrix literal, e.g. '1 2; 0 1' (gen-docagne)")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrices")
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
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrices")
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("bench", help="time the two engines and check agreement")
    p.add_argument("task", choices=("term-fast-vs-iter", "bareiss-vs-laplace"))
    p.add_argument("--n", type=int, default=2, help="step count (term bench)")
    p.add_argument("--k", default="100000",
                   help="indices: comma list or a..b range (term bench); write a"
                        " list or range that starts negative as --k=-7,0")
    p.add_argument("--order", default="6",
                   help="matrix orders: comma list or a..b range (det bench)")
    p.add_argument("--trials", type=int, default=10,
                   help="matrices per order (det bench)")
    p.add_argument("--bound", type=int, default=9, help="entry bound (det bench)")
    p.add_argument("--convention", choices=tuple(_CONVENTIONS), default="classic")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for the random matrices")
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
