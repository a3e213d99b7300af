"""Command-line front end: sequence generation, identity sweeps, exhaustive
signed-minor checks, and engine benchmarks.

Reports come in three formats (``table`` for humans, ``json`` canonical,
``csv`` flat) and exit codes are deterministic: 0 when every record passes,
1 when any fails, 2 on usage errors, among them runs that would produce
more than ``MAX_RECORDS`` records or terms and an ``--out`` path that
cannot be written. Big integers are serialized as decimal strings, never as
native numbers. ``seq`` takes the first n terms of its window from
``terms_range``'s polynomial jump and sweeps the rest in exact ``decimal``
arithmetic (a context that raises on any rounding), whose text is linear in
the digit count where ``str(int)`` is quadratic. Given identical flags and
seed, all output except wall-time fields is byte-identical across runs. A
report's ``params`` are its subcommand's flags as parsed, each one left out
at its default, in the order ``build_parser`` declares them, without
``--format`` and ``--out``. A flag given explicitly that the run does not
read is a usage error.

Every JSON report's text is that of ``json.dumps(obj, indent=2)``. Every
report is written while it is made, ``_BLOCK`` records (or ``seq`` terms) at
a time, by one block joiner, so a run's memory does not grow with its
records or its window. A JSON report's head, and the summary and timings
that close it, come from ``canonical_json``, and ``seq``'s terms array from
the terms' own text. Each format has one line function, which writes a
record dict. ``json.dumps(indent=2)`` runs the pure-Python encoder, too
slow to call once per record, so it runs once per record shape instead: a
shape is a case's keys, its str values and the verdict, and records of one
shape differ only in their ints and their sides. ``_template`` has the
line function write one record of a shape with a hole for each of those,
and every ``verify``, ``bench`` and ``prop1`` record is one fill of the
pieces between the holes.
Every usage error, an unwritable ``--out``, a value below its floor and a
sweep with no records among them, comes before any work and the first
byte, and every one but an unwritable ``--out`` before ``--out`` is opened,
so an existing file keeps its bytes; a fault in a later block, a failing
prop1 recheck among them, propagates and leaves a report without its end.
"""

from __future__ import annotations

import argparse
import decimal
import io
import itertools
import json
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import AbstractContextManager, nullcontext
from math import prod
from operator import itemgetter
from random import Random

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
from .nstep_seq import CLASSIC, PAPER_POWERS, sweep, term, term_fast, terms_range
from .construction import Prop1Cell, Prop1Record, check_prop1
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


class UsageError(ValueError):
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


# Defaults of the flags that only some runs of a command read. The parser
# leaves each of them None, so ``_resolve_flags`` can tell a flag given
# from one left out; a report's params show these values as they always did.
_VERIFY_DEFAULTS = {"n": None, "s": "1..5", "p": "1..4", "q": "1..4",
                    "convention": "classic", "trials": 5, "bound": 9, "seed": 0}
_PROP1_DEFAULTS = {"n": "2..3", "trials": 20, "bound": 9, "seed": 0}
_BENCH_DEFAULTS = {"n": 2, "k": "100000", "order": "6", "trials": 10, "bound": 9,
                   "convention": "classic", "seed": 0}

# The least value of each such flag that has one, checked in this order.
_FLAG_FLOORS = {"trials": 1, "bound": 0}


def _resolve_flags(args: argparse.Namespace, defaults: dict, used: set[str]) -> None:
    """Reject each flag of ``defaults`` given explicitly that this run does
    not read (``used`` names those it reads), then set those left out to
    their defaults, then check each flag it reads against its floor in
    ``_FLAG_FLOORS``."""
    unused = [f"--{name}" for name in defaults
              if name not in used and getattr(args, name) is not None]
    if unused:
        raise UsageError(f"this run does not use {', '.join(unused)}")
    for name, value in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    for name, least in _FLAG_FLOORS.items():
        if name in used:
            check_at_least(least, **{name: getattr(args, name)})


def _comb_past(m: int, k: int, limit: int) -> int:
    """C(m, k) if it is at most ``limit``, else some value above ``limit``.

    C(m, i) grows with i up to m/2, so the multiplicative count can stop at
    the first C(m, i) past ``limit``, after about log2(limit) factors at
    most, instead of computing a huge C(m, k) exactly."""
    count = 1
    for i in range(1, min(k, m - k) + 1):
        count = count * (m - i + 1) // i
        if count > limit:
            break
    return count


def random_matrix(rng: Random, order: int, bound: int) -> IntMatrix:
    """Square matrix with entries drawn uniformly from [-bound, bound]."""
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(order)] for _ in range(order)])


def canonical_json(obj) -> str:
    """The text of ``json.dumps(obj, indent=2)`` plus a newline, so
    re-serializing a parsed report reproduces it byte for byte: the head and
    the tail of every JSON report."""
    return json.dumps(obj, indent=2) + "\n"


def _elide(value: str) -> str:
    """A side's decimal text, or, past 24 digits, its first 12 characters
    and its digit count; a minus sign is not a digit."""
    digits = len(value.lstrip("-"))
    return value if digits <= 24 else f"{value[:12]}...({digits} digits)"


def _table_line(rec: dict) -> str:
    case = dict(rec["case"])
    if "deleted" in case:
        # Spelled as str spells a list of ints, but from each item's str,
        # which keeps a template's holes where the list's repr would not.
        case["deleted"] = f"[{', '.join(map(str, case['deleted']))}]"
    text = " ".join(f"{key}={value}" for key, value in case.items())
    verdict = "pass" if rec["pass"] else "FAIL"
    return f"{text}  lhs={_elide(rec['lhs'])}  rhs={_elide(rec['rhs'])}  {verdict}"


_CSV_FIELDS = ["kind", "task", "n", "r", "s", "p", "q", "k", "order", "trial",
               "deleted", "convention", "lhs", "rhs", "pass"]


def _csv_line(rec: dict) -> str:
    """A record's CSV row. No value holds a comma, a quote or a line break,
    so none is quoted."""
    row = {**rec["case"], "lhs": rec["lhs"], "rhs": rec["rhs"],
           "pass": "true" if rec["pass"] else "false"}
    if "deleted" in row:
        row["deleted"] = " ".join(map(str, row["deleted"]))
    return ",".join([str(row.get(field, "")) for field in _CSV_FIELDS])


def _json_line(rec: dict) -> str:
    """A record's JSON text where a report holds it, two levels in."""
    return json.dumps(rec, indent=2).replace("\n", "\n    ")


def _output(out: str | None) -> AbstractContextManager[io.TextIOBase]:
    """The file ``out``, opened now and closed when the ``with`` block
    ends, or stdout, left open, when ``out`` is None."""
    return nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


# Records, or `seq` terms, a report makes and writes at a time: neither
# they nor their text is ever held whole.
_BLOCK = 512


def _joined_chunks(blocks: Iterator[list], text: Callable, start: str, sep: str,
                   end: str) -> Iterator[str]:
    """The text ``start + sep.join(map(text, items)) + end`` of the items of
    ``blocks``, which are not empty, a block at a time."""
    opening = start
    for block in blocks:
        yield opening + sep.join(map(text, block))
        opening = sep
    yield end


def _record_dict(case: dict, lhs, rhs, passed: bool) -> dict:
    return {"case": case, "lhs": str(lhs), "rhs": str(rhs), "pass": passed}


# The line function of each format, which writes one record dict. It runs
# once per record shape, on a template, never once per record.
_LINES = {"json": _json_line, "csv": _csv_line, "table": _table_line}

# Stands for each value that changes between the records of one shape, in
# the record dict a template is written from; no record holds it.
_HOLE = "\x00"

# Per format: the text of a _HOLE in a line, and the spelling of a side. A
# side's digits need no JSON escape, only quotes; a table elides long ones.
_SPELLING = {
    "json": (json.dumps(_HOLE), lambda v: f'"{v}"'),
    "csv": (_HOLE, str),
    "table": (_HOLE, lambda v: _elide(str(v))),
}


def _template(fmt: str, case: dict, passed: bool) -> list[str]:
    """The line in format ``fmt`` of a record of ``case`` whose verdict is
    ``passed`` and whose sides are holes, split at its holes: ``case`` holds
    a ``_HOLE`` for each of its ints, a deleted column among them. A case's
    keys come in the order of the CSV columns, so every line function writes
    its values in the case's order, and a record of that shape is the pieces
    with its ints and then its two spelled sides between them, in order. A
    case whose keys are not in that order is a fault of the program, so it
    raises RuntimeError, before any line of its shape is written."""
    if list(case) != [field for field in _CSV_FIELDS if field in case]:
        raise RuntimeError(f"case keys {list(case)} are not in the CSV columns' order")
    hole = _SPELLING[fmt][0]
    return _LINES[fmt](_record_dict(case, _HOLE, _HOLE, passed)).split(hole)


def _filler(pieces: list[str]) -> Callable[..., str]:
    """The function that returns ``pieces`` with its arguments, one fewer,
    between them in order."""
    return "{}".join([piece.replace("{", "{{").replace("}", "}}")
                      for piece in pieces]).format


def _record_lines(fmt: str, records: Iterator[tuple[dict, int, int]]
                  ) -> Iterator[tuple[str, bool]]:
    """The line in format ``fmt`` and the verdict of each (case, lhs, rhs)
    of ``records``: one fill of the template of its shape, made on the
    shape's first record. A shape is the case's keys, its str values, which
    the template keeps, and the verdict."""
    spell_side = _SPELLING[fmt][1]
    fills = {}
    for case, lhs, rhs in records:
        passed = lhs == rhs
        # One pass, not two comprehensions: this loop is the per-record cost.
        shape, ints = [passed, *case], []
        for value in case.values():
            if type(value) is str:
                shape.append(value)
            else:
                shape.append(None)
                ints.append(value)
        shape = tuple(shape)
        fill = fills.get(shape)
        if fill is None:
            holed = {key: v if type(v) is str else _HOLE for key, v in case.items()}
            fill = fills[shape] = _filler(_template(fmt, holed, passed))
        yield fill(*ints, spell_side(lhs), spell_side(rhs)), passed


def _report_head(args: argparse.Namespace) -> dict:
    """A report's version, command and params: the subcommand's flags as
    parsed, in the order ``build_parser`` declares them."""
    return {"version": __version__, "command": args.command,
            "params": {key: value for key, value in vars(args).items()
                       if key not in ("command", "func", "format", "out")}}


def _json_start(args: argparse.Namespace, key: str) -> str:
    """A JSON report's head without its closing "\n}\n", then the opening
    of the array under ``key`` up to its first item."""
    return canonical_json(_report_head(args))[:-3] + f',\n  "{key}": [\n    '


def _finish(args: argparse.Namespace, count: int, lines: Iterator[tuple[str, bool]],
            timings: dict, started: float) -> int:
    """Write the report whose records ``lines`` yields as (text in
    ``args.format``, verdict) pairs, ``count`` of them as planned before any
    work, ``_BLOCK`` at a time, then its summary and ``timings``, and return
    the exit code. ``--out`` is opened before the first record is made; a
    fault while making one leaves the blocks written before it."""
    if not count:
        raise UsageError("the sweep produced no records, so nothing was checked")
    if args.format == "json":
        # The tail's text without its opening "{" closes the report.
        layout = _json_start(args, "records"), ",\n    ", "\n  ],"
    elif args.format == "csv":
        layout = ",".join(_CSV_FIELDS) + "\n", "\n", "\n"
    else:
        layout = "", "\n", "\n"
    summary = {"total": 0, "passed": 0, "failed": 0}

    def blocks() -> Iterator[list[tuple[str, bool]]]:
        for block in iter(lambda: list(itertools.islice(lines, _BLOCK)), []):
            summary["total"] += len(block)
            summary["passed"] += sum(passed for _, passed in block)
            yield block

    with _output(args.out) as fh:
        fh.writelines(_joined_chunks(blocks(), itemgetter(0), *layout))
        summary["failed"] = summary["total"] - summary["passed"]
        timings["total"] = (time.perf_counter() - started) * 1000.0
        counts = " ".join(f"{key}={value}" for key, value in summary.items())
        if args.format == "json":
            fh.write(canonical_json({"summary": summary, "timings_ms": timings})[1:])
        elif args.format == "table":
            times = " ".join(f"{key}={value:.3f}" for key, value in timings.items())
            fh.write(f"summary: {counts}\ntimings_ms: {times}\n")
    if args.out is not None:
        print(f"wrote {args.out}: {counts}")
    return EXIT_FAIL if summary["failed"] else EXIT_OK


# --------------------------------------------------------------------------
# seq


# Exact decimal arithmetic for `seq` text: an integer of any length that fits
# in memory adds and subtracts without rounding at this precision, and any
# rounding would raise. A sum of exactly zero is +0 under this rounding mode.
_EXACT_DECIMAL = decimal.Context(
    prec=decimal.MAX_PREC, rounding=decimal.ROUND_HALF_EVEN,
    Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded])


def _seq_blocks(head: list[int], count: int) -> Iterator[list[decimal.Decimal]]:
    """The first ``count`` terms from the window ``head`` on, as Decimals in
    lists of at most ``_BLOCK`` terms after ``head`` itself; each list
    is swept on from the last n terms before it."""
    n = len(head)
    window = list(map(decimal.Decimal, head))
    yield window
    for done in range(n, count, _BLOCK):
        with decimal.localcontext(_EXACT_DECIMAL):
            values = sweep(window, min(_BLOCK, count - done))
        window = values[-n:]
        yield values[n:]


def _csv_chunks(lo: int, blocks: Iterator[list]) -> Iterator[str]:
    yield "k,term\n"
    index = itertools.count(lo)
    for block in blocks:
        # The block first: zip stops on it without taking an index.
        yield "".join([f"{k},{v}\n" for v, k in zip(block, index)])


def cmd_seq(args: argparse.Namespace) -> int:
    check_at_least(2, n=args.n)
    conv = _CONVENTIONS[args.convention]
    lo, hi = getattr(args, "from"), args.to
    count = hi - lo + 1
    _check_cap(count, "terms", "--from or --to")
    head = terms_range(args.n, conv, lo, lo + min(args.n, count) - 1)
    blocks = _seq_blocks(head, count)
    if args.format == "json":
        # A Decimal's str holds no character JSON escapes.
        start = _json_start(args, "terms") + '"'
        chunks = _joined_chunks(blocks, str, start, '",\n    "', '"\n  ]\n}\n')
    elif args.format == "csv":
        chunks = _csv_chunks(lo, blocks)
    else:
        chunks = _joined_chunks(blocks, str, "", " ", "\n")
    with _output(args.out) as fh:
        fh.writelines(chunks)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify


def _verification(rec: VerificationRecord, trial: int | None = None
                  ) -> tuple[dict, int, int]:
    case = rec.case if trial is None else rec.case._replace(trial=trial)
    return case_to_dict(case), rec.lhs, rec.rhs


def _check_floors(n: int, r: int, **offsets: int) -> None:
    """Check the least values of a sweep's ranges against their floors in
    the order its first record's builder would: r and the offsets, then n.
    Ranges ascend, so a value below its floor is one of these."""
    check_at_least(1, r=r, **offsets)
    check_at_least(2, n=n)


def _plan_sweep(kind: str, args: argparse.Namespace, conventions, rng: Random,
                base_matrix: IntMatrix | None
                ) -> tuple[int, Callable[[], Iterator[tuple[dict, int, int]]]]:
    """The number of records the sweep of ``kind`` yields, and the sweep,
    deferred so the caller can cap the total before any work starts. Each
    value is checked against its floor here, before any work and before
    ``--out`` is opened."""
    if kind == GEN_DOCAGNE:
        r_values = parse_range(args.r)
        if base_matrix is not None:
            _check_floors(check_square("generalized_docagne", base_matrix), r_values[0])
            return _size(r_values), lambda: (
                _verification(generalized_docagne(base_matrix, r)) for r in r_values)
        if args.n is None:
            raise UsageError("--n is required (or pass --matrix)")
        n_values = parse_range(args.n)
        _check_floors(n_values[0], r_values[0])
        trials = range(1, args.trials + 1)
        return _size(n_values) * _size(r_values) * args.trials, lambda: (
            _verification(
                generalized_docagne(random_matrix(rng, n, args.bound), r), trial)
            for n in n_values for r in r_values for trial in trials)
    if args.n is None:
        raise UsageError("--n is required")
    grid = {axis: parse_range(getattr(args, axis)) for axis in ("n", "r", "s", "p", "q")}
    family = FAMILIES[kind]
    _check_floors(grid["n"][0], grid["r"][0], **{a: grid[a][0] for a in family.axes})
    # Call the verifier through the name this module imports it under: the
    # benchmark's tracer patches those names (nstepdet.cli.verify_*).
    verify = globals()[family.verify.__name__]
    size = prod(_size(grid[axis]) for axis in ("n", "r", *family.axes))
    return size * len(conventions), lambda: (
        _verification(rec)
        for rec in family_records(verify, family.axes, grid, conventions))


def _verify_uses(kind: str, base_matrix: IntMatrix | None) -> set[str]:
    """The flags of ``_VERIFY_DEFAULTS`` that the sweep of ``kind`` reads."""
    if kind != GEN_DOCAGNE:
        return {"n", "convention", *FAMILIES[kind].axes}
    return set() if base_matrix is not None else {"n", "trials", "bound", "seed"}


def cmd_verify(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    kinds = list(_VERIFY_KINDS) if args.kind == "all" else [args.kind]
    base_matrix = None
    if args.matrix is not None:
        if kinds != ["gen-docagne"]:
            raise UsageError("--matrix is only valid with the gen-docagne kind")
        base_matrix = parse_matrix(args.matrix)
    _resolve_flags(args, _VERIFY_DEFAULTS,
                   set().union(*(_verify_uses(kind, base_matrix) for kind in kinds)))
    if args.convention == "both":
        conventions = tuple(_CONVENTIONS.values())
    else:
        conventions = (_CONVENTIONS[args.convention],)
    rng = Random(args.seed)
    plans = [_plan_sweep(kind, args, conventions, rng, base_matrix) for kind in kinds]
    count = sum(size for size, _ in plans)
    _check_cap(count, "records", "the ranges or --trials")
    records = (rec for _, sweep in plans for rec in sweep())
    return _finish(args, count, _record_lines(args.format, records), {}, started)


# --------------------------------------------------------------------------
# prop1


def _prop1_lines(fmt: str, cell: Prop1Cell,
                 batches: Iterator[tuple[int, list[Prop1Record]]]
                 ) -> Iterator[tuple[str, bool]]:
    """The line in format ``fmt`` and the verdict of each record of
    ``batches``, (trial, records) pairs of ``cell``: the text that
    ``_LINES[fmt]`` writes for the record's ``_record_dict``.

    A cell's records are of one shape, which keeps n and r as they are. So
    each of the cell's deletions fills the pieces around its columns once,
    each verdict keeps its template's tail, and each record is one f-string.
    """
    spell_side = _SPELLING[fmt][1]
    case = {"kind": "prop1", "n": cell.n, "r": cell.r, "trial": _HOLE,
            "deleted": [_HOLE] * cell.r}
    pieces = {passed: _template(fmt, case, passed) for passed in (True, False)}
    head, *around_deleted, before_rhs, _ = pieces[True]
    tails = {passed: text[-1] for passed, text in pieces.items()}
    fill_deleted = _filler(around_deleted)
    deleted_texts = [fill_deleted(*deleted) for deleted in cell.deletions]
    for trial, batch in batches:
        start = f"{head}{trial}"
        for rec, deleted_text in zip(batch, deleted_texts):
            lhs, rhs = rec.minor_value, rec.rhs
            passed = lhs == rhs
            yield (f"{start}{deleted_text}{spell_side(lhs)}{before_rhs}"
                   f"{spell_side(rhs)}{tails[passed]}", passed)


def cmd_prop1(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    base_matrix = parse_matrix(args.matrix) if args.matrix is not None else None
    _resolve_flags(args, _PROP1_DEFAULTS,
                   set() if base_matrix is not None else set(_PROP1_DEFAULTS))
    r_values = parse_range(args.r)
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
            due += trials * _comb_past(n + r - 1, r, MAX_RECORDS)
            _check_cap(due, "records", "--n, --r or --trials")
    rng = Random(args.seed)

    def batches(cell: Prop1Cell) -> Iterator[tuple[int, list[Prop1Record]]]:
        """Each trial of ``cell`` and its matrix's records, the matrix drawn
        just before it is checked."""
        for trial in range(1, trials + 1):
            a = base_matrix if base_matrix is not None else random_matrix(
                rng, cell.n, args.bound)
            batch = cell(a)
            # Recheck one deletion per matrix on the per-deletion reference
            # path, cycling through the deletions by trial, before any of
            # the matrix's records is written.
            expected = batch[(trial - 1) % len(batch)]
            if check_prop1(a, cell.r, expected.deleted) != expected:
                raise ArithmeticError(
                    f"batch and per-deletion prop1 disagree for n={cell.n},"
                    f" r={cell.r}, trial={trial}, deleted={list(expected.deleted)}")
            yield trial, batch

    def lines() -> Iterator[tuple[str, bool]]:
        for n, r in itertools.product(n_values, r_values):
            cell = Prop1Cell(n, r)
            yield from _prop1_lines(args.format, cell, batches(cell))

    return _finish(args, due, lines(), {}, started)


# --------------------------------------------------------------------------
# bench


def _timed(timings: dict, key: str, call: Callable[[], int]) -> int:
    """``call()``, its milliseconds added to those under ``key``, so a size
    listed twice sums its runs instead of keeping the last."""
    started = time.perf_counter()
    value = call()
    timings[key] = timings.get(key, 0.0) + (time.perf_counter() - started) * 1000.0
    return value


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    timings: dict = {}
    term_task = args.task == "term-fast-vs-iter"
    _resolve_flags(args, _BENCH_DEFAULTS, {"n", "k", "convention"} if term_task
                   else {"order", "trials", "bound", "seed"})
    if term_task:
        check_at_least(2, n=args.n)
        conv = _CONVENTIONS[args.convention]
        ks = parse_sizes(args.k)
        count = _size(ks)
        _check_cap(count, "records", "--k")

        def records() -> Iterator[tuple[dict, int, int]]:
            for k in ks:
                slow = _timed(timings, f"iter[k={k}]", lambda: term(args.n, conv, k))
                fast = _timed(timings, f"fast[k={k}]", lambda: term_fast(args.n, conv, k))
                case = {"kind": "bench", "task": args.task, "n": args.n, "k": k,
                        "convention": args.convention}
                yield case, fast, slow
    else:  # bareiss-vs-laplace
        orders = parse_sizes(args.order)
        count = _size(orders) * args.trials
        _check_cap(count, "records", "--order or --trials")
        bad = [order for order in orders if not 1 <= order <= LAPLACE_MAX_ORDER]
        if bad:
            raise UsageError(f"--order must lie in 1..{LAPLACE_MAX_ORDER}"
                             f" (cofactor oracle limit), got {bad[0]}")
        rng = Random(args.seed)

        def records() -> Iterator[tuple[dict, int, int]]:
            for order, trial in itertools.product(orders, range(1, args.trials + 1)):
                a = random_matrix(rng, order, args.bound)
                db = _timed(timings, f"bareiss[order={order}]", lambda: det_bareiss(a))
                dl = _timed(timings, f"laplace[order={order}]", lambda: det_laplace(a))
                case = {"kind": "bench", "task": args.task, "order": order,
                        "trial": trial}
                yield case, db, dl

    return _finish(args, count, _record_lines(args.format, records()), timings, started)


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
    p.add_argument("--from", type=int, required=True,
                   help="first index (may be negative)")
    p.add_argument("--to", type=int, required=True, help="last index, inclusive")
    _add_common(p)
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("verify", help="sweep an identity family")
    p.add_argument("kind", choices=_VERIFY_KINDS + ("all",))
    p.add_argument("--n", help="order range, e.g. 2..4")
    p.add_argument("--r", default="1..10", help="shift range (default 1..10)")
    p.add_argument("--s", help="d'Ocagne offset range")
    p.add_argument("--p", help="Vajda/Catalan offset range")
    p.add_argument("--q", help="Vajda offset range")
    p.add_argument("--convention", choices=tuple(_CONVENTIONS) + ("both",),
                   help="seed convention; 'both' probes the two side by side")
    p.add_argument("--trials", type=int, help="random matrices per cell (gen-docagne); each "
                   "record is det(a) times the a = I one: a trial rechecks the arithmetic")
    p.add_argument("--bound", type=int,
                   help="entry bound for random matrices (gen-docagne)")
    p.add_argument("--matrix", default=None,
                   help="explicit base matrix literal, e.g. '1 2; 0 1' (gen-docagne)")
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed for the random matrices")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prop1", help="exhaustive signed-minor product-rule check")
    p.add_argument("--n", help="order range")
    p.add_argument("--r", default="1..4", help="extension length range")
    p.add_argument("--trials", type=int, help="random matrices per (n, r) cell; each minor "
                   "is det(a) times the a = I one: a trial rechecks the arithmetic")
    p.add_argument("--bound", type=int, help="entry bound for random matrices")
    p.add_argument("--matrix", default=None,
                   help="check one explicit matrix instead of random ones")
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed for the random matrices")
    p.set_defaults(func=cmd_prop1)

    p = sub.add_parser("bench", help="time the two engines and check agreement")
    p.add_argument("task", choices=("term-fast-vs-iter", "bareiss-vs-laplace"))
    p.add_argument("--n", type=int, help="step count (term bench)")
    p.add_argument("--k",
                   help="indices: comma list or a..b range (term bench); write a"
                        " list or range that starts negative as --k=-7,0")
    p.add_argument("--order",
                   help="matrix orders: comma list or a..b range (det bench)")
    p.add_argument("--trials", type=int, help="matrices per order (det bench)")
    p.add_argument("--bound", type=int, help="entry bound (det bench)")
    p.add_argument("--convention", choices=tuple(_CONVENTIONS))
    _add_common(p)
    p.add_argument("--seed", type=int, help="seed for the random matrices")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
