import contextlib
import csv
import decimal
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import nstepdet
from nstepdet.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    _CSV_FIELDS,
    _BLOCK,
    _HOLE,
    _comb_past,
    _csv_line,
    _elide,
    _prop1_lines,
    _record_dict,
    _record_lines,
    _table_line,
    _template,
    canonical_json,
    main,
    parse_range,
    parse_sizes,
    random_matrix,
)
from nstepdet.construction import Prop1Cell
from nstepdet.identities import FAMILIES
from nstepdet.nstep_seq import CLASSIC, PAPER_POWERS, sweep, term, terms_range


def forbid_work(monkeypatch, why):
    """Make every call that makes a record or a term fail with ``why``."""
    def no_work(*args):
        raise AssertionError(why)

    for name in ("sweep", "family_records", "random_matrix", "generalized_docagne",
                 "Prop1Cell", "term", "term_fast"):
        monkeypatch.setattr(f"nstepdet.cli.{name}", no_work)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), out


def without_timings(report):
    report = dict(report)
    report.pop("timings_ms", None)
    return report


class TestRangeParsing:
    def test_single_value(self):
        assert list(parse_range("7")) == [7]

    def test_span(self):
        assert list(parse_range("2..5")) == [2, 3, 4, 5]

    def test_negative_span(self):
        assert list(parse_range("-3..1")) == [-3, -2, -1, 0, 1]

    def test_empty_rejected(self):
        with pytest.raises(Exception):
            parse_range("5..2")

    def test_sizes_comma_list(self):
        assert parse_sizes("10,100,1000") == [10, 100, 1000]
        assert list(parse_sizes("3..5")) == [3, 4, 5]

    def test_huge_span_is_not_materialized(self):
        assert parse_range("1..1000000000000")[-1] == 10**12


class TestSeq:
    def test_paper_table(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "3", "--convention", "paper",
                           "--from", "1", "--to", "4")
        assert code == EXIT_OK
        assert out == "1 2 4 7\n"

    def test_classic_negative_span(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "2", "--convention", "classic",
                           "--from", "-3", "--to", "3")
        assert code == EXIT_OK
        assert out == "2 -1 1 0 1 1 2\n"

    def test_singleton(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "2", "--from", "5", "--to", "5")
        assert code == EXIT_OK
        assert out == "5\n"

    def test_json_format(self, capsys):
        code, payload, raw = run_json(
            capsys, "seq", "--n", "3", "--from", "1", "--to", "5",
            "--format", "json")
        assert code == EXIT_OK
        assert payload["command"] == "seq"
        assert payload["terms"] == ["1", "1", "2", "4", "7"]
        assert canonical_json(json.loads(raw)) == raw

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "2", "--from", "-1", "--to", "2",
                           "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines() == ["k,term", "-1,1", "0,0", "1,1", "2,1"]

    def test_reversed_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "seq", "--n", "2", "--from", "5", "--to", "3")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_seed_flag_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "seq", "--n", "2", "--from", "1", "--to", "3",
                           "--seed", "1")
        assert code == EXIT_USAGE
        assert out == ""

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "seq", "--n", "2", "--from", "1")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("n", ["1", "0", "-3"])
    def test_n_below_two_names_the_parameter(self, capsys, n):
        code, out, err = run(capsys, "seq", "--n", n, "--from", "1", "--to", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: parameter n must be >= 2, got {n}\n"

    def test_oversized_window_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the window check must come before any work")

        monkeypatch.setattr("nstepdet.cli.terms_range", no_work)
        monkeypatch.setattr("nstepdet.cli.sweep", no_work)
        started = time.perf_counter()
        code, out, err = run(capsys, "seq", "--n", "2", "--from", "-1000000000",
                             "--to", "1000000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert "terms" in err
        assert time.perf_counter() - started < 5.0

    def test_oversized_window_opens_no_out_file(self, capsys, tmp_path):
        target = tmp_path / "terms.json"
        code, out, _ = run(capsys, "seq", "--n", "2", "--from", "1", "--to",
                           "1000001", "--format", "json", "--out", str(target))
        assert code == EXIT_USAGE and out == ""
        assert not target.exists()

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_unwritable_out_fails_before_the_sweep(self, capsys, monkeypatch,
                                                    tmp_path, fmt):
        def no_sweep(*args):
            raise AssertionError("an unwritable --out must fail before the sweep")

        monkeypatch.setattr("nstepdet.cli.sweep", no_sweep)
        code, out, err = run(capsys, "seq", "--n", "2", "--from", "-900", "--to", "900",
                             "--format", fmt, "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    def test_fault_in_a_later_block_leaves_an_open_document(self, capsys, monkeypatch,
                                                             tmp_path, to_file):
        # The report is written while it is made: a fault after the first
        # blocks propagates, and what was written cannot parse as complete.
        calls = []

        def failing_sweep(window, count):
            calls.append(count)
            if len(calls) == 3:
                raise ArithmeticError("fault in a later block")
            return sweep(window, count)

        monkeypatch.setattr("nstepdet.cli.sweep", failing_sweep)
        target = tmp_path / "terms.json"
        argv = ["seq", "--n", "3", "--from", "-2000", "--to", "2000", "--format", "json"]
        with pytest.raises(ArithmeticError):
            main(argv + (["--out", str(target)] if to_file else []))
        written = target.read_text() if to_file else capsys.readouterr().out
        assert len(calls) == 3
        assert written.startswith("{\n") and '"terms": [' in written
        assert not written.endswith("]\n}\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(written)

    # Windows that end just before, on and just after a write block, once
    # and after several blocks; the jump window of n terms is written first.
    @pytest.mark.parametrize("n, convention, lo", [
        (2, "classic", -1300), (5, "paper", -40), (3, "classic", 1)])
    @pytest.mark.parametrize("blocks", [1, 3])
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_windows_across_write_blocks(self, capsys, n, convention, lo, blocks,
                                         extra):
        hi = lo + n + blocks * _BLOCK + extra - 1
        conv = {"classic": CLASSIC, "paper": PAPER_POWERS}[convention]
        expected = [str(v) for v in terms_range(n, conv, lo, hi)]
        # The oracle walk at the ends and at every block boundary.
        edges = {lo, hi} | {k for b in range(lo + n, hi + 2, _BLOCK)
                            for k in (b - 1, b) if lo <= k <= hi}
        assert all(expected[k - lo] == str(term(n, conv, k)) for k in edges)
        window = ["--n", str(n), "--convention", convention,
                  "--from", str(lo), "--to", str(hi)]
        code, payload, raw = run_json(capsys, "seq", *window, "--format", "json")
        assert code == EXIT_OK and payload["terms"] == expected
        assert raw == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run(capsys, "seq", *window, "--format", "csv")
        assert code == EXIT_OK
        assert out == "k,term\n" + "".join(
            f"{k},{v}\n" for k, v in zip(range(lo, hi + 1), expected))
        code, out, _ = run(capsys, "seq", *window)
        assert code == EXIT_OK and out == " ".join(expected) + "\n"

    # Each ``run`` reads capsys out, so no output leaks between examples.
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(2, 8), convention=st.sampled_from(["classic", "paper"]),
           lo=st.integers(-220, 220), count=st.integers(1, 40))
    @example(n=2, convention="classic", lo=-200, count=401)
    @example(n=8, convention="paper", lo=-200, count=401)
    @example(n=5, convention="classic", lo=-6, count=3)
    @example(n=3, convention="paper", lo=7, count=1)
    def test_every_format_writes_the_oracle_terms(self, capsys, n, convention, lo,
                                                  count):
        # Windows shorter than n, single terms, the classic zeros and
        # negative values near index 0, and terms far above 28 digits.
        hi = lo + count - 1
        window = ["--n", str(n), "--convention", convention,
                  "--from", str(lo), "--to", str(hi)]
        conv = {"classic": CLASSIC, "paper": PAPER_POWERS}[convention]
        expected = [str(v) for v in terms_range(n, conv, lo, hi)]
        assert expected == [str(term(n, conv, k)) for k in range(lo, hi + 1)]
        code, payload, raw = run_json(capsys, "seq", *window, "--format", "json")
        assert code == EXIT_OK and payload["terms"] == expected
        assert raw == json.dumps(payload, indent=2) + "\n"
        code, out, _ = run(capsys, "seq", *window, "--format", "csv")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert code == EXIT_OK
        assert rows == [[str(k), v] for k, v in zip(range(lo, hi + 1), expected)]
        code, out, _ = run(capsys, "seq", *window)
        assert code == EXIT_OK and out == " ".join(expected) + "\n"

    def test_callers_decimal_context_is_kept(self, capsys):
        expected = [str(v) for v in terms_range(3, CLASSIC, -200, 200)]
        with decimal.localcontext() as ctx:
            ctx.prec = 5
            ctx.clear_traps()
            before = repr(ctx)
            code, payload, _ = run_json(capsys, "seq", "--n", "3", "--from", "-200",
                                        "--to", "200", "--format", "json")
            assert decimal.getcontext() is ctx and repr(ctx) == before
        assert code == EXIT_OK and payload["terms"] == expected

    def test_same_json_under_python_O(self, capsys):
        # python -O strips assert statements; the report must not change.
        argv = ["seq", "--n", "4", "--from", "-150", "--to", "150", "--format", "json"]
        _, _, expected = run_json(capsys, *argv)
        src = str(Path(nstepdet.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-O", "-m", "nstepdet.cli", *argv],
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout == expected


class TestVerify:
    def test_single_vajda_record(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "vajda", "--n", "3", "--r", "1", "--p", "1",
            "--q", "1", "--format", "json")
        assert code == EXIT_OK
        assert report["summary"] == {"total": 1, "passed": 1, "failed": 0}
        rec = report["records"][0]
        assert rec["lhs"] == "-1"
        assert rec["pass"] is True

    def test_cassini_sweep_passes(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "cassini", "--n", "2..4", "--r", "1..10",
            "--convention", "classic", "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == 30

    def test_power_seeding_fails_and_exits_one(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "cassini", "--n", "2", "--r", "1..4",
            "--convention", "paper", "--format", "json")
        assert code == EXIT_FAIL
        assert report["summary"]["failed"] > 0

    def test_both_conventions_probe(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "cassini", "--n", "2..3", "--r", "1..3",
            "--convention", "both", "--format", "json")
        assert code == EXIT_FAIL  # power seeding fails some cells, by design
        conventions = {rec["case"]["convention"] for rec in report["records"]}
        assert conventions == {"classic", "paper"}
        classic = [rec for rec in report["records"]
                   if rec["case"]["convention"] == "classic"]
        assert all(rec["pass"] for rec in classic)

    def test_all_kinds_sweep(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "all", "--n", "2..3", "--r", "1..3",
            "--s", "1..2", "--p", "1..2", "--q", "1..2", "--trials", "2",
            "--format", "json")
        assert code == EXIT_OK
        kinds = [rec["case"]["kind"] for rec in report["records"]]
        assert set(kinds) == {"cassini", "catalan", "docagne", "gen-docagne",
                              "vajda"}
        # canonical order: kinds alphabetical, parameters nested ascending
        assert kinds == sorted(kinds)

    def test_gen_docagne_with_matrix(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "gen-docagne", "--matrix", "1 2; 0 1",
            "--r", "1..3", "--format", "json")
        assert code == EXIT_OK
        assert [rec["lhs"] for rec in report["records"]] == ["1", "2", "3"]

    def test_matrix_flag_restricted_to_gen_docagne(self, capsys):
        code, _, err = run(capsys, "verify", "cassini", "--n", "2",
                           "--matrix", "1 2; 0 1")
        assert code == EXIT_USAGE
        assert "gen-docagne" in err

    def test_missing_n_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "cassini")
        assert code == EXIT_USAGE

    def test_empty_range_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "cassini", "--n", "4..2")
        assert code == EXIT_USAGE

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "verify", "mystery", "--n", "2")
        assert code == EXIT_USAGE

    def test_bad_trials_or_bound_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "verify", "gen-docagne", "--n", "2", "--r", "1",
                           "--trials", "0")
        assert code == EXIT_USAGE
        assert out == ""
        code, _, _ = run(capsys, "verify", "gen-docagne", "--n", "2", "--r", "1",
                         "--bound", "-1")
        assert code == EXIT_USAGE

    def test_sweep_without_records_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("nstepdet.cli._plan_sweep", lambda *args: (0, list))
        code, out, err = run(capsys, "verify", "cassini", "--n", "2", "--r", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "nothing was checked" in err

    def test_oversized_sweep_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the sweep check must come before any work")

        for name in ("family_records", "generalized_docagne", "random_matrix"):
            monkeypatch.setattr(f"nstepdet.cli.{name}", no_work)
        for flags in (("cassini", "--n", "2", "--r", "1..100000000"),
                      ("all", "--n", "2..3", "--r", "1..10000000000000000000000"),
                      ("gen-docagne", "--n", "2", "--r", "1..1000", "--trials", "1001"),
                      ("gen-docagne", "--matrix", "1 2; 0 1", "--r", "1..1000001")):
            started = time.perf_counter()
            code, out, err = run(capsys, "verify", *flags)
            assert code == EXIT_USAGE, flags
            assert out == ""
            assert "records" in err
            assert time.perf_counter() - started < 5.0

    def test_sweep_at_the_cap_is_not_rejected(self, capsys, monkeypatch):
        # 1000 x 1000 records is exactly the cap: the sweep starts.
        def stop(*args):
            raise RuntimeError("sweep started")

        monkeypatch.setattr("nstepdet.cli.random_matrix", stop)
        with pytest.raises(RuntimeError, match="sweep started"):
            main(["verify", "gen-docagne", "--n", "2", "--r", "1..1000",
                  "--trials", "1000"])

    def test_csv_output(self, capsys):
        code, out, _ = run(capsys, "verify", "cassini", "--n", "2", "--r", "1",
                           "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].startswith("kind,")
        assert lines[1].startswith("cassini,")
        assert lines[1].endswith(",true")

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "cassini", "--n", "2", "--r", "1..2",
                           "--format", "json", "--out", str(target))
        assert code == EXIT_OK
        assert "wrote" in out
        report = json.loads(target.read_text())
        assert report["summary"]["total"] == 2


class TestProp1:
    def test_seeded_sweep_passes(self, capsys):
        code, report, _ = run_json(
            capsys, "prop1", "--n", "2..3", "--r", "1..3", "--trials", "3",
            "--bound", "9", "--seed", "42", "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["failed"] == 0
        # every record carries the full deletion provenance
        rec = report["records"][0]
        assert rec["case"]["kind"] == "prop1"
        assert rec["case"]["deleted"] == [1]

    def test_zero_bound_gives_zero_records(self, capsys):
        code, report, _ = run_json(
            capsys, "prop1", "--n", "2", "--r", "1..2", "--trials", "1",
            "--bound", "0", "--format", "json")
        assert code == EXIT_OK
        assert all(rec["lhs"] == "0" and rec["rhs"] == "0"
                   for rec in report["records"])

    def test_same_seed_same_report(self, capsys):
        args = ("prop1", "--n", "2..3", "--r", "1..2", "--trials", "4",
                "--seed", "7", "--format", "json")
        _, first, _ = run_json(capsys, *args)
        _, second, _ = run_json(capsys, *args)
        assert without_timings(first) == without_timings(second)

    def test_different_seed_differs(self, capsys):
        base = ("prop1", "--n", "3", "--r", "2", "--trials", "2",
                "--format", "json")
        _, one, _ = run_json(capsys, *base, "--seed", "1")
        _, two, _ = run_json(capsys, *base, "--seed", "2")
        assert without_timings(one) != without_timings(two)

    def test_record_count(self, capsys):
        # C(n+r-1, r) deletions per trial
        code, report, _ = run_json(
            capsys, "prop1", "--n", "2", "--r", "2", "--trials", "3",
            "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["total"] == 3 * 3  # C(3,2) = 3 deletions

    def test_explicit_matrix(self, capsys):
        code, report, _ = run_json(
            capsys, "prop1", "--matrix", "1 2; 0 1", "--r", "1..3",
            "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["failed"] == 0
        assert all(rec["case"]["n"] == 2 for rec in report["records"])
        # det(a) = 1, so each minor equals sign x det Q; the minors of the
        # extension (1 2 3 5 8; 0 1 1 2 3) check against cofactor expansion.
        got = [(rec["case"]["r"], rec["case"]["trial"], rec["case"]["deleted"],
                rec["lhs"], rec["rhs"]) for rec in report["records"]]
        assert got == [
            (1, 1, [1], "-1", "-1"), (1, 1, [2], "1", "1"),
            (2, 1, [1, 2], "1", "1"), (2, 1, [1, 3], "-1", "-1"),
            (2, 1, [2, 3], "2", "2"),
            (3, 1, [1, 2, 3], "-1", "-1"), (3, 1, [1, 2, 4], "1", "1"),
            (3, 1, [1, 3, 4], "-2", "-2"), (3, 1, [2, 3, 4], "3", "3"),
        ]

    def test_oversized_grid_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the grid check must come before any work")

        monkeypatch.setattr("nstepdet.cli.random_matrix", no_work)
        monkeypatch.setattr("nstepdet.cli.Prop1Cell", no_work)
        # A billion-value --r must be rejected without listing its values,
        # and a huge single cell without counting its records exactly.
        for n, r in (("5..10", "1..40"), ("3", "1..1000000000"),
                     ("3000000", "2000000")):
            started = time.perf_counter()
            code, out, err = run(capsys, "prop1", "--n", n, "--r", r)
            assert code == EXIT_USAGE
            assert out == ""
            assert "records" in err
            assert time.perf_counter() - started < 5.0

    def test_oversized_matrix_run_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the cap must count a --matrix run's records")

        monkeypatch.setattr("nstepdet.cli.Prop1Cell", no_work)
        # One 3x3 matrix over r 1..200: sum of C(r+2, 2) = 1,373,700 records.
        code, out, err = run(capsys, "prop1", "--matrix", "1 0 0; 0 1 0; 0 0 1",
                             "--r", "1..200")
        assert code == EXIT_USAGE
        assert out == ""
        assert "records" in err

    def test_record_count_stops_past_the_cap(self):
        # Exact at or below the limit, above it otherwise, for every k.
        for m in range(40):
            for k in range(m + 1):
                count = _comb_past(m, k, 1000)
                exact = math.comb(m, k)
                assert count == exact if exact <= 1000 else count > 1000, (m, k)

    def test_bad_order_or_length_is_usage_error(self, capsys):
        # A value starting with "-" is written --r=..., or argparse takes it
        # for an option and never reaches the r >= 1 check.
        for flags, parameter in ((("--n", "1..3"), "n"), (("--r", "0..2"), "r"),
                                 (("--r=-3..-1",), "r")):
            code, out, err = run(capsys, "prop1", *flags)
            assert code == EXIT_USAGE, flags
            assert out == ""
            assert f"parameter {parameter} must be >=" in err, (flags, err)

    def test_bad_trials_usage_error(self, capsys):
        code, _, _ = run(capsys, "prop1", "--trials", "0")
        assert code == EXIT_USAGE

    def test_non_square_matrix_is_usage_error(self, capsys):
        code, out, err = run(capsys, "prop1", "--matrix", "1 2 3; 4 5 6", "--r", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: --matrix needs a square matrix, got 2x3\n"

    @pytest.mark.parametrize("argv", [
        ("prop1", "--n", "2", "--r", "1", "--trials", "1"),
        ("verify", "gen-docagne", "--n", "2", "--r", "1", "--trials", "1"),
    ])
    def test_empty_matrix_literal_is_usage_error(self, capsys, argv):
        # An empty --matrix is a literal to parse, not an absent flag.
        code, out, err = run(capsys, *argv, "--matrix", "")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: empty row in matrix literal ''\n"

    def test_each_matrix_is_drawn_just_before_it_is_checked(self, capsys, monkeypatch):
        # A cell's matrices are never held together: each is drawn, then
        # checked, before the next is drawn.
        events = []

        def draw(*args):
            events.append("draw")
            return random_matrix(*args)

        class Cell(Prop1Cell):
            def __call__(self, a):
                events.append("check")
                return super().__call__(a)

        monkeypatch.setattr("nstepdet.cli.random_matrix", draw)
        monkeypatch.setattr("nstepdet.cli.Prop1Cell", Cell)
        code, _, _ = run(capsys, "prop1", "--n", "2..3", "--r", "1..2", "--trials", "3")
        assert code == EXIT_OK
        assert events == ["draw", "check"] * 12


def json_line(record):
    """A record's JSON text as ``json.dumps(indent=2)`` writes it two levels
    into a report."""
    return json.dumps(record, indent=2).replace("\n", "\n    ")


# The line function of each format, which writes one record dict.
GENERIC_LINES = {"json": json_line, "csv": _csv_line, "table": _table_line}


def generic_line(fmt, case, lhs, rhs):
    """A record's line by ``_record_dict`` and the format's line function,
    and its verdict."""
    record = _record_dict(case, lhs, rhs, lhs == rhs)
    return GENERIC_LINES[fmt](record), record["pass"]


def generic_prop1_lines(fmt, n, r, batches):
    """The line and verdict of each record of ``batches``, (trial, records)
    pairs of one cell, by ``_record_dict`` and the format's line function."""
    for trial, batch in batches:
        for rec in batch:
            case = {"kind": "prop1", "n": n, "r": r, "trial": trial,
                    "deleted": list(rec.deleted)}
            yield generic_line(fmt, case, rec.minor_value, rec.rhs)


def report_records(fmt, out):
    """The text of a report's records, and the text between two of them."""
    if fmt == "json":
        return out.split('"records": [\n    ', 1)[1].split("\n  ],\n", 1)[0], ",\n    "
    if fmt == "csv":
        return out.split("\n", 1)[1][:-1], "\n"
    return out[:out.rindex("\nsummary: ")], "\n"


def skew_last(batch):
    """``batch`` with its last record's minor off by one, so it fails."""
    return batch[:-1] + [batch[-1]._replace(minor_value=batch[-1].minor_value + 1)]


class TestProp1Lines:
    """prop1 writes each record from text made once per cell; every line
    must be the one the format's line function writes for the record's
    ``_record_dict``."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), r=st.integers(1, 6),
           bound=st.sampled_from((0, 9, 10**15)), trials=st.integers(1, 3),
           skewed=st.booleans())
    def test_cell_lines_equal_the_line_functions(self, data, n, r, bound, trials,
                                                 skewed):
        # Entries up to 10**15 make sides long enough for the table to elide.
        cell = Prop1Cell(n, r)
        rng = Random(data.draw(st.integers(0, 10**6)))
        batches = [(trial, cell(random_matrix(rng, n, bound)))
                   for trial in range(1, trials + 1)]
        if skewed:
            batches = [(trial, skew_last(batch)) for trial, batch in batches]
        for fmt in GENERIC_LINES:
            lines = list(_prop1_lines(fmt, cell, iter(batches)))
            assert lines == list(generic_prop1_lines(fmt, n, r, batches)), fmt
            assert [passed for _, passed in lines].count(False) == skewed * trials

    # A cell of 25 trials x C(8, 6) = 28 records crosses a block boundary;
    # a --matrix run takes several cells of one matrix.
    @pytest.mark.parametrize("argv", [
        "prop1 --n 3 --r 6 --trials 25 --seed 4",
        "prop1 --n 2..3 --r 1..3 --trials 2 --bound 10000000000000 --seed 8",
        "prop1 --matrix 2_-1_0;_1_3_1;_0_4_-2 --r 1..3",
    ])
    @pytest.mark.parametrize("fmt", list(GENERIC_LINES))
    def test_report_lines_equal_the_line_functions(self, capsys, argv, fmt):
        argv = [a.replace("_", " ") for a in argv.split()]
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_OK
        args = build_args(argv)
        records, sep = report_records(fmt, out)
        assert records == sep.join(text for text, _ in self.expected(fmt, args))

    @pytest.mark.parametrize("fmt", list(GENERIC_LINES))
    def test_failing_records(self, capsys, monkeypatch, fmt):
        # A minor that the per-matrix recheck does not see (it takes the
        # first deletions at trials 1 and 2) fails its record: "pass": false
        # in JSON and CSV, FAIL in a table.
        class Skewed(Prop1Cell):
            def __call__(self, a):
                return skew_last(super().__call__(a))

        monkeypatch.setattr("nstepdet.cli.Prop1Cell", Skewed)
        argv = ["prop1", "--n", "2..3", "--r", "2..3", "--trials", "2", "--seed", "3"]
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == EXIT_FAIL
        expected = list(self.expected(fmt, build_args(argv), skew_last))
        records, sep = report_records(fmt, out)
        assert records == sep.join(text for text, _ in expected)
        assert [passed for _, passed in expected].count(False) == 8
        failed = {"json": '"pass": false', "csv": ",false", "table": "  FAIL"}[fmt]
        assert out.count(failed) == 8

    @staticmethod
    def expected(fmt, args, skew=lambda batch: batch):
        """The (line, verdict) of each record of a prop1 run, its matrices
        drawn anew and checked by a ``Prop1Cell``, a cell at a time."""
        rng = Random(args.seed)
        if args.matrix is not None:
            base = nstepdet.parse_matrix(args.matrix)
            cells = [(base.rows, r, [base]) for r in parse_range(args.r)]
        else:
            cells = [(n, r, [random_matrix(rng, n, args.bound) for _ in range(args.trials)])
                     for n in parse_range(args.n) for r in parse_range(args.r)]
        for n, r, mats in cells:
            cell = Prop1Cell(n, r)
            batches = enumerate([skew(cell(a)) for a in mats], start=1)
            yield from generic_prop1_lines(fmt, n, r, batches)


def build_args(argv):
    """The parsed flags of a prop1 run, its defaults filled in."""
    args = nstepdet.cli.build_parser().parse_args(argv)
    for name, value in nstepdet.cli._PROP1_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, value)
    return args


def span(lo, hi):
    """An 'a..b' range within lo..hi, at most three values long."""
    return st.tuples(st.integers(lo, hi), st.integers(0, 2)).map(
        lambda t: f"{t[0]}..{min(t[0] + t[1], hi)}")


CONVENTION = st.sampled_from(["classic", "paper", "both"])
MATRIX = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)).map(
    lambda rows: "; ".join(" ".join(map(str, row)) for row in rows))
LARGE_BOUND = st.sampled_from(["9", "1000000000000000"])


def family_run(kind):
    """A verify run of family ``kind`` over small ranges of the axes it
    reads; docagne's s reaches 130, whose sides a table elides."""
    axes = {"s": span(1, 130) if kind == "docagne" else span(1, 3), "p": span(1, 3),
            "q": span(1, 3)}
    flags = st.fixed_dictionaries({
        "--n": span(2, 4), "--r": span(1, 4), "--convention": CONVENTION,
        **{f"--{axis}": axes[axis] for axis in FAMILIES[kind].axes}})
    return flags.map(lambda f: ["verify", kind, *[x for item in f.items() for x in item]])


def skew_record(rec):
    return rec._replace(rhs=rec.rhs + 1)


def skew_int(value):
    return value + 1


def skewed(call, skew, fails):
    """``call`` whose result is skewed at the calls that the cycle ``fails``
    marks."""
    marks = itertools.cycle(fails)

    def wrapper(*args):
        result = call(*args)
        return skew(result) if next(marks) else result

    return wrapper


def seeing(record_lines, seen):
    """``record_lines`` that first appends each (case, lhs, rhs) it takes
    to ``seen``."""
    def wrapper(fmt, records):
        return record_lines(fmt, (seen.append(record) or record for record in records))

    return wrapper


# Runs of every verify kind and both benches, each with the names that its
# records' sides come from, as (argv, {name in nstepdet.cli: skew}).
RECORD_RUNS = st.one_of(
    *[family_run(kind).map(lambda argv, kind=kind: (
        argv, {FAMILIES[kind].verify.__name__: skew_record}))
      for kind in FAMILIES],
    st.tuples(span(2, 3), span(1, 3), st.integers(1, 2), LARGE_BOUND,
              st.integers(0, 99)).map(lambda t: (
        ["verify", "gen-docagne", "--n", t[0], "--r", t[1], "--trials", str(t[2]),
         "--bound", t[3], "--seed", str(t[4])], {"generalized_docagne": skew_record})),
    st.tuples(MATRIX, span(1, 4)).map(lambda t: (
        ["verify", "gen-docagne", "--matrix", t[0], "--r", t[1]],
        {"generalized_docagne": skew_record})),
    st.tuples(CONVENTION, st.integers(1, 2)).map(lambda t: (
        ["verify", "all", "--n", "2..3", "--r", "1..2", "--s", "1..2", "--p", "1..2",
         "--q", "2", "--trials", str(t[1]), "--convention", t[0]],
        {**{family.verify.__name__: skew_record
            for family in FAMILIES.values()},
         "generalized_docagne": skew_record})),
    st.tuples(st.integers(2, 5), st.lists(st.integers(-30, 200), min_size=1, max_size=4),
              st.sampled_from(["classic", "paper"])).map(lambda t: (
        ["bench", "term-fast-vs-iter", "--n", str(t[0]), f"--k={','.join(map(str, t[1]))}",
         "--convention", t[2]], {"term": skew_int})),
    st.tuples(span(1, 5), st.integers(1, 3), LARGE_BOUND, st.integers(0, 99)).map(
        lambda t: (["bench", "bareiss-vs-laplace", "--order", t[0], "--trials", str(t[1]),
                    "--bound", t[2], "--seed", str(t[3])], {"det_laplace": skew_int})),
)


class TestRecordLines:
    """verify and bench write each record as one fill of the template of its
    shape; every line must be the one the format's line function writes for
    the record's ``_record_dict``, failing records among them."""

    @pytest.mark.parametrize("fmt", list(GENERIC_LINES))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(run_and_skews=RECORD_RUNS,
           fails=st.lists(st.booleans(), min_size=1, max_size=4))
    def test_report_lines_equal_the_line_functions(self, capsys, fmt, run_and_skews,
                                                   fails):
        # A cycle of verdicts skews the sides of some records, so records of
        # one shape pass and fail side by side.
        argv, skews = run_and_skews
        seen = []
        with contextlib.ExitStack() as stack:
            for name, skew in skews.items():
                stack.enter_context(mock.patch.object(
                    nstepdet.cli, name, skewed(getattr(nstepdet.cli, name), skew, fails)))
            stack.enter_context(mock.patch.object(
                nstepdet.cli, "_record_lines", seeing(nstepdet.cli._record_lines, seen)))
            code, out, _ = run(capsys, *argv, "--format", fmt)
        expected = [generic_line(fmt, *record) for record in seen]
        records, sep = report_records(fmt, out)
        assert records == sep.join(text for text, _ in expected), argv
        failed = [passed for _, passed in expected].count(False)
        assert code == (EXIT_FAIL if failed else EXIT_OK)

    # The pure-Python encoder runs for the head, for the tail, and once per
    # record shape: a verify sweep's shapes are the case layouts with their
    # str values and verdicts that its records show, and every prop1 cell
    # makes one template per verdict.
    @pytest.mark.parametrize("argv", [
        "verify all --n 2..4 --r 1..6 --convention both",
        "bench term-fast-vs-iter --n 3 --k 1..40",
        "prop1 --n 2..4 --r 1..3 --trials 3",
    ])
    def test_encoder_runs_once_per_shape(self, capsys, argv):
        with mock.patch.object(nstepdet.cli.json, "dumps", wraps=json.dumps) as dumps:
            code, out, _ = run(capsys, *argv.split(), "--format", "json")
        assert code in (EXIT_OK, EXIT_FAIL)
        records = json.loads(out)["records"]
        if argv.startswith("prop1"):
            shapes = 2 * len({(rec["case"]["n"], rec["case"]["r"]) for rec in records})
        else:
            shapes = len({(*rec["case"], *[value for value in rec["case"].values()
                                            if type(value) is str], rec["pass"])
                          for rec in records})
        assert len(records) > 4 * shapes
        assert dumps.call_count == shapes + 2


class TestBench:
    def test_term_engines_agree(self, capsys):
        code, report, _ = run_json(
            capsys, "bench", "term-fast-vs-iter", "--n", "2", "--k", "50,2000",
            "--format", "json")
        assert code == EXIT_OK
        assert all(rec["pass"] for rec in report["records"])
        assert any(key.startswith("fast[") for key in report["timings_ms"])

    def test_det_engines_agree(self, capsys):
        code, report, _ = run_json(
            capsys, "bench", "bareiss-vs-laplace", "--order", "3..5",
            "--trials", "4", "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["total"] == 12
        assert report["summary"]["failed"] == 0

    def test_unknown_task_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "bench", "sort-vs-bogosort")
        assert code == EXIT_USAGE

    def test_non_positive_k_gives_passing_records(self, capsys):
        # Both engines take any integer index.
        code, report, _ = run_json(
            capsys, "bench", "term-fast-vs-iter", "--n", "3", "--k=-7,0",
            "--format", "json")
        assert code == EXIT_OK
        assert [rec["case"]["k"] for rec in report["records"]] == [-7, 0]
        assert all(rec["pass"] for rec in report["records"])

    def test_order_beyond_oracle_guard(self, capsys):
        code, _, _ = run(capsys, "bench", "bareiss-vs-laplace", "--order", "9")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        ("bench bareiss-vs-laplace --order 3,9", "--order"),
        ("bench bareiss-vs-laplace --order 1 --trials 3000000", "1000000 records"),
        ("bench term-fast-vs-iter --k 1..2000000", "1000000 records"),
    ])
    def test_bad_run_rejected_before_work(self, capsys, monkeypatch, argv, message):
        def no_work(*args):
            raise AssertionError("the run's checks must come before any work")

        for name in ("random_matrix", "term", "term_fast"):
            monkeypatch.setattr(f"nstepdet.cli.{name}", no_work)
        started = time.perf_counter()
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err
        assert time.perf_counter() - started < 5.0

    def test_bad_trials_or_bound_is_usage_error(self, capsys):
        for flags, message in (
                (("--trials", "0"), "parameter trials must be >= 1, got 0"),
                (("--bound", "-2"), "parameter bound must be >= 0, got -2")):
            code, out, err = run(capsys, "bench", "bareiss-vs-laplace",
                                 "--order", "6", *flags)
            assert code == EXIT_USAGE, flags
            assert out == ""
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, keys", [
        (("term-fast-vs-iter", "--k", "5,5"), ["iter[k=5]", "fast[k=5]"]),
        (("bareiss-vs-laplace", "--order", "3,3", "--trials", "1"),
         ["bareiss[order=3]", "laplace[order=3]"]),
    ])
    def test_repeated_size_sums_its_timings(self, capsys, monkeypatch, argv, keys):
        # Every perf_counter() call advances one second, so each timed
        # span is exactly 1000 ms and a key listed twice must read 2000.
        clock = iter(range(1000))
        monkeypatch.setattr("nstepdet.cli.time.perf_counter", lambda: next(clock))
        code, report, _ = run_json(capsys, "bench", *argv, "--format", "json")
        assert code == EXIT_OK
        assert report["summary"]["total"] == 2
        timings = report["timings_ms"]
        assert timings.pop("total") > 0
        assert timings == {keys[0]: 2000.0, keys[1]: 2000.0}

    def test_bench_without_records_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr("nstepdet.cli.parse_sizes", lambda text: [])
        code, out, err = run(capsys, "bench", "bareiss-vs-laplace")
        assert code == EXIT_USAGE
        assert out == ""
        assert "nothing was checked" in err


class TestUnusedFlags:
    """A flag given explicitly that the run does not read is a usage error,
    raised before any work; the same flag left out takes its default, which
    the report's params show as before."""

    @pytest.mark.parametrize("argv, flags", [
        # prop1 --matrix checks one given matrix once.
        ("prop1 --matrix 1_2;_0_1 --r 1 --n 5..9", "--n"),
        ("prop1 --matrix 1_2;_0_1 --r 1 --trials 7", "--trials"),
        ("prop1 --matrix 1_2;_0_1 --r 1 --bound 3", "--bound"),
        ("prop1 --matrix 1_2;_0_1 --r 1 --seed 1", "--seed"),
        ("prop1 --matrix 1_2;_0_1 --r 1 --n 5..9 --trials 7", "--n, --trials"),
        # The sequence-matrix families draw no matrix, even at the default.
        ("verify cassini --n 2 --r 1 --trials 0", "--trials"),
        ("verify docagne --n 2 --r 1 --trials 5", "--trials"),
        ("verify vajda --n 2 --r 1 --bound 9", "--bound"),
        ("verify catalan --n 2 --r 1 --seed 0", "--seed"),
        # Each family reads its own axes only.
        ("verify cassini --n 2 --r 1 --s 1..2", "--s"),
        ("verify docagne --n 2 --r 1 --p 1 --q 1", "--p, --q"),
        ("verify catalan --n 2 --r 1 --q 1", "--q"),
        # gen-docagne's records use the paper seeds and its own matrices.
        ("verify gen-docagne --n 2 --r 1 --convention classic", "--convention"),
        ("verify gen-docagne --n 2 --r 1 --s 1", "--s"),
        ("verify gen-docagne --matrix 1_2;_0_1 --r 1 --n 2", "--n"),
        ("verify gen-docagne --matrix 1_2;_0_1 --r 1 --trials 1", "--trials"),
        ("verify gen-docagne --matrix 1_2;_0_1 --r 1 --bound 1", "--bound"),
        ("verify gen-docagne --matrix 1_2;_0_1 --r 1 --seed 1", "--seed"),
        # Each bench task takes none of the other's flags.
        ("bench term-fast-vs-iter --k 5 --order 3", "--order"),
        ("bench term-fast-vs-iter --k 5 --trials 1", "--trials"),
        ("bench term-fast-vs-iter --k 5 --bound 1", "--bound"),
        ("bench term-fast-vs-iter --k 5 --seed 1", "--seed"),
        ("bench bareiss-vs-laplace --order 2 --n 3", "--n"),
        ("bench bareiss-vs-laplace --order 2 --k 5", "--k"),
        ("bench bareiss-vs-laplace --order 2 --convention paper", "--convention"),
    ])
    def test_unused_flag_is_usage_error(self, capsys, monkeypatch, argv, flags):
        def no_work(*args):
            raise AssertionError("the flag check must come before any work")

        for name in ("family_records", "generalized_docagne", "random_matrix",
                     "Prop1Cell", "term", "term_fast", "det_bareiss"):
            monkeypatch.setattr(f"nstepdet.cli.{name}", no_work)
        code, out, err = run(capsys, *[a.replace("_", " ") for a in argv.split()])
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: this run does not use {flags}\n"

    @pytest.mark.parametrize("argv", [
        "verify all --n 2 --r 1 --s 1 --p 1 --q 1 --trials 1 --bound 1 --seed 1"
        " --convention both",
        "verify gen-docagne --n 2 --r 1 --trials 1 --bound 1 --seed 1",
        "verify vajda --n 2 --r 1 --p 1 --q 1 --convention paper",
        "prop1 --n 2 --r 1 --trials 1 --bound 1 --seed 1",
        "bench term-fast-vs-iter --n 3 --k 5 --convention paper",
        "bench bareiss-vs-laplace --order 2 --trials 1 --bound 1 --seed 1",
    ])
    def test_every_flag_a_run_reads_is_accepted(self, capsys, argv):
        code, _, err = run(capsys, *argv.split())
        assert code in (EXIT_OK, EXIT_FAIL), err

    @pytest.mark.parametrize("argv, params", [
        ("verify cassini --n 2 --r 1",
         {"kind": "cassini", "n": "2", "r": "1", "s": "1..5", "p": "1..4",
          "q": "1..4", "convention": "classic", "trials": 5, "bound": 9,
          "matrix": None, "seed": 0}),
        ("verify gen-docagne --matrix 1_2;_0_1 --r 1",
         {"kind": "gen-docagne", "n": None, "r": "1", "s": "1..5", "p": "1..4",
          "q": "1..4", "convention": "classic", "trials": 5, "bound": 9,
          "matrix": "1 2; 0 1", "seed": 0}),
        ("prop1 --matrix 1_2;_0_1 --r 1",
         {"n": "2..3", "r": "1", "trials": 20, "bound": 9, "matrix": "1 2; 0 1",
          "seed": 0}),
        ("bench term-fast-vs-iter --k 5",
         {"task": "term-fast-vs-iter", "n": 2, "k": "5", "order": "6", "trials": 10,
          "bound": 9, "convention": "classic", "seed": 0}),
        ("bench bareiss-vs-laplace --order 2 --trials 1",
         {"task": "bareiss-vs-laplace", "n": 2, "k": "100000", "order": "2",
          "trials": 1, "bound": 9, "convention": "classic", "seed": 0}),
    ])
    def test_defaults_fill_the_params(self, capsys, argv, params):
        code, report, _ = run_json(
            capsys, *[a.replace("_", " ") for a in argv.split()], "--format", "json")
        assert code == EXIT_OK
        assert report["params"] == params
        assert list(report["params"]) == list(params)


class TestReportShape:
    @pytest.mark.parametrize("argv", [
        ("seq", "--n", "2", "--from", "1", "--to", "3"),
        ("verify", "cassini", "--n", "2", "--r", "1"),
        ("prop1", "--n", "2", "--r", "1", "--trials", "1"),
        ("bench", "bareiss-vs-laplace", "--order", "2", "--trials", "1"),
        ("bench", "term-fast-vs-iter", "--k", "5"),
    ])
    @pytest.mark.parametrize("where", ["directory", "missing parent", "empty path"])
    def test_unwritable_out_is_usage_error(self, capsys, monkeypatch, tmp_path, argv,
                                           where):
        # --out is opened before any work, so no record or term is made.
        forbid_work(monkeypatch, "an unwritable --out must fail before any work")
        target = {"directory": tmp_path, "missing parent": tmp_path / "missing" / "x.txt",
                  "empty path": ""}[where]
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert out == ""

    # Each value below its floor, and a --matrix that is not square, is
    # named as the sweep's first record would name it: r and the offsets
    # before n, and `verify all` kind by kind.
    @pytest.mark.parametrize("argv, error", [
        ("verify cassini --n 2 --r 0..2", "parameter r must be >= 1, got 0"),
        ("verify docagne --n 2 --r 1 --s 0", "parameter s must be >= 1, got 0"),
        ("verify vajda --n 2 --r 1 --q 0", "parameter q must be >= 1, got 0"),
        ("verify vajda --n 1 --r 1 --p 0 --q 0", "parameter p must be >= 1, got 0"),
        ("verify catalan --n 1..3 --r 1 --p 0..2", "parameter p must be >= 1, got 0"),
        ("verify gen-docagne --n 1 --r 1", "parameter n must be >= 2, got 1"),
        ("verify gen-docagne --n 0", "parameter n must be >= 2, got 0"),
        ("verify gen-docagne --n=-1 --r 1", "parameter n must be >= 2, got -1"),
        ("verify gen-docagne --matrix 1_2_3;_4_5_6 --r 1",
         "generalized_docagne needs a square matrix, got 2x3"),
        ("verify gen-docagne --matrix 7 --r 1", "parameter n must be >= 2, got 1"),
        ("verify all --n 2..6 --r 1..200 --s 0", "parameter s must be >= 1, got 0"),
        ("verify all --n 1 --r 1 --s 0", "parameter n must be >= 2, got 1"),
        ("bench term-fast-vs-iter --n 1 --k 5", "parameter n must be >= 2, got 1"),
    ])
    def test_value_below_its_floor_leaves_out_untouched(self, capsys, monkeypatch,
                                                        tmp_path, argv, error):
        forbid_work(monkeypatch, "a value below its floor must fail before any work")
        target = tmp_path / "report.txt"
        target.write_bytes(b"an earlier report\n")
        code, out, err = run(capsys, *[a.replace("_", " ") for a in argv.split()],
                             "--format", "csv", "--out", str(target))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: {error}\n"
        assert target.read_bytes() == b"an earlier report\n"

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_records_are_written_a_block_at_a_time(self, monkeypatch, fmt):
        # The first write comes once the first block of records is made,
        # not after the whole sweep.
        made = []
        verify = nstepdet.cli.verify_cassini

        def counted(*args):
            made.append(args)
            return verify(*args)

        class Stdout(io.StringIO):
            made_at_first_write = None

            def write(self, text):
                if self.made_at_first_write is None:
                    self.made_at_first_write = len(made)
                return super().write(text)

        stdout = Stdout()
        monkeypatch.setattr("nstepdet.cli.verify_cassini", counted)
        monkeypatch.setattr("sys.stdout", stdout)
        code = main(["verify", "cassini", "--n", "2", "--r", "1..2000", "--format", fmt])
        assert code == EXIT_OK and len(made) == 2000
        assert 1 <= stdout.made_at_first_write <= _BLOCK

    # Two blocks and a part of a third, a run of several sweeps whose
    # records cross a block boundary, and a prop1 cell past one block.
    @pytest.mark.parametrize("argv, total", [
        ("verify cassini --n 2..4 --r 1..400", 1200),
        ("verify all --n 2 --r 1..100 --s 1..3 --p 1..2 --q 1..2 --trials 1", 1100),
        ("prop1 --n 3 --r 6 --trials 25", 700),
    ])
    def test_reports_across_record_blocks(self, capsys, argv, total):
        code, report, raw = run_json(capsys, *argv.split(), "--format", "json")
        assert code == EXIT_OK
        assert raw == json.dumps(report, indent=2) + "\n"
        assert report["summary"] == {"total": total, "passed": total, "failed": 0}
        assert len(report["records"]) == total
        code, out, _ = run(capsys, *argv.split(), "--format", "csv")
        lines = out.splitlines()
        assert code == EXIT_OK and len(lines) == total + 1
        assert all(line.count(",") == len(_CSV_FIELDS) - 1 for line in lines)
        assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true"] * total
        code, out, _ = run(capsys, *argv.split())
        lines = out.splitlines()
        assert code == EXIT_OK and len(lines) == total + 2
        assert all(line.endswith("  pass") for line in lines[:total])
        assert lines[total] == f"summary: total={total} passed={total} failed=0"

    def test_json_round_trip_bytes(self, capsys):
        for args in (
            ("verify", "docagne", "--n", "2..3", "--r", "1..2", "--s", "1..2",
             "--format", "json"),
            ("prop1", "--n", "2", "--r", "1", "--trials", "2",
             "--format", "json"),
        ):
            code, out, _ = run(capsys, *args)
            assert code == EXIT_OK
            assert canonical_json(json.loads(out)) == out

    def test_schema_fields(self, capsys):
        _, report, _ = run_json(
            capsys, "verify", "cassini", "--n", "2", "--r", "1",
            "--format", "json")
        assert list(report) == ["version", "command", "params", "records",
                                "summary", "timings_ms"]
        rec = report["records"][0]
        assert list(rec) == ["case", "lhs", "rhs", "pass"]
        assert isinstance(rec["lhs"], str)  # big ints travel as strings

    def test_exit_zero_iff_all_pass(self, capsys):
        code_ok, report_ok, _ = run_json(
            capsys, "verify", "vajda", "--n", "2", "--r", "1", "--p", "1",
            "--q", "1", "--format", "json")
        assert code_ok == EXIT_OK and report_ok["summary"]["failed"] == 0
        code_bad, report_bad, _ = run_json(
            capsys, "verify", "vajda", "--n", "2", "--r", "1", "--p", "1",
            "--q", "1", "--convention", "paper", "--format", "json")
        assert (code_bad == EXIT_OK) == (report_bad["summary"]["failed"] == 0)

    def test_table_summary_line(self, capsys):
        code, out, _ = run(capsys, "verify", "cassini", "--n", "2", "--r", "1..2")
        assert code == EXIT_OK
        assert "summary: total=2 passed=2 failed=0" in out

    def test_elided_side_counts_digits_not_its_sign(self):
        side = "-" + "1234567890" * 4 + "12345"
        assert _elide(side) == "-12345678901...(45 digits)"
        assert _elide(side[1:]) == "123456789012...(45 digits)"
        assert _elide(side[:24]) == side[:24]
        # 24 digits are printed whole with or without a minus sign, and 25
        # are elided either way.
        assert _elide(side[1:25]) == side[1:25]
        assert _elide(side[:25]) == side[:25]
        assert _elide(side[1:26]) == "123456789012...(25 digits)"
        assert _elide(side[:26]) == "-12345678901...(25 digits)"

    # Negative 27-digit sides, and minors of 45 digits of either sign.
    @pytest.mark.parametrize("argv", [
        "verify docagne --n 2 --r 1 --s 130",
        "prop1 --n 3 --r 2 --trials 1 --bound 1000000000000000 --seed 3",
    ])
    def test_table_sides_match_the_json_sides(self, capsys, argv):
        code, report, _ = run_json(capsys, *argv.split(), "--format", "json")
        assert code == EXIT_OK
        code, out, _ = run(capsys, *argv.split())
        assert code == EXIT_OK
        sides = [rec[side] for rec in report["records"] for side in ("lhs", "rhs")]
        assert any(side.startswith("-") and len(side) > 24 for side in sides)
        elided = re.findall(r"  [lr]hs=(.*?)(?=  )", out)
        assert len(elided) == len(sides)
        for text, side in zip(elided, sides):
            digits = len(side.lstrip("-"))
            assert text == (side if digits <= 24
                            else f"{side[:12]}...({digits} digits)")

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE


class TestRecordEmitter:
    """``canonical_json`` is ``json.dumps(indent=2)`` plus a newline: a value
    that is not JSON raises TypeError, and every report's text is exactly
    what ``json.dumps(indent=2)`` writes for it."""

    @pytest.mark.parametrize("record", [
        {"case": {"n": b"12"}},
        {"deleted": [{1, 2}]},
        {"lhs": type("Digits", (decimal.Decimal,), {})("12")},
        {"terms": [decimal.Decimal(3)]},
        {"terms": [(block for block in [["1"]])]},
    ], ids=repr)
    def test_non_json_raises(self, record):
        report = {"version": "1", "records": [{"lhs": "1"}, record], "summary": {}}
        with pytest.raises(TypeError):
            canonical_json(report)

    def test_slot_text_inside_keys_and_strings(self):
        report = {"a\"records": [], "records": [{"x": '\n  "records": []'}],
                  "z": {"records": []}}
        assert canonical_json(report) == json.dumps(report, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        "prop1 --n 2..4 --r 1..3 --trials 2 --format json",
        "prop1 --matrix 1_2;_0_1 --r 1..2 --format json",
        "verify all --n 2..3 --r 1..3 --s 1..2 --p 1..2 --q 1..2 --trials 2"
        " --convention both --format json",
        "bench bareiss-vs-laplace --order 3 --trials 2 --format json",
        "bench term-fast-vs-iter --n 3 --k 5,90 --format json",
        "seq --n 4 --from -40 --to 40 --format json",
    ])
    def test_reports_never_fall_back(self, capsys, argv):
        # Records are written from templates and seq's terms by hand, never
        # by the encoder one at a time: the whole text must still be the
        # encoder's.
        code, out, _ = run(capsys, *[a.replace("_", " ") for a in argv.split()])
        assert code in (EXIT_OK, EXIT_FAIL)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestCaseLayout:
    """Every record's case keys come in the order of the CSV columns; the
    layouts each run yields, as space-separated keys."""

    LAYOUTS = {
        "verify all --n 2..3 --r 1..2 --s 1..2 --p 1..2 --q 1..2 --trials 2"
        " --convention both": {
            "kind n r convention", "kind n r s convention",
            "kind n r p q convention", "kind n r trial convention"},
        "verify gen-docagne --matrix 1_2;_0_1 --r 1..2": {"kind n r convention"},
        "prop1 --n 2..3 --r 1..2 --trials 2": {"kind n r trial deleted"},
        "bench bareiss-vs-laplace --order 2..3 --trials 2": {"kind task order trial"},
        "bench term-fast-vs-iter --n 3 --k 5,90": {"kind task n k convention"},
    }

    @pytest.mark.parametrize("argv", LAYOUTS)
    def test_case_keys_follow_the_csv_columns(self, capsys, argv):
        code, report, _ = run_json(
            capsys, *[a.replace("_", " ") for a in argv.split()], "--format", "json")
        assert code in (EXIT_OK, EXIT_FAIL)
        layouts = set()
        for rec in report["records"]:
            keys = list(rec["case"])
            assert keys == [field for field in _CSV_FIELDS if field in keys], keys
            layouts.add(" ".join(keys))
        assert layouts == self.LAYOUTS[argv]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_misordered_case_raises_where_its_template_is_made(self, fmt):
        # The CSV fill relies on a case's keys coming in the CSV columns'
        # order: a case that breaks it, or that holds a key with no column,
        # is a program fault and raises RuntimeError (not a usage error)
        # naming its keys, at its shape's first record, before any line.
        ordered = {"kind": "bench", "task": "bareiss-vs-laplace", "order": _HOLE,
                   "trial": _HOLE}
        assert len(_template(fmt, ordered, True)) == 5
        misordered = {"kind": "bench", "task": "bareiss-vs-laplace", "trial": _HOLE,
                      "order": _HOLE}
        with pytest.raises(RuntimeError,
                           match=r"^case keys \['kind', 'task', 'trial', 'order'\] "):
            _template(fmt, misordered, True)
        lines = _record_lines(fmt, iter([({**misordered, "trial": 1, "order": 2}, 3, 3)]))
        with pytest.raises(RuntimeError, match="not in the CSV columns' order"):
            next(lines)
        with pytest.raises(RuntimeError, match=r"\['kind', 'colour'\]"):
            _template(fmt, {"kind": "bench", "colour": "red"}, False)


class TestGoldenReports:
    """SHA-256 of reports that no benchmark golden pins, with ``timings_ms``
    removed from JSON reports and cut from tables."""

    GOLDEN = {
        "verify all --n 2..4 --r 1..6 --convention both --format json": (
            EXIT_FAIL, "c303ba1e75af8c021ebc8741a51a28dcd292d5de89866bfd32211318d5fede6c"),
        "verify vajda --n 2..5 --r 1..4 --p 1..3 --q 2..4 --format csv": (
            EXIT_OK, "6ce79384c4a1d20dddde14bf9fe0c1116a16d12fe851a4b889df9204d3d95657"),
        "verify gen-docagne --n 2..3 --r 1..5 --trials 3 --seed 4 --format csv": (
            EXIT_OK, "31309430cb5d746022289c5438e113505602b6dd7d07ea6d624e4620f6e13d6f"),
        "bench bareiss-vs-laplace --order 3..4 --trials 3 --seed 2 --format json": (
            EXIT_OK, "f2e0858c0b8dac68c26a6dd64a7e492bafbfd3633a29f15de06f1194e74b795c"),
        "seq --n 5 --convention paper --from -60 --to -3 --format csv": (
            EXIT_OK, "f49ef4e1813e9168bac7dfdb7f20fd7ac9ddf306ed34f54acf337e5e90959ddb"),
        "prop1 --n 2..4 --r 1..4 --trials 3 --seed 9 --format json": (
            EXIT_OK, "ad746e544d4f852017b67ddf011e9eeeb087e0bf60c739bb7e3edd90d155d369"),
        # The CSV join of each record's deleted columns.
        "prop1 --n 3 --r 2 --trials 2 --seed 1 --format csv": (
            EXIT_OK, "6c303348402b1aadba50b22cf291b891cd47d320c00e71d994e6e102f0fb567b"),
        # A table whose negative 27-digit sides are elided.
        "verify docagne --n 2 --r 1 --s 130": (
            EXIT_OK, "065b7440fa0d134406356d4757749eec73328da27fc7c9eafe45cb0249554189"),
    }

    @pytest.mark.parametrize("argv", GOLDEN)
    def test_report_digest(self, capsys, argv):
        exit_code, digest = self.GOLDEN[argv]
        code, out, _ = run(capsys, *argv.split())
        assert code == exit_code
        if argv.endswith("json"):
            out = canonical_json(without_timings(json.loads(out)))
        elif "--format" not in argv:  # a table, whose last line is timings_ms
            out = out[:out.rindex("timings_ms:")]
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# Every CSV report of the tables above.
CSV_RUNS = [argv for argv in TestGoldenReports.GOLDEN if argv.endswith("--format csv")] + [
    argv + " --format csv" for argv in TestCaseLayout.LAYOUTS]


@pytest.mark.parametrize("argv", CSV_RUNS)
def test_csv_rows_need_no_quoting(capsys, argv):
    # Rows are joined on "," without the csv module: the csv module's reader
    # must read the same fields as a plain split.
    code, out, _ = run(capsys, *[a.replace("_", " ") for a in argv.split()])
    assert code in (EXIT_OK, EXIT_FAIL)
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert rows and all(len(row) == len(header) for row in rows)
    assert list(csv.DictReader(io.StringIO(out))) == [dict(zip(header, row)) for row in rows]
