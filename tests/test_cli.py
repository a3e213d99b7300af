import contextlib
import hashlib
import json
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nstepdet.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    main,
    parse_range,
    parse_sizes,
)


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

    def test_oversized_window_rejected_before_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the window check must come before any work")

        monkeypatch.setattr("nstepdet.cli.terms_range", no_work)
        started = time.perf_counter()
        code, out, err = run(capsys, "seq", "--n", "2", "--from", "-1000000000",
                             "--to", "1000000000")
        assert code == EXIT_USAGE
        assert out == ""
        assert "terms" in err
        assert time.perf_counter() - started < 5.0


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
        monkeypatch.setattr("nstepdet.cli.check_prop1_all", no_work)
        # A billion-value --r must be rejected without listing its values.
        for n, r in (("5..10", "1..40"), ("3", "1..1000000000")):
            started = time.perf_counter()
            code, out, err = run(capsys, "prop1", "--n", n, "--r", r)
            assert code == EXIT_USAGE
            assert out == ""
            assert "records" in err
            assert time.perf_counter() - started < 5.0

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
        for flags in (("--trials", "0"), ("--bound", "-2")):
            code, out, err = run(capsys, "bench", "bareiss-vs-laplace",
                                 "--order", "6", *flags)
            assert code == EXIT_USAGE, flags
            assert out == ""
            assert err.startswith("error: --"), err

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


class TestReportShape:
    @pytest.mark.parametrize("argv", [
        ("seq", "--n", "2", "--from", "1", "--to", "3"),
        ("verify", "cassini", "--n", "2", "--r", "1"),
    ])
    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path, argv, where):
        target = tmp_path if where == "directory" else tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == EXIT_USAGE
        assert err.startswith("error: ")
        assert out == ""

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

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE


# Strings that need escaping, non-ASCII text and lone surrogates.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800'),
                         st.characters(blacklist_categories=())), max_size=8)
# Floats include NaN and both infinities.
SCALARS = st.one_of(TEXT, st.integers(), st.integers(-10**80, 10**80), st.booleans(),
                    st.none(), st.floats())
# Lists and dicts nested at any depth.
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)), max_leaves=12)
RECORDS = st.dictionaries(
    st.one_of(st.sampled_from(["case", "lhs", "rhs", "pass"]), TEXT), VALUES, max_size=6)
DIGITS = st.integers(-10**80, 10**80).map(str)
REPORTS = st.one_of(
    st.fixed_dictionaries({
        "version": TEXT,
        "command": TEXT,
        "params": st.dictionaries(TEXT, VALUES, max_size=4),
        "records": st.lists(RECORDS, max_size=5),
        "summary": st.dictionaries(TEXT, st.integers(), max_size=3),
        "timings_ms": st.dictionaries(TEXT, st.floats(), max_size=3),
    }),
    st.fixed_dictionaries({
        "version": TEXT,
        "command": st.just("seq"),
        "params": st.dictionaries(TEXT, st.integers(), max_size=4),
        "terms": st.lists(DIGITS, max_size=30),
    }),
    st.lists(VALUES, max_size=4),
    st.dictionaries(TEXT, VALUES, max_size=4),
)


@contextlib.contextmanager
def no_json_encoder():
    """Any use of the standard JSON encoder fails inside this block."""
    fail = AssertionError("the standard JSON encoder was called")
    with mock.patch.object(json, "dumps", side_effect=fail), \
            mock.patch.object(json.JSONEncoder, "iterencode", side_effect=fail):
        yield


class TestRecordEmitter:
    """``canonical_json`` writes every report itself; its text must be
    exactly what ``json.dumps(indent=2)`` writes, and any value that is not
    JSON must raise TypeError."""

    @settings(max_examples=200, deadline=None)
    @given(report=REPORTS)
    def test_equals_json_dumps(self, report):
        expected = json.dumps(report, indent=2) + "\n"
        with no_json_encoder():
            assert canonical_json(report) == expected

    @pytest.mark.parametrize("record", [
        {1: "non-str key"},
        {True: "bool key"},
        {"case": {None: "non-str key in case"}},
        {"deleted": (1, 2)},
        {"lhs": type("Digits", (str,), {})("12")},
        {"lhs": type("Big", (int,), {})(12)},
        {"case": {"n": b"12"}},
        {"deleted": [{1, 2}]},
        {"terms": ["1", type("Digits", (str,), {})("2")]},
    ], ids=repr)
    def test_non_json_raises(self, record):
        report = {"version": "1", "records": [{"lhs": "1"}, record], "summary": {}}
        with pytest.raises(TypeError):
            canonical_json(report)

    @pytest.mark.parametrize("document", ["text", 12, 1.5, None, ("a", "tuple")], ids=repr)
    def test_document_must_be_object_or_array(self, document):
        with pytest.raises(TypeError):
            canonical_json(document)

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
        with no_json_encoder():
            code, out, _ = run(capsys, *[a.replace("_", " ") for a in argv.split()])
        assert code in (EXIT_OK, EXIT_FAIL)
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


class TestGoldenReports:
    """SHA-256 of reports that no benchmark golden pins, with ``timings_ms``
    removed from JSON reports."""

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
    }

    @pytest.mark.parametrize("argv", GOLDEN)
    def test_report_digest(self, capsys, argv):
        exit_code, digest = self.GOLDEN[argv]
        code, out, _ = run(capsys, *argv.split())
        assert code == exit_code
        if argv.endswith("json"):
            out = canonical_json(without_timings(json.loads(out)))
        assert hashlib.sha256(out.encode()).hexdigest() == digest
