import json
import random
import subprocess
import sys
import textwrap
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nstepdet

from nstepdet import construction
from nstepdet.cli import _BLOCK, random_matrix
from nstepdet.exact_linalg import (
    DimensionError,
    IntMatrix,
    SelectionError,
    det_bareiss,
    det_laplace,
    select_columns,
)
from nstepdet.nstep_seq import PAPER_POWERS, term
from nstepdet.construction import (
    Prop1Cell,
    Prop1Record,
    build_P,
    build_Q,
    check_prop1,
    extend_columns,
    minor_by_deletion,
    minor_selection,
    q_fib_det,
    sign_from_deleted,
    sign_from_kept,
)

M = IntMatrix.from_rows


def run_child(code, *interpreter_flags):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(nstepdet.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *interpreter_flags, "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=60)


class TestBuildP:
    def test_small_pattern(self):
        assert build_P(2, 2) == M([[1, 0], [1, 1], [-1, 1]])

    def test_single_column_all_ones(self):
        for n in (2, 3, 5):
            p = build_P(n, 1)
            assert (p.rows, p.cols) == (n, 1)
            assert p.column(1) == (1,) * n

    def test_column_sums(self):
        p = build_P(3, 4)
        # a column sums to n-1 when its -1 fits, to n when it falls off
        for j in range(1, 5):
            expect = 2 if j + 3 <= p.rows else 3
            assert sum(p.column(j)) == expect

    def test_every_entry(self):
        # Oracle: the entry rule, written per entry rather than per column.
        def entry(n, i, j):
            if j <= i <= j + n - 1:
                return 1
            if i == j + n:
                return -1
            return 0

        for n in range(2, 7):
            for r in range(1, 8):
                assert build_P(n, r) == M(
                    [[entry(n, i, j) for j in range(1, r + 1)]
                     for i in range(1, n + r)]), (n, r)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            build_P(1, 3)
        with pytest.raises(ValueError):
            build_P(3, 0)
        with pytest.raises(ValueError, match="parameter n must be >= 2"):
            build_P(0, 2)


class TestBuildQ:
    def test_leading_rows_are_unit_lower_triangular(self):
        for n in range(2, 6):
            for r in range(1, 6):
                q = build_Q(n, r, range(1, r + 1))
                for i in range(1, r + 1):
                    assert q.entry(i, i) == 1
                    for j in range(i + 1, r + 1):
                        assert q.entry(i, j) == 0
                assert det_bareiss(q) == 1

    def test_banded_pair(self):
        q = build_Q(2, 2, [2, 3])
        assert q == M([[1, 1], [-1, 1]])
        assert det_bareiss(q) == 2

    def test_single_row_is_one(self):
        for n in (2, 4):
            for j in range(1, n + 1):
                assert build_Q(n, 1, [j]) == M([[1]])

    def test_bad_row_lists(self):
        with pytest.raises(SelectionError):
            build_Q(2, 2, [3, 2])
        with pytest.raises(SelectionError):
            build_Q(2, 2, [1])
        with pytest.raises(SelectionError):
            build_Q(2, 2, [2, 4])
        with pytest.raises(SelectionError):
            build_Q(2, 2, [0, 1])


class TestExtendColumns:
    def test_worked_example(self):
        ext = extend_columns(M([[1, 2], [0, 1]]), 2)
        assert ext == M([[1, 2, 3, 5], [0, 1, 1, 2]])

    def test_identity_gains_ones_column(self):
        for n in (2, 3, 4):
            ext = extend_columns(IntMatrix.identity(n), 1)
            assert ext.column(n + 1) == (1,) * n

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), r=st.integers(1, 40))
    def test_every_new_column_satisfies_recurrence(self, data, n, r):
        # Oracle: each appended column re-summed from its n predecessors,
        # independent of the running total extend_columns keeps.
        entries = st.lists(st.integers(-99, 99), min_size=n, max_size=n)
        a = M(data.draw(st.lists(entries, min_size=n, max_size=n)))
        ext = extend_columns(a, r)
        assert (ext.rows, ext.cols) == (n, n + r)
        assert [ext.column(k) for k in range(1, n + 1)] == [
            a.column(k) for k in range(1, n + 1)]
        for k in range(n + 1, n + r + 1):
            total = tuple(
                sum(vals) for vals in zip(
                    *(ext.column(k - j) for j in range(1, n + 1))))
            assert ext.column(k) == total

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            extend_columns(M([[1, 2, 3], [4, 5, 6]]), 1)


class TestMinorByDeletion:
    def test_leading_deletion_keeps_tail(self):
        rng = random.Random(12)
        a = random_matrix(rng, 3, 9)
        ext = extend_columns(a, 2)
        minor = minor_by_deletion(ext, [1, 2])
        assert minor == M([[row[2], row[3], row[4]] for row in ext.to_rows()])

    def test_worked_example(self):
        ext = extend_columns(M([[1, 2], [0, 1]]), 1)
        assert minor_by_deletion(ext, [1]) == M([[2, 3], [1, 1]])

    def test_kept_complement(self):
        # minor_selection returns the deletion and its ascending complement
        # in 1..n+r-1; minor_by_deletion keeps exactly those columns and n+r.
        for n in range(2, 6):
            for r in range(1, 6):
                # entry (i, j) is 100 i + j, so a minor's entries name its columns
                ext = M([[100 * i + j for j in range(1, n + r + 1)] for i in range(n)])
                for deleted in combinations(range(1, n + r), r):
                    got, kept = minor_selection(n, r, iter(deleted))
                    assert got == deleted
                    assert len(kept) == n - 1 and list(kept) == sorted(kept)
                    assert sorted(deleted + kept) == list(range(1, n + r))
                    assert minor_by_deletion(ext, deleted) == M(
                        [[100 * i + j for j in kept + (n + r,)] for i in range(n)])

    def test_last_column_protected(self):
        ext = extend_columns(M([[1, 2], [0, 1]]), 2)
        with pytest.raises(SelectionError):
            minor_by_deletion(ext, [1, 4])

    def test_wrong_arity(self):
        ext = extend_columns(M([[1, 2], [0, 1]]), 2)
        with pytest.raises(SelectionError):
            minor_by_deletion(ext, [1])
        with pytest.raises(SelectionError):
            minor_by_deletion(ext, [1, 2, 3])

    def test_unsorted_rejected(self):
        ext = extend_columns(M([[1, 2], [0, 1]]), 2)
        with pytest.raises(SelectionError):
            minor_by_deletion(ext, [2, 1])

    def test_square_input_rejected(self):
        with pytest.raises(DimensionError):
            minor_by_deletion(M([[1, 2], [0, 1]]), [1])


class TestSigns:
    def test_worked_example(self):
        assert sign_from_deleted(2, 1, [1]) == -1

    def test_trailing_deletion_is_positive(self):
        for n in range(2, 6):
            for r in range(1, 6):
                assert sign_from_deleted(n, r, range(n, n + r)) == 1

    def test_leading_kept_is_positive(self):
        for n in range(2, 6):
            assert sign_from_kept(n, range(1, n)) == 1

    def test_shifted_kept_alternates(self):
        for n in range(2, 6):
            for r in range(1, 6):
                expect = 1 if ((n - 1) * r) % 2 == 0 else -1
                assert sign_from_kept(n, range(r + 1, r + n)) == expect

    def test_formulas_agree_exhaustively(self):
        for n in (2, 3, 4):
            for r in range(1, 5):
                for deleted in combinations(range(1, n + r), r):
                    kept = [k for k in range(1, n + r) if k not in deleted]
                    assert sign_from_deleted(n, r, deleted) == \
                        sign_from_kept(n, kept), (n, r, deleted)

    def test_kept_arity_checked(self):
        with pytest.raises(SelectionError):
            sign_from_kept(3, [1, 2, 3])


class TestCheckProp1:
    def test_rhs_and_verdict_are_derived(self):
        rec = Prop1Record(2, 1, (1,), 6, -1, 2, -3)
        assert rec.rhs == rec.sign * rec.det_q * rec.det_a == 6
        assert rec.passed
        assert not Prop1Record(2, 1, (1,), 5, -1, 2, -3).passed

    def test_worked_example(self):
        rec = check_prop1(M([[1, 2], [0, 1]]), 1, [1])
        assert (rec.minor_value, rec.sign, rec.det_q, rec.det_a) == (-1, -1, 1, 1)
        assert rec.rhs == -1
        assert rec.passed

    def test_singular_base_matrix(self):
        singular = M([[1, 2], [2, 4]])
        for deleted in ([1], [2]):
            rec = check_prop1(singular, 1, deleted)
            assert rec.det_a == 0
            assert rec.rhs == 0
            assert rec.minor_value == 0
            assert rec.passed

    def test_exhaustive_random_sweep(self):
        rng = random.Random(13)
        for n in (2, 3):
            for r in range(1, 4):
                for _ in range(5):
                    a = random_matrix(rng, n, 9)
                    for deleted in combinations(range(1, n + r), r):
                        rec = check_prop1(a, r, deleted)
                        assert rec.passed, (n, r, deleted, a.to_rows())

    def test_minor_value_against_laplace(self):
        rng = random.Random(14)
        a = random_matrix(rng, 3, 9)
        ext = extend_columns(a, 2)
        for deleted in combinations(range(1, 5), 2):
            rec = check_prop1(a, 2, deleted)
            assert rec.minor_value == det_laplace(minor_by_deletion(ext, deleted))

    def test_ratio_independent_of_matrix(self):
        # same deletion, two regular matrices: minor/det is a constant
        rng = random.Random(15)
        for n in (2, 3):
            for r in range(1, 5):
                deleted = list(range(1, r + 1))
                pair = []
                while len(pair) < 2:
                    a = random_matrix(rng, n, 9)
                    if det_bareiss(a) != 0:
                        pair.append(a)
                rec_a = check_prop1(pair[0], r, deleted)
                rec_b = check_prop1(pair[1], r, deleted)
                assert rec_a.minor_value * rec_b.det_a == \
                    rec_b.minor_value * rec_a.det_a

    def test_sign_check_survives_optimize_flag(self):
        # python -O strips assert statements; the sign cross-check must
        # still raise when the two formulas disagree, on the per-deletion
        # path and in a cell.
        code = textwrap.dedent("""
            import sys
            import nstepdet.construction as construction
            from nstepdet.exact_linalg import IntMatrix
            if not sys.flags.optimize:
                sys.exit(3)
            construction._kept_sign = lambda n, kept: 0
            a = IntMatrix.from_rows([[1, 2], [0, 1]])
            for check in (lambda: construction.check_prop1(a, 1, [1]),
                          lambda: construction.Prop1Cell(2, 1)(a)):
                try:
                    check()
                except ArithmeticError:
                    continue
                sys.exit(1)
        """)
        proc = run_child(code, "-O")
        assert proc.returncode == 0, proc.stderr


def draw_matrix(data, n, bound):
    entries = st.lists(st.integers(-bound, bound), min_size=n, max_size=n)
    return M(data.draw(st.lists(entries, min_size=n, max_size=n)))


def assert_minors_match_laplace(a, r):
    """Every minor of the cell equals the cofactor expansion of the minor
    assembled from the extension, and the per-deletion record."""
    ext = extend_columns(a, r)
    records = Prop1Cell(a.rows, r)(a)
    assert [rec.deleted for rec in records] == list(combinations(range(1, a.rows + r), r))
    for rec in records:
        assert rec.minor_value == det_laplace(minor_by_deletion(ext, rec.deleted))
        assert rec == check_prop1(a, r, rec.deleted)


class TestCheckProp1All:
    """The product rule for all deletions at once: one ``Prop1Cell`` per
    (n, r), called on each matrix of a batch, ``[cell(a) for a in mats]``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), r=st.integers(1, 5),
           bound=st.integers(0, 9), count=st.integers(1, 3))
    def test_equals_per_deletion_path(self, data, n, r, bound, count):
        # bound 0 gives the zero matrix, so singular inputs are covered.
        mats = [draw_matrix(data, n, bound) for _ in range(count)]
        deletions = list(combinations(range(1, n + r), r))
        cell = Prop1Cell(n, r)
        assert [cell(a) for a in mats] == [
            [check_prop1(a, r, d) for d in deletions] for a in mats]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), r=st.integers(1, 5),
           bound=st.sampled_from((0, 1, 1, 9)))
    def test_minors_against_laplace(self, data, n, r, bound):
        # Entries in -1..1 make zero pivots, pivot swaps and singular
        # minors common in the shared-prefix elimination.
        assert_minors_match_laplace(draw_matrix(data, n, bound), r)

    @pytest.mark.parametrize("rows", [
        [[0, 0, 0], [1, 2, 3], [2, 5, 4]],
        [[0, 0, 1], [1, 2, 3], [2, 5, 4]],
        [[0, 0, 0, 1], [0, 1, 0, 2], [1, 0, 3, 0], [2, 1, 1, 1]],
        [[1, 1, 2], [2, 2, 3], [3, 3, 5]],
        [[1, 2, 3], [2, 4, 6], [1, 1, 1]],
        [[0, 1], [0, 2]],
        [[0, 0, 3], [3, 0, -1], [0, 3, 0]],
        [[-2, 0, 0, -1], [-1, -2, -2, 1], [3, 0, 0, -2], [1, -2, 0, -2]],
        [[0, 0, 2], [1, 0, -1], [2, 0, -1]],
        [[0, 1, 0, 0], [0, -1, 2, 0], [0, 1, 1, 0], [0, 2, 0, 0]],
    ], ids=["zero-first-row", "leading-zeros-in-first-row", "order-4-swaps",
            "equal-columns", "proportional-rows", "zero-column",
            "last-step-zero-then-nonzero", "order-4-last-step-zero-then-nonzero",
            "last-step-two-zeros", "order-4-last-step-two-zeros"])
    def test_zero_pivots_against_laplace(self, rows):
        # A zero first row makes every first pivot zero; leading zeros force
        # swaps among nonzero minors (so a lost sign shows); equal columns
        # reduce a pivot vector to all zeros below a shared prefix. The last
        # four put the zero pivot on a minor's last step, which its parent
        # node does: a zero first entry with a nonzero second swaps, with
        # nonzero minors after the swap at every r here, and two zeros make
        # the minors below it 0.
        for r in (1, 2, 3, 4):
            assert_minors_match_laplace(M(rows), r)

    def test_deletions_are_not_validated_again(self, monkeypatch):
        # A cell validates n and r once, when it is made; its deletions come
        # from combinations, so no per-deletion validator may run.
        rng = random.Random(17)
        cells = {(n, r): [random_matrix(rng, n, 9) for _ in range(2)]
                 for n in range(2, 6) for r in range(1, 6)}
        expected = {(n, r): [[check_prop1(a, r, d)
                              for d in combinations(range(1, n + r), r)]
                             for a in mats]
                    for (n, r), mats in cells.items()}

        def refuse(*args, **kwargs):
            raise AssertionError("a deletion was validated again")

        monkeypatch.setattr(construction, "minor_selection", refuse)
        monkeypatch.setattr(construction, "check_indices", refuse)
        for (n, r), mats in cells.items():
            cell = Prop1Cell(n, r)
            assert [cell(a) for a in mats] == expected[n, r], (n, r)

    def test_walk_division_check_survives_optimize_flag(self):
        code = textwrap.dedent("""
            import sys
            from nstepdet.construction import _eliminate
            if not sys.flags.optimize:
                sys.exit(3)
            try:
                _eliminate([[1, 1]], [2, 1], 2)
            except ArithmeticError:
                sys.exit(0)
            sys.exit(1)
        """)
        proc = run_child(code, "-O")
        assert proc.returncode == 0, proc.stderr

    def test_folded_step_division_check_survives_optimize_flag(self):
        # The root's step is faked to leave the pivot vector (1, 0) and the
        # candidate (0, 1) against the root's pivot 2: the folded last step
        # (1*1 - 0*0) / 2 is inexact and must raise, also under -O.
        code = textwrap.dedent("""
            import sys
            from nstepdet import construction
            if not sys.flags.optimize:
                sys.exit(3)
            construction._eliminate = lambda vecs, pivot, prev: [[1, 0], [0, 1]]
            try:
                construction._kept_minor_dets([[0, 0, 2], [0, 0, 0], [0, 0, 0]])
            except ArithmeticError:
                sys.exit(0)
            sys.exit(1)
        """)
        proc = run_child(code, "-O")
        assert proc.returncode == 0, proc.stderr

    def test_kept_columns_are_the_complements(self):
        # A cell pairs its deletions with the (n-1)-subsets in reverse
        # order; each pair must be a deletion and its complement.
        for n in range(2, 8):
            for r in range(1, 8):
                parts = Prop1Cell(n, r)._parts
                assert len(parts) == len(list(combinations(range(1, n + r), r)))
                for deleted, kept, _, _ in parts:
                    assert kept == construction._kept(n, r, deleted), (n, r, deleted)

    def test_one_elimination_per_kept_prefix(self, monkeypatch):
        # Every minor keeps the last column, so the walk reduces the other
        # columns against it once, at the root, and each kept-column prefix
        # of length 1..n-3 reduces its later candidates once. A prefix of
        # length n-3 also does each child's last step itself, so prefixes of
        # length n-2 make no call, and there is no call per minor; at n = 2
        # the root alone makes one. Large random entries give no zero pivot,
        # so each prefix that leaves room for the rest of a minor makes
        # exactly one call. In an extension the recurrence can make a prefix
        # dependent (at n = 5, r = 3, column 8 is 2 * column 7 - column 2),
        # which ends its subtree early.
        calls = []
        eliminate = construction._eliminate

        def counted(*args):
            calls.append(args)
            return eliminate(*args)

        monkeypatch.setattr(construction, "_eliminate", counted)
        rng = random.Random(29)
        for n in range(2, 7):
            for r in range(1, 6):
                m = n + r
                prefixes = sum(1 for t in range(max(n - 2, 1))
                               for p in combinations(range(1, m), t)
                               if m - 1 - (p[-1] if p else 0) >= n - 1 - t)
                rows = [[rng.randint(-10**12, 10**12) for _ in range(m)]
                        for _ in range(n)]
                calls.clear()
                dets = construction._kept_minor_dets(rows)
                assert len(calls) == prefixes, (n, r)
                wide = M(rows)
                assert dets == {kept: det_bareiss(select_columns(wide, kept + (m,)))
                                for kept in combinations(range(1, m), n - 1)}, (n, r)
                calls.clear()
                ext = extend_columns(random_matrix(rng, n, 10**12), r)
                construction._kept_minor_dets(ext.to_rows())
                assert 1 <= len(calls) <= prefixes, (n, r)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_det_q_against_build_q(self, n):
        # det Q comes from the shared-prefix walk over P's bordered
        # transpose; build_Q plus det_bareiss (and Laplace at small r) is
        # its per-deletion oracle, and rows n..n+r-1 give q_fib_det.
        for r in range(1, 9):
            records = Prop1Cell(n, r)(IntMatrix.identity(n))
            for rec in records:
                q = build_Q(n, r, rec.deleted)
                assert rec.det_q == det_bareiss(q), (r, rec.deleted)
                if r <= 5:
                    assert rec.det_q == det_laplace(q), (r, rec.deleted)
            by_rows = {rec.deleted: rec.det_q for rec in records}
            assert by_rows[tuple(range(n, n + r))] == q_fib_det(n, r)

    def test_minor_not_derived_from_the_rule(self, monkeypatch):
        # With a doubled band matrix every right side doubles; the minors,
        # evaluated on their own, must not follow and the records must fail.
        # det Q scales by 2^r = 4, so it is computed from build_P's entries.
        a = M([[1, 2], [0, 1]])
        ext = extend_columns(a, 2)
        true_p = build_P(2, 2)
        true_det_q = {d: det_bareiss(build_Q(2, 2, d)) for d in combinations(range(1, 4), 2)}
        monkeypatch.setattr(
            "nstepdet.construction.build_P",
            lambda n, r: M([[2 * e for e in row] for row in true_p.to_rows()]))
        records = Prop1Cell(2, 2)(a)
        for rec in records:
            assert rec.minor_value == det_laplace(minor_by_deletion(ext, rec.deleted))
            assert rec.det_q == 2**2 * true_det_q[rec.deleted]
            assert not rec.passed

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 4), (5, 2)])
    def test_cell_is_the_batch_of_one_matrix(self, n, r):
        # A cell made once checks any number of matrices, each on its own
        # call, in the order of its deletions.
        cell = Prop1Cell(n, r)
        assert cell.deletions == tuple(combinations(range(1, n + r), r))
        rng = random.Random(n * 10 + r)
        for a in [random_matrix(rng, n, 9) for _ in range(3)]:
            assert cell(a) == [check_prop1(a, r, d) for d in cell.deletions]

    def test_mixed_or_non_square_orders_rejected(self):
        # A cell checks each matrix's order when it is called on it, so a
        # batch of mixed orders raises at its first matrix of another order.
        cell = Prop1Cell(2, 1)
        for a in (M([[1, 2, 3], [4, 5, 6]]), IntMatrix.identity(3)):
            with pytest.raises(DimensionError):
                cell(a)
        with pytest.raises(DimensionError):
            [cell(a) for a in (IntMatrix.identity(2), IntMatrix.identity(3))]

    def test_bad_extension_length_rejected(self):
        with pytest.raises(ValueError):
            Prop1Cell(2, 0)

    def test_cli_recheck_disagreement_exits_nonzero(self):
        # The CLI rechecks one deletion per matrix on the per-deletion path;
        # a record that differs from the batch's must stop the run.
        code = textwrap.dedent("""
            import sys
            import nstepdet.cli as cli
            reference = cli.check_prop1
            def skewed(a, r, deleted):
                rec = reference(a, r, deleted)
                return rec._replace(minor_value=rec.minor_value + 1)
            cli.check_prop1 = skewed
            sys.argv = ["nstepdet", "prop1", "--n", "2", "--r", "1",
                        "--trials", "1", "--format", "json"]
            cli.console_main()
        """)
        proc = run_child(code)
        assert proc.returncode != 0
        assert proc.stdout == ""
        assert "ArithmeticError: batch and per-deletion prop1 disagree" in proc.stderr

    def test_cli_recheck_disagreement_after_the_first_block(self):
        # Each matrix is rechecked before its records are written, and the
        # report is written a block at a time. A disagreement on the last of
        # 30 trials (C(8, 6) = 28 records each, 840 in all) stops the run
        # with the first block written: a report without its summary.
        code = textwrap.dedent("""
            import sys
            import nstepdet.cli as cli
            reference = cli.check_prop1
            calls = []
            def skewed(a, r, deleted):
                calls.append(deleted)
                rec = reference(a, r, deleted)
                if len(calls) < 30:
                    return rec
                return rec._replace(minor_value=rec.minor_value + 1)
            cli.check_prop1 = skewed
            sys.argv = ["nstepdet", "prop1", "--n", "3", "--r", "6",
                        "--trials", "30", "--format", "json"]
            cli.console_main()
        """)
        proc = run_child(code)
        assert proc.returncode != 0
        assert "disagree for n=3, r=6, trial=30," in proc.stderr
        assert proc.stdout.startswith("{\n") and '"records": [' in proc.stdout
        assert proc.stdout.count('"kind": "prop1"') == _BLOCK < 29 * 28
        assert '"summary"' not in proc.stdout
        with pytest.raises(json.JSONDecodeError):
            json.loads(proc.stdout)


class TestQFibDet:
    def test_first_term_is_one(self):
        for n in range(2, 7):
            assert q_fib_det(n, 1) == 1

    def test_top_seed_is_power_of_two(self):
        for n in range(2, 7):
            assert q_fib_det(n, n) == 2 ** (n - 1)

    def test_fibonacci_column(self):
        assert [q_fib_det(2, r) for r in range(1, 11)] == \
            [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_matches_power_seeded_terms(self):
        for n in range(2, 5):
            for r in range(1, 11):
                assert q_fib_det(n, r) == term(n, PAPER_POWERS, r)
