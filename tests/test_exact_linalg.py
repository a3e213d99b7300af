import random

import pytest

from nstepdet.exact_linalg import (
    LAPLACE_MAX_ORDER,
    DimensionError,
    IntMatrix,
    RangeError,
    SelectionError,
    SizeGuardError,
    check_at_least,
    det_bareiss,
    det_laplace,
    format_matrix,
    parse_matrix,
    reverse_columns,
    select_columns,
    sum_columns,
    transpose,
)

M = IntMatrix.from_rows


def random_square(rng, order, bound=9):
    return M([[rng.randint(-bound, bound) for _ in range(order)]
              for _ in range(order)])


class TestCheckAtLeast:
    def test_names_the_first_parameter_below_the_bound(self):
        check_at_least(2, n=2, k=7)
        with pytest.raises(ValueError, match=r"^parameter p must be >= 1, got 0$"):
            check_at_least(1, r=1, p=0, q=-4)


class TestIntMatrix:
    def test_shape_and_entries(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        assert (m.rows, m.cols) == (2, 3)
        assert m.entry(1, 1) == 1
        assert m.entry(2, 3) == 6
        assert m.row(2) == (4, 5, 6)
        assert m.column(2) == (2, 5)

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            M([])
        with pytest.raises(DimensionError):
            IntMatrix(0, 1, ())

    def test_ragged_rejected(self):
        with pytest.raises(DimensionError):
            M([[1, 2], [3]])

    def test_entry_count_must_match(self):
        with pytest.raises(DimensionError):
            IntMatrix(2, 2, (1, 2, 3))

    def test_non_int_entries_rejected(self):
        with pytest.raises(DimensionError):
            IntMatrix(1, 2, (1, 2.5))
        with pytest.raises(DimensionError):
            IntMatrix.from_rows([[True, False], [False, True]])

    def test_entry_out_of_range(self):
        m = M([[1, 2], [3, 4]])
        with pytest.raises(RangeError):
            m.entry(3, 1)
        with pytest.raises(RangeError):
            m.entry(1, 0)

    def test_from_columns_round_trip(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        cols = [list(m.column(k)) for k in range(1, 4)]
        assert IntMatrix.from_columns(cols) == m


class TestDeterminants:
    def test_identity(self):
        assert det_bareiss(IntMatrix.identity(3)) == 1

    def test_triangular(self):
        assert det_bareiss(M([[1, 2], [0, 1]])) == 1

    def test_two_by_two(self):
        assert det_bareiss(M([[2, 3], [1, 1]])) == -1

    def test_laplace_one_by_one(self):
        assert det_laplace(M([[7]])) == 7

    def test_laplace_transposition(self):
        assert det_laplace(M([[0, 1], [1, 0]])) == -1

    def test_non_square_rejected(self):
        skinny = M([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(DimensionError):
            det_bareiss(skinny)
        with pytest.raises(DimensionError):
            det_laplace(skinny)

    def test_laplace_size_guard(self):
        big = IntMatrix.identity(LAPLACE_MAX_ORDER + 1)
        with pytest.raises(SizeGuardError):
            det_laplace(big)
        # the guard boundary itself is fine
        assert det_laplace(IntMatrix.identity(LAPLACE_MAX_ORDER)) == 1

    def test_bareiss_equals_laplace_random(self):
        # every order the cofactor oracle accepts, up to its guard
        rng = random.Random(1)
        for trial in range(160):
            order = 1 + trial % LAPLACE_MAX_ORDER
            m = random_square(rng, order)
            assert det_bareiss(m) == det_laplace(m)

    def test_singular_matrices(self):
        # duplicate rows force a zero determinant through the pivot logic
        m = M([[1, 2, 3], [1, 2, 3], [4, 5, 6]])
        assert det_bareiss(m) == 0
        assert det_laplace(m) == 0
        zero = M([[0, 0], [0, 0]])
        assert det_bareiss(zero) == 0

    def test_zero_pivot_needs_swap(self):
        m = M([[0, 1, 2], [1, 0, 3], [4, 5, 0]])
        assert det_bareiss(m) == det_laplace(m)

    def test_big_entries_stay_exact(self):
        big = 10 ** 40
        m = M([[big, big - 1], [big + 1, big]])
        assert det_bareiss(m) == big * big - (big - 1) * (big + 1)

    def test_multilinearity_column_doubling(self):
        rng = random.Random(2)
        for _ in range(20):
            order = rng.randint(2, 5)
            m = random_square(rng, order)
            col = rng.randint(1, order)
            doubled = M([
                [2 * e if k == col else e for k, e in enumerate(row, start=1)]
                for row in m.to_rows()])
            assert det_bareiss(doubled) == 2 * det_bareiss(m)


class TestTranspose:
    def test_small(self):
        assert transpose(M([[1, 2], [3, 4]])) == M([[1, 3], [2, 4]])

    def test_involution(self):
        rng = random.Random(3)
        for _ in range(10):
            height, width = rng.randint(1, 4), rng.randint(1, 5)
            m = M([[rng.randint(-9, 9) for _ in range(width)]
                   for _ in range(height)])
            assert transpose(transpose(m)) == m

    def test_det_preserved(self):
        rng = random.Random(4)
        for _ in range(20):
            m = random_square(rng, rng.randint(1, 6))
            assert det_bareiss(transpose(m)) == det_bareiss(m)

    def test_det_preserved_on_docagne_matrix(self):
        from nstepdet.identities import docagne_matrix
        m = docagne_matrix(3, 1, 2)
        assert det_bareiss(transpose(m)) == det_bareiss(m)


class TestReverseColumns:
    def test_small(self):
        m = M([[1, 2], [3, 4]])
        assert reverse_columns(m) == M([[2, 1], [4, 3]])
        assert det_bareiss(reverse_columns(m)) == -det_bareiss(m)

    def test_single_column_fixed(self):
        m = M([[1], [2], [3]])
        assert reverse_columns(m) == m

    def test_order_four_det_unchanged(self):
        rng = random.Random(5)
        for _ in range(10):
            m = random_square(rng, 4)
            assert det_bareiss(reverse_columns(m)) == det_bareiss(m)

    def test_sign_rule_all_orders(self):
        rng = random.Random(6)
        for order in range(1, 7):
            for _ in range(5):
                m = random_square(rng, order)
                expect = det_bareiss(m) if (order // 2) % 2 == 0 else -det_bareiss(m)
                assert det_bareiss(reverse_columns(m)) == expect


class TestSelectColumns:
    def test_full_selection_is_identity(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        assert select_columns(m, [1, 2, 3]) == m

    def test_subset(self):
        assert select_columns(M([[1, 2, 3], [4, 5, 6]]), [1, 3]) == M([[1, 3], [4, 6]])

    def test_bad_lists(self):
        m = M([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(SelectionError):
            select_columns(m, [])
        with pytest.raises(SelectionError):
            select_columns(m, [2, 1])
        with pytest.raises(SelectionError):
            select_columns(m, [1, 1])
        with pytest.raises(SelectionError):
            select_columns(m, [0, 1])
        with pytest.raises(SelectionError):
            select_columns(m, [3, 4])

    def test_complement_matches_minor_by_deletion(self):
        from nstepdet.construction import extend_columns, minor_by_deletion
        rng = random.Random(7)
        for _ in range(10):
            n, r = rng.randint(2, 4), rng.randint(1, 3)
            a = random_square(rng, n)
            aext = extend_columns(a, r)
            deleted = sorted(rng.sample(range(1, n + r), r))
            kept = [k for k in range(1, n + r + 1) if k not in deleted]
            assert select_columns(aext, kept) == minor_by_deletion(aext, deleted)


class TestSumColumns:
    def test_single_column(self):
        m = M([[1, 2], [0, 1]])
        assert sum_columns(m, 2, 2) == (2, 1)

    def test_pair(self):
        assert sum_columns(M([[1, 2], [0, 1]]), 1, 2) == (3, 1)

    def test_bad_range(self):
        m = M([[1, 2], [0, 1]])
        with pytest.raises(RangeError):
            sum_columns(m, 2, 1)
        with pytest.raises(RangeError):
            sum_columns(m, 0, 1)
        with pytest.raises(RangeError):
            sum_columns(m, 1, 3)


class TestLiterals:
    def test_parse_basic(self):
        assert parse_matrix("1 2; 0 1") == M([[1, 2], [0, 1]])

    def test_parse_commas_and_negatives(self):
        assert parse_matrix("1,-2; -3,4") == M([[1, -2], [-3, 4]])

    def test_parse_trailing_semicolon(self):
        assert parse_matrix("1 2; 3 4;") == M([[1, 2], [3, 4]])

    def test_parse_ragged_rejected(self):
        with pytest.raises(DimensionError):
            parse_matrix("1 2; 3")

    def test_parse_junk_rejected(self):
        with pytest.raises(ValueError):
            parse_matrix("1 x; 2 3")
        with pytest.raises(DimensionError):
            parse_matrix("1 2;; 3 4")

    def test_format_round_trip(self):
        rng = random.Random(8)
        for _ in range(10):
            m = M([[rng.randint(-99, 99) for _ in range(3)] for _ in range(2)])
            assert parse_matrix(format_matrix(m)) == m
