import pytest
from hypothesis import given, strategies as st

from random import Random

from nstepdet import nstep_seq
from nstepdet.exact_linalg import RangeError
from nstepdet.nstep_seq import (
    CLASSIC,
    PAPER_POWERS,
    _POINTS_FROM_BITS,
    Convention,
    _exact_div,
    _hankel_squares,
    _hankel_value,
    _square,
    _square_at_points,
    _square_plan,
    _x_pow,
    custom,
    seed_block,
    sweep,
    term,
    term_fast,
    terms_range,
)

ALL_CONVENTIONS = (CLASSIC, PAPER_POWERS)


def _conventions(n):
    seeds = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
    return st.one_of(st.sampled_from(ALL_CONVENTIONS), seeds.map(custom))


# (n, convention) for n in 2..8: both named conventions and random seeds.
SEQUENCES = st.integers(2, 8).flatmap(
    lambda n: st.tuples(st.just(n), _conventions(n)))


class TestSeeds:
    def test_classic_seeds(self):
        assert seed_block(2, CLASSIC) == (1, 1)
        assert seed_block(3, CLASSIC) == (1, 1, 2)
        assert seed_block(5, CLASSIC) == (1, 1, 2, 4, 8)

    def test_paper_seeds(self):
        assert seed_block(2, PAPER_POWERS) == (1, 2)
        assert seed_block(4, PAPER_POWERS) == (1, 2, 4, 8)

    def test_custom_seeds(self):
        conv = custom([5, 7])
        assert seed_block(2, conv) == (5, 7)
        assert term(2, conv, 3) == 12

    @pytest.mark.parametrize("seeds", [[1.9, 1], [True, 1], ["3", "4"], [2, 1.0]])
    def test_custom_seeds_must_be_exact_ints(self, seeds):
        # int() would turn [1.9, True] into the Fibonacci seeds (1, 1).
        with pytest.raises(ValueError, match="seeds must be ints"):
            custom(seeds)

    def test_custom_length_must_match(self):
        with pytest.raises(ValueError):
            seed_block(3, custom([1, 2]))
        with pytest.raises(ValueError):
            custom([])
        with pytest.raises(ValueError, match="custom convention has no seeds"):
            seed_block(2, Convention("custom"))

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            term(1, CLASSIC, 5)
        with pytest.raises(ValueError, match="parameter n must be >= 2"):
            seed_block(1, PAPER_POWERS)


class TestTerm:
    def test_paper_tribonacci_start(self):
        assert [term(3, PAPER_POWERS, k) for k in range(1, 5)] == [1, 2, 4, 7]

    def test_paper_seed_top(self):
        assert term(4, PAPER_POWERS, 4) == 8

    def test_classic_backward_values(self):
        assert term(3, CLASSIC, 0) == 0
        assert term(3, CLASSIC, -2) == 1

    def test_classic_fibonacci(self):
        assert term(2, CLASSIC, 10) == 55

    def test_classic_zero_index_any_n(self):
        for n in range(2, 7):
            assert term(n, CLASSIC, 0) == 0

    def test_negafibonacci_pattern(self):
        for k in range(1, 31):
            sign = 1 if k % 2 == 1 else -1
            assert term(2, CLASSIC, -k) == sign * term(2, CLASSIC, k)

    def test_recurrence_residual_across_seam(self):
        for n in range(2, 6):
            for conv in ALL_CONVENTIONS + (custom(range(3, 3 + n)),):
                for k in range(-10, 31):
                    total = sum(term(n, conv, k - j) for j in range(1, n + 1))
                    assert term(n, conv, k) == total, (n, conv.name, k)

    def test_shift_relation(self):
        # paper-powers term k equals classic term k+1
        for n in range(2, 7):
            for k in range(1, 201):
                assert term(n, PAPER_POWERS, k) == term(n, CLASSIC, k + 1)


class TestTermsRange:
    def test_paper_two_step(self):
        assert terms_range(2, PAPER_POWERS, 1, 4) == [1, 2, 3, 5]

    def test_classic_tribonacci(self):
        assert terms_range(3, CLASSIC, 1, 5) == [1, 1, 2, 4, 7]

    def test_singleton(self):
        assert terms_range(3, CLASSIC, 7, 7) == [term(3, CLASSIC, 7)]

    def test_negative_span(self):
        assert terms_range(2, CLASSIC, -3, 3) == [2, -1, 1, 0, 1, 1, 2]

    def test_entirely_negative_span(self):
        assert terms_range(2, CLASSIC, -5, -2) == [
            term(2, CLASSIC, k) for k in range(-5, -1)]

    def test_empty_range_rejected(self):
        with pytest.raises(RangeError):
            terms_range(2, CLASSIC, 3, 2)

    def test_matches_term_elementwise(self):
        for n in (2, 3, 5):
            for conv in ALL_CONVENTIONS:
                values = terms_range(n, conv, -8, 40)
                assert values == [term(n, conv, k) for k in range(-8, 41)]


# Indices that are not exact ints; at each, term_fast(3, CLASSIC, 2.5) and
# the like once returned a value, or failed with TypeError deep inside.
BAD_INDICES = (1.5, 2.5, True, 2.0)


class TestIndicesMustBeExactInts:
    @pytest.mark.parametrize("k", BAD_INDICES)
    @pytest.mark.parametrize("engine", [term, term_fast])
    def test_single_term(self, engine, k):
        for n in (2, 3):
            with pytest.raises(ValueError, match="^term indices must be ints"):
                engine(n, CLASSIC, k)

    @pytest.mark.parametrize("k", BAD_INDICES)
    def test_range_ends(self, k):
        with pytest.raises(ValueError, match="^term indices must be ints"):
            terms_range(2, CLASSIC, k, 3)
        with pytest.raises(ValueError, match="^term indices must be ints"):
            terms_range(2, CLASSIC, 1, k)


class TestTermFast:
    def test_seed_case(self):
        for n in (2, 3, 5):
            for conv in ALL_CONVENTIONS:
                assert term_fast(n, conv, 1) == seed_block(n, conv)[0]

    def test_matches_iterative_engine(self):
        for n in (2, 3, 4):
            for conv in ALL_CONVENTIONS:
                expected = terms_range(n, conv, 1, 300)
                got = [term_fast(n, conv, k) for k in range(1, 301)]
                assert got == expected

    def test_fibonacci_ten(self):
        assert term_fast(2, CLASSIC, 10) == 55

    def test_paper_tribonacci_thirty(self):
        assert term_fast(3, PAPER_POWERS, 30) == term(3, PAPER_POWERS, 30)

    def test_custom_convention(self):
        conv = custom([4, -1, 2])
        for k in (1, 2, 3, 10, 57):
            assert term_fast(3, conv, k) == term(3, conv, k)

    def test_nonpositive_index_matches_term(self):
        for n in (2, 3, 5):
            for conv in ALL_CONVENTIONS + (custom(range(-2, n - 2)),):
                for k in range(-60, 1):
                    assert term_fast(n, conv, k) == term(n, conv, k), (n, k)


class TestHankelSquares:
    """term_fast's last step writes c'H_d c, H_d the Hankel matrix of terms
    1+d..2n-1+d, as nested squares; checked here at random integer vectors
    against the quadratic form itself."""

    SEEDS = [seed_block(n, conv) for n in (2, 3, 6, 12) for conv in ALL_CONVENTIONS] + [
        (0, 0), (0, 0, 0, 0, 0),
        # Every diagonal entry left after the first step is zero at d = 1,
        # so the reduction takes the hyperbolic pair step.
        (-2, -2, 2),
        (4, -1, 2), (1, -1, 1, -1), (3, 0, 0, -7, 1), (1, 0, 0, 0)]

    @staticmethod
    def _form(seeds, d, x):
        n = len(seeds)
        terms = sweep(seeds, n - 1 + d)[d:]
        return sum(x[i] * x[j] * terms[i + j] for i in range(n) for j in range(n))

    @pytest.mark.parametrize("seeds", SEEDS, ids=str)
    @pytest.mark.parametrize("d", [0, 1])
    def test_nested_squares_equal_the_form(self, seeds, d):
        rng = Random(f"{seeds}/{d}")
        steps = _hankel_squares(seeds, d)
        assert len(steps) <= len(seeds)
        for bits in (1, 8, 64, 4000):
            for _ in range(25):
                x = [rng.randint(-2 ** bits, 2 ** bits) for _ in seeds]
                assert _hankel_value(steps, x) == self._form(seeds, d, x)

    def test_pair_step_taken(self):
        # After the pivot at (0, 0), H_1 of these seeds leaves [[0, 8], [8, 0]]:
        # the pair's pivot is 2 * 8 and its row the sum of the two rows.
        steps = _hankel_squares((-2, -2, 2), 1)
        assert steps[1] == ((0, 8, 8), -2, 16)

    def test_zero_seeds_give_no_steps(self):
        for d in (0, 1):
            assert _hankel_squares((0, 0, 0), d) == ()
            assert term_fast(3, custom([0, 0, 0]), 1000 + d) == 0

    @pytest.mark.parametrize("seeds", SEEDS, ids=str)
    def test_one_step_per_unit_of_rank(self, seeds):
        # Each step lowers the form's rank by one and the last leaves zero,
        # so the reduction takes as many squares as H_d's rank.
        sympy = pytest.importorskip("sympy")
        n = len(seeds)
        for d in (0, 1):
            terms = sweep(seeds, n - 1 + d)[d:]
            rank = sympy.Matrix(n, n, lambda i, j: terms[i + j]).rank()
            assert len(_hankel_squares(seeds, d)) == rank

    def test_inexact_division_raises(self):
        assert _exact_div(-12, 4) == -3
        with pytest.raises(ArithmeticError, match="inexact division"):
            _exact_div(7, 2)


class TestSquareAtPoints:
    """term_fast squares x^(u >> 1) by its values at 2n-1 points, mapped
    back by one integer matrix and an exact division, once the coefficients
    are big; ``_square`` is the oracle."""

    @given(w=st.integers(2, 12).flatmap(lambda n: st.lists(
        st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30)),
        min_size=n, max_size=n)))
    def test_equals_square(self, w):
        assert _square_at_points(w) == _square(w)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_equals_square_on_powers_of_x(self, n):
        for e in (1, n, 2 ** 13 + 5, -7, -(2 ** 14) - 3):
            w = _x_pow(n, e)
            assert _square_at_points(w) == _square(w), e

    def test_n_two_takes_the_three_squares_of_square(self):
        # The points 0, 1 and infinity give c0^2, (c0 + c1)^2 and c1^2, the
        # squares ``_square`` takes, and a denominator of 1. With x^2 = x + 1
        # the square is (c0^2 + c1^2) + ((c0 + c1)^2 - c0^2) x.
        assert _square_plan(2) == ((((1,), (1,)),), ((1, 0, 1), (-1, 1, 0)), 1)

    @pytest.mark.parametrize("n", [3, 6, 12])
    def test_a_plan_entry_off_by_one_raises(self, n, monkeypatch):
        # A wrong entry leaves a remainder in the exact division instead of
        # giving a wrong coefficient.
        powers, rows, den = _square_plan(n)
        w = _x_pow(n, 4000)
        for i, j in ((0, 0), (n // 2, n), (n - 1, 2 * n - 2)):
            bad = [list(row) for row in rows]
            bad[i][j] += 1
            monkeypatch.setattr(nstep_seq, "_square_plan", lambda n: (powers, bad, den))
            with pytest.raises(ArithmeticError, match="inexact division"):
                _square_at_points(w)

    @pytest.mark.parametrize("n, first", [
        (3, 14_200), (6, 12_300), (12, 12_300), (3, -28_100), (6, -48_000)])
    def test_term_fast_matches_term_where_it_squares_at_points(self, n, first):
        # Four consecutive k take every residue of k-1 mod 4: both parities
        # of u, so with and without the shift by x, and both Hankel forms.
        for k in range(first, first + 4):
            assert _x_pow(n, (k - 1) // 2 >> 1)[-1].bit_length() > _POINTS_FROM_BITS
            for conv in (CLASSIC, custom(range(-2, n - 2))):
                assert term_fast(n, conv, k) == term(n, conv, k), (n, k)


class TestEngineProperties:
    @given(seq=SEQUENCES, k=st.integers(-3000, 3000))
    def test_term_fast_matches_term(self, seq, k):
        n, conv = seq
        assert term_fast(n, conv, k) == term(n, conv, k)

    @given(seeds=st.integers(2, 12).flatmap(
               lambda n: st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
           k=st.integers(-3000, 3000))
    def test_term_fast_matches_term_small_seeds(self, seeds, k):
        # Seeds from -2..2 make singular and degenerate Hankel forms common;
        # k and k + 1 cover both parities of the last doubling.
        conv = custom(seeds)
        for index in (k, k + 1):
            assert term_fast(len(seeds), conv, index) == term(len(seeds), conv, index)

    @given(seq=st.integers(2, 12).flatmap(lambda n: st.tuples(st.just(n), _conventions(n))),
           k=st.integers(-3000, 3000))
    def test_term_fast_matches_term_when_every_square_is_at_points(self, seq, k):
        # With no size floor term_fast squares at points at every k from
        # n = 3 on; k..k+3 take every residue of k-1 mod 4, and k < 1 too.
        n, conv = seq
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nstep_seq, "_POINTS_FROM_BITS", -1)
            for index in range(k, k + 4):
                assert term_fast(n, conv, index) == term(n, conv, index)

    @given(seq=SEQUENCES,
           lo=st.one_of(st.integers(-3000, 3000), st.integers(-25, 10)),
           length=st.integers(1, 30))
    def test_terms_range_matches_term(self, seq, lo, length):
        # Every lo, whether below, across or past the seed block 1..n,
        # starts with the same polynomial jump.
        n, conv = seq
        hi = lo + length - 1
        assert terms_range(n, conv, lo, hi) == [
            term(n, conv, k) for k in range(lo, hi + 1)]
