import pytest
from hypothesis import given, strategies as st

from nstepdet.exact_linalg import RangeError
from nstepdet.nstep_seq import (
    CLASSIC,
    PAPER_POWERS,
    DomainError,
    custom,
    seed_block,
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

    def test_custom_length_must_match(self):
        with pytest.raises(ValueError):
            seed_block(3, custom([1, 2]))
        with pytest.raises(ValueError):
            custom([])

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

    def test_rejects_nonpositive_index(self):
        with pytest.raises(DomainError):
            term_fast(2, CLASSIC, 0)
        with pytest.raises(DomainError):
            term_fast(2, CLASSIC, -5)


class TestEngineProperties:
    @given(seq=SEQUENCES, k=st.integers(1, 3000))
    def test_term_fast_matches_term(self, seq, k):
        n, conv = seq
        assert term_fast(n, conv, k) == term(n, conv, k)

    @given(seq=SEQUENCES, offset=st.integers(1, 3000), length=st.integers(1, 20))
    def test_terms_range_past_seed_block_matches_term(self, seq, offset, length):
        # lo > n: the range starts with the polynomial jump, not a walk.
        n, conv = seq
        lo = n + offset
        hi = lo + length - 1
        assert terms_range(n, conv, lo, hi) == [
            term(n, conv, k) for k in range(lo, hi + 1)]
