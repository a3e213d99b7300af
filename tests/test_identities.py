import hashlib
import json
import random

import pytest
from hypothesis import given, strategies as st

import nstepdet.identities
from nstepdet.cli import random_matrix
from nstepdet.exact_linalg import (
    DimensionError,
    IntMatrix,
    det_bareiss,
    det_laplace,
    reverse_columns,
    select_columns,
    transpose,
)
from nstepdet.construction import extend_columns
from nstepdet.nstep_seq import CLASSIC, PAPER_POWERS, _POINTS_FROM_BITS, _x_pow, custom, term
from nstepdet.identities import (
    CASSINI,
    GEN_DOCAGNE,
    IdentityCase,
    RegularityError,
    VerificationRecord,
    cassini_matrix,
    case_to_dict,
    convention_probe,
    docagne_matrix,
    generalized_docagne,
    ratio_invariance,
    vajda_matrix,
    verify_cassini,
    verify_catalan,
    verify_docagne,
    verify_vajda,
)

M = IntMatrix.from_rows


class TestCassini:
    def test_matrix_small(self):
        assert cassini_matrix(2, 2) == M([[2, 3], [1, 2]])
        assert cassini_matrix(3, 1) == M([[1, 2, 4], [1, 1, 2], [0, 1, 1]])

    def test_diagonal_is_constant(self):
        for n in (2, 3, 4):
            for r in (1, 3, 7):
                m = cassini_matrix(n, r)
                want = term(n, CLASSIC, r + 1)
                assert all(m.entry(i, i) == want for i in range(1, n + 1))

    def test_verify_small(self):
        rec = verify_cassini(2, 2)
        assert (rec.lhs, rec.rhs, rec.passed) == (1, 1, True)

    def test_three_step_always_one(self):
        for r in range(1, 9):
            rec = verify_cassini(3, r)
            assert rec.rhs == 1
            assert rec.passed

    def test_against_laplace_oracle(self):
        assert det_laplace(cassini_matrix(3, 2)) == 1
        assert det_laplace(M([[2, 4, 7], [1, 2, 4], [1, 1, 2]])) == 1

    def test_sweep_classic(self):
        for n in range(2, 6):
            for r in range(1, 11):
                assert verify_cassini(n, r).passed, (n, r)

    def test_custom_seeds_generally_fail(self):
        rec = verify_cassini(2, 2, custom([3, 4]))
        assert not rec.passed


class TestDOcagne:
    def test_reduces_to_cassini_at_s_one(self):
        for n in (2, 3, 4):
            for r in (1, 2, 5):
                assert docagne_matrix(n, r, 1) == cassini_matrix(n, r)
                assert verify_docagne(n, r, 1).passed

    def test_matrix_small(self):
        assert docagne_matrix(2, 1, 2) == M([[1, 3], [1, 2]])
        assert docagne_matrix(3, 1, 2) == M([[1, 2, 7], [1, 1, 4], [0, 1, 2]])

    def test_verify_small(self):
        rec = verify_docagne(2, 1, 2)
        assert (rec.lhs, rec.rhs, rec.passed) == (-1, -1, True)

    def test_against_laplace_oracle(self):
        rec = verify_docagne(3, 1, 2)
        assert rec.lhs == det_laplace(docagne_matrix(3, 1, 2)) == 1
        assert rec.rhs == term(3, CLASSIC, 2) == 1

    def test_sweep_classic(self):
        for n in range(2, 5):
            for r in range(1, 8):
                for s in range(1, 6):
                    assert verify_docagne(n, r, s).passed, (n, r, s)


class TestVajdaCatalan:
    def test_two_step_layout(self):
        r, p, q = 3, 2, 4
        m = vajda_matrix(2, r, p, q)
        f = lambda k: term(2, CLASSIC, k)
        assert m == M([[f(r), f(p + r)], [f(q + r), f(p + q + r)]])

    def test_matrix_small(self):
        assert vajda_matrix(3, 1, 1, 1) == M([[0, 1, 1], [1, 1, 2], [1, 2, 4]])

    def test_verify_small(self):
        rec = verify_vajda(3, 1, 1, 1)
        assert (rec.lhs, rec.rhs, rec.passed) == (-1, -1, True)
        assert det_laplace(vajda_matrix(3, 1, 1, 1)) == -1

    def test_two_step_unit_offsets(self):
        rec = verify_vajda(2, 1, 1, 1)
        assert (rec.lhs, rec.rhs, rec.passed) == (1, 1, True)

    def test_magnitude_tracks_large_offset(self):
        for q in range(2, 8):
            rec = verify_vajda(2, 3, 1, q)
            assert rec.passed
            assert abs(rec.rhs) == term(2, CLASSIC, q)

    def test_catalan_matches_vajda_content(self):
        for n in (2, 3):
            for r in (1, 2, 4):
                for p in (1, 2, 3):
                    cat = verify_catalan(n, r, p)
                    vaj = verify_vajda(n, r, p, p)
                    assert (cat.lhs, cat.rhs, cat.passed) == \
                        (vaj.lhs, vaj.rhs, vaj.passed)
                    assert cat.case.kind == "catalan"
                    assert cat.case.q == cat.case.p == p

    def test_catalan_small_values(self):
        rec = verify_catalan(3, 1, 1)
        assert rec.lhs == -1
        assert rec.rhs == -term(3, CLASSIC, 1) ** 2
        rec = verify_catalan(2, 2, 1)
        assert vajda_matrix(2, 2, 1, 1) == M([[1, 2], [2, 3]])
        assert (rec.lhs, rec.rhs, rec.passed) == (-1, -1, True)

    def test_sweep_classic(self):
        for n in range(2, 5):
            for r in range(1, 6):
                for p in range(1, 4):
                    for q in range(1, 4):
                        assert verify_vajda(n, r, p, q).passed, (n, r, p, q)

    def test_p_and_q_interchange_preserves_value(self):
        # the predicted product is symmetric, and both layouts must pass
        for n in (2, 3, 4):
            a = verify_vajda(n, 2, 3, 1)
            b = verify_vajda(n, 2, 1, 3)
            assert a.passed and b.passed
            assert a.rhs == b.rhs


class TestGeneralizedDOcagne:
    def test_identity_base_r_one(self):
        for n in (2, 3, 4):
            rec = generalized_docagne(IntMatrix.identity(n), 1)
            assert (rec.lhs, rec.rhs, rec.passed) == (1, 1, True)

    def test_worked_example(self):
        rec = generalized_docagne(M([[1, 2], [0, 1]]), 3)
        assert (rec.lhs, rec.rhs) == (3, 3)
        assert rec.rhs == term(2, PAPER_POWERS, 3) * 1

    def test_random_sweep_including_singular(self):
        rng = random.Random(21)
        for _ in range(20):
            a = random_matrix(rng, 3, 9)
            for r in range(1, 6):
                assert generalized_docagne(a, r).passed

    def test_zero_matrix(self):
        zero = M([[0, 0], [0, 0]])
        rec = generalized_docagne(zero, 2)
        assert (rec.lhs, rec.rhs, rec.passed) == (0, 0, True)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            generalized_docagne(M([[1, 2, 3], [4, 5, 6]]), 1)

    @staticmethod
    def _record_by_walk(a, r):
        # The record as built before the right side came from term_fast: the
        # factor by the O(r) walk, the minor straight from the extension.
        n = a.rows
        return VerificationRecord(
            IdentityCase(GEN_DOCAGNE, n, r, convention=PAPER_POWERS.name),
            det_bareiss(_extend_last(a, r)), term(n, PAPER_POWERS, r) * det_bareiss(a))

    @given(data=st.data(), n=st.integers(2, 6), r=st.integers(1, 400))
    def test_record_equals_the_one_built_with_term(self, data, n, r):
        entries = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
        a = M(data.draw(st.lists(entries, min_size=n, max_size=n)))
        assert generalized_docagne(a, r) == self._record_by_walk(a, r)

    @pytest.mark.parametrize("n", [3, 6])
    def test_record_equals_the_one_built_with_term_at_large_r(self, n):
        # At this r term_fast squares x^(u >> 1) at points.
        r = 14_400
        assert _x_pow(n, (r - 1) // 2 >> 1)[-1].bit_length() > _POINTS_FROM_BITS
        a = random_matrix(random.Random(n), n, 9)
        assert generalized_docagne(a, r) == self._record_by_walk(a, r)


class TestRatioInvariance:
    def test_same_matrix(self):
        a = M([[1, 2], [0, 1]])
        assert ratio_invariance(a, a, 2).passed

    def test_scaled_matrix(self):
        a = M([[1, 2], [0, 1]])
        b = M([[2, 4], [0, 2]])
        for r in (1, 2, 3):
            assert ratio_invariance(a, b, r).passed

    def test_random_regular_pairs(self):
        rng = random.Random(22)
        for n in (2, 3):
            for r in range(1, 5):
                mats = []
                while len(mats) < 2:
                    a = random_matrix(rng, n, 9)
                    if det_bareiss(a) != 0:
                        mats.append(a)
                assert ratio_invariance(mats[0], mats[1], r).passed

    def test_singular_rejected(self):
        good = M([[1, 2], [0, 1]])
        bad = M([[1, 2], [2, 4]])
        with pytest.raises(RegularityError):
            ratio_invariance(good, bad, 1)
        with pytest.raises(RegularityError):
            ratio_invariance(bad, good, 1)

    def test_mismatched_orders_rejected(self):
        with pytest.raises(DimensionError):
            ratio_invariance(IntMatrix.identity(2), IntMatrix.identity(3), 1)


# Each builder's entry (i, k) as its docstring states it, one index per
# entry, written out separately from the builders' own index rules.
def _cassini_index(n, r, i, k):
    return r + k - i + 1


def _docagne_index(n, r, s, i, k):
    return r + n + s - i if k == n else r + k - i + 1


def _vajda_index(n, r, p, q, i, k):
    if i < n:
        return r - n + i + k if k < n else p + r + i - 1
    return q + r + k - 1 if k < n else p + q + r + n - 2


# classic, paper, and a custom seeding with mixed signs (n seeds each).
_CONVENTIONS = (lambda n: CLASSIC, lambda n: PAPER_POWERS,
                lambda n: custom((3, -1, 4, 1, 5, 9)[:n]))
_OFFSETS = range(1, 6)


def _builder_cases():
    """(builder, its arguments after n and r, the index rule) per case."""
    yield cassini_matrix, (), _cassini_index
    for s in _OFFSETS:
        yield docagne_matrix, (s,), _docagne_index
    for p in _OFFSETS:
        for q in _OFFSETS:
            yield vajda_matrix, (p, q), _vajda_index


class TestBuildersAgainstTerm:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_entries_and_window(self, n, monkeypatch):
        # r 1..8 includes r < n, where entries reach indices <= 0.
        calls = []
        real = nstepdet.identities.terms_range

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr("nstepdet.identities.terms_range", spy)
        for make_conv in _CONVENTIONS:
            conv = make_conv(n)
            for r in range(1, 9):
                for build, extra, index in _builder_cases():
                    at = [[index(n, r, *extra, i, k) for k in range(1, n + 1)]
                          for i in range(1, n + 1)]
                    want = [[term(n, conv, j) for j in row] for row in at]
                    calls.clear()
                    got = build(n, r, *extra, conv)
                    case = (build.__name__, n, r, extra, conv)
                    assert got.to_rows() == want, case
                    lo, hi = min(map(min, at)), max(map(max, at))
                    assert calls == [(n, conv, lo, hi)], case


def _extend_last(m, steps):
    """Columns {1..n-1, n+steps} of the ``steps``-step extension of ``m``."""
    n = m.rows
    return select_columns(extend_columns(m, steps), (*range(1, n), n + steps))


class TestReductionOracles:
    # The paper reaches each family through a column extension of a simpler
    # matrix. The builders stay independent; the reduction is a second route
    # to the same matrix, so a bug in a builder shows as two routes that
    # disagree.
    @pytest.mark.parametrize("n", range(2, 7))
    def test_docagne_is_the_extended_cassini_matrix(self, n):
        for make_conv in _CONVENTIONS:
            conv = make_conv(n)
            for r in range(1, 8):
                cassini = cassini_matrix(n, r, conv)
                for s in range(2, 7):
                    docagne = docagne_matrix(n, r, s, conv)
                    assert docagne == _extend_last(cassini, s - 1), (n, r, s, conv)
                    gen = generalized_docagne(cassini, s - 1)
                    assert gen.passed and gen.lhs == det_bareiss(docagne), (n, r, s, conv)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_vajda_is_the_hankel_window_extended_both_ways(self, n):
        for make_conv in _CONVENTIONS:
            conv = make_conv(n)
            for r in range(1, 8):
                hankel = M([[term(n, conv, r - n + i + k) for k in range(1, n + 1)]
                            for i in range(1, n + 1)])
                for p in range(2, 6):
                    cols = _extend_last(hankel, p - 1)
                    for q in range(2, 6):
                        both = transpose(_extend_last(transpose(cols), q - 1))
                        assert both == vajda_matrix(n, r, p, q, conv), (n, r, p, q, conv)


class TestVerificationRecord:
    def test_passed_is_derived_from_both_sides(self):
        case = IdentityCase(CASSINI, 2, 1, convention="classic")
        assert not VerificationRecord(case, 2, 3).passed
        assert VerificationRecord(case, -5, -5).passed


class TestStructuralConsistency:
    def test_reversal_of_transpose_sign_rule(self):
        for n in (2, 3, 4):
            for r in (1, 2, 3):
                for s in (1, 2, 3):
                    m = docagne_matrix(n, r, s)
                    flipped = reverse_columns(transpose(m))
                    want = det_bareiss(m) if (n // 2) % 2 == 0 else -det_bareiss(m)
                    assert det_bareiss(flipped) == want

    def test_reversed_transpose_is_vajda_layout(self):
        # flipping the d'Ocagne matrix lands exactly on the Vajda layout
        # with unit column offset and row offset s
        for n in (2, 3, 4):
            for r in (1, 2, 4):
                for s in (1, 2, 3):
                    flipped = reverse_columns(transpose(docagne_matrix(n, r, s)))
                    assert flipped == vajda_matrix(n, r, 1, s)


class TestFullClassicGrid:
    def test_every_family_passes_on_the_wide_grid(self):
        for n in range(2, 7):
            for r in range(1, 26):
                assert verify_cassini(n, r).passed, (n, r)
                for s in range(1, 11):
                    assert verify_docagne(n, r, s).passed, (n, r, s)
                for p in range(1, 11):
                    assert verify_catalan(n, r, p).passed, (n, r, p)
                    for q in range(1, 11):
                        assert verify_vajda(n, r, p, q).passed, (n, r, p, q)


class TestConventionProbe:
    def test_classic_resolves_every_family(self):
        probe = convention_probe()
        assert probe["resolution"] == {
            "cassini": ["classic"],
            "catalan": ["classic"],
            "docagne": ["classic"],
            "vajda": ["classic"],
        }

    def test_power_seeding_fails_somewhere(self):
        probe = convention_probe()
        for family, grid in probe["families"].items():
            assert grid["classic"]["failed"] == 0, family
            assert grid["paper"]["failed"] > 0, family
            assert grid["paper"]["failures"], family

    def test_known_failing_cell_is_reported(self):
        probe = convention_probe()
        failures = probe["families"]["cassini"]["paper"]["failures"]
        assert {"kind": "cassini", "n": 2, "r": 1,
                "convention": "paper"} in failures

    def test_counts_are_consistent(self):
        probe = convention_probe()
        for grid in probe["families"].values():
            for cell in grid.values():
                assert cell["passed"] + cell["failed"] == cell["total"]
                assert len(cell["failures"]) == cell["failed"]

    def test_golden_digest(self):
        probe = json.dumps(convention_probe()).encode()
        assert hashlib.sha256(probe).hexdigest() == (
            "693c6d9a29b02c7033bc54a5b8d6061986427320b90c34ef712c1cb2b5410e3e")

    def test_deterministic(self):
        one = json.dumps(convention_probe(), sort_keys=True)
        two = json.dumps(convention_probe(), sort_keys=True)
        assert one == two


class TestCaseToDict:
    def test_unused_fields_absent(self):
        rec = verify_cassini(2, 1)
        assert case_to_dict(rec.case) == {
            "kind": "cassini", "n": 2, "r": 1, "convention": "classic"}

    def test_trial_slot(self):
        rec = verify_cassini(2, 1)
        out = case_to_dict(rec.case._replace(trial=3))
        assert out["trial"] == 3
        assert list(out)[-1] == "convention"
