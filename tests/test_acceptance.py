"""Acceptance suite: one test per criterion, every check exact (zero
tolerance) and every stated runtime budget asserted.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
PASS report per criterion (with -v alone, the test outcome lines serve
the same purpose).
"""

import json
import random
import time
from itertools import combinations

from nstepdet.cli import random_matrix
from nstepdet.exact_linalg import (
    IntMatrix,
    det_bareiss,
    det_laplace,
    reverse_columns,
    transpose,
)
from nstepdet.nstep_seq import CLASSIC, PAPER_POWERS, term, term_fast, terms_range
from nstepdet.construction import (
    check_prop1,
    q_fib_det,
    sign_from_deleted,
    sign_from_kept,
)
from nstepdet.identities import (
    convention_probe,
    docagne_matrix,
    verify_cassini,
    verify_catalan,
    verify_docagne,
    verify_vajda,
)

SEED = 0


def _finish(name: str, start: float, budget_s: float | None = None) -> None:
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, \
            f"{name}: took {elapsed:.1f}s, budget is {budget_s}s"
        print(f"acceptance {name}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")
    else:
        print(f"acceptance {name}: PASS ({elapsed:.2f}s)")


def test_01_signed_minor_product_rule_exhaustive():
    start = time.perf_counter()
    rng = random.Random(SEED)
    checked = 0
    for n in (2, 3, 4):
        for r in range(1, 5):
            for _ in range(20):
                a = random_matrix(rng, n, 9)
                for deleted in combinations(range(1, n + r), r):
                    rec = check_prop1(a, r, deleted)
                    assert rec.passed, (n, r, deleted, a.to_rows())
                    checked += 1
    assert checked == sum(
        20 * len(list(combinations(range(1, n + r), r)))
        for n in (2, 3, 4) for r in range(1, 5))
    _finish("01 signed-minor product rule", start, 30.0)


def test_02_band_determinants_are_the_sequence():
    start = time.perf_counter()
    for n in range(2, 6):
        for r in range(1, 16):
            assert q_fib_det(n, r) == term(n, PAPER_POWERS, r), (n, r)
    _finish("02 band determinants = power-seeded terms", start, 5.0)


def test_03_cassini_suite():
    start = time.perf_counter()
    for n in range(2, 7):
        for r in range(1, 26):
            rec = verify_cassini(n, r, CLASSIC)
            assert rec.rhs == (1 if ((n - 1) * r) % 2 == 0 else -1)
            assert rec.passed, (n, r)
            if n == 2:
                assert rec.lhs == (1 if r % 2 == 0 else -1)
            if n == 3:
                assert rec.lhs == 1
    _finish("03 Cassini suite", start, 10.0)


def test_04_docagne_suite():
    start = time.perf_counter()
    for n in range(2, 6):
        for r in range(1, 16):
            sign = 1 if ((n - 1) * r) % 2 == 0 else -1
            for s in range(1, 11):
                rec = verify_docagne(n, r, s, CLASSIC)
                assert rec.rhs == sign * term(n, CLASSIC, s)
                assert rec.passed, (n, r, s)
    _finish("04 d'Ocagne suite", start, 20.0)


def test_05_vajda_catalan_suite():
    start = time.perf_counter()
    for n in range(2, 6):
        for r in range(1, 11):
            sign = 1 if ((n - 1) * r + n // 2) % 2 == 0 else -1
            for p in range(1, 7):
                for q in range(1, 7):
                    rec = verify_vajda(n, r, p, q, CLASSIC)
                    assert rec.rhs == sign * term(n, CLASSIC, p) * term(n, CLASSIC, q)
                    assert rec.passed, (n, r, p, q)
                cat = verify_catalan(n, r, p, CLASSIC)
                assert cat.rhs == sign * term(n, CLASSIC, p) ** 2
                assert cat.passed, (n, r, p)
    # three-step spot check: the determinant is minus the term product
    for r in (1, 2, 3):
        for p in (1, 2):
            for q in (1, 3):
                rec = verify_vajda(3, r, p, q, CLASSIC)
                assert rec.lhs == -term(3, CLASSIC, p) * term(3, CLASSIC, q)
    _finish("05 Vajda/Catalan suite", start, 30.0)


def test_06_convention_probe_report():
    start = time.perf_counter()
    first = convention_probe()
    second = convention_probe()
    assert json.dumps(first) == json.dumps(second)  # deterministic
    assert set(first["families"]) == {"cassini", "catalan", "docagne", "vajda"}
    for family, grid in first["families"].items():
        assert set(grid) == {"classic", "paper"}
        for cell in grid.values():
            assert cell["passed"] + cell["failed"] == cell["total"]
    # the grid resolves the seeding question: classic sweeps clean,
    # power seeding does not
    assert first["resolution"] == {
        "cassini": ["classic"],
        "catalan": ["classic"],
        "docagne": ["classic"],
        "vajda": ["classic"],
    }
    _finish("06 convention probe report", start)


def test_07_determinant_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(SEED)
    for i in range(500):
        order = 1 + i % 6
        m = random_matrix(rng, order, 99)
        assert det_bareiss(m) == det_laplace(m), m.to_rows()
    _finish("07 determinant oracle equivalence (500 matrices)", start, 5.0)


def test_08_sequence_engine_equivalence():
    start = time.perf_counter()
    for n in range(2, 7):
        for conv in (CLASSIC, PAPER_POWERS):
            expected = terms_range(n, conv, 1, 2000)
            for k in range(1, 2001):
                assert term_fast(n, conv, k) == expected[k - 1], (n, conv.name, k)
            for k in (10 ** 4, 10 ** 5):
                assert term_fast(n, conv, k) == term(n, conv, k), (n, conv.name, k)
    big_start = time.perf_counter()
    value = term_fast(2, CLASSIC, 10 ** 6)
    big_elapsed = time.perf_counter() - big_start
    assert value > 0
    assert big_elapsed < 10.0, f"index 10^6 took {big_elapsed:.1f}s"
    _finish("08 sequence engine equivalence", start)


def test_09_sign_formula_agreement_exhaustive():
    start = time.perf_counter()
    for n in (2, 3, 4):
        for r in range(1, 6):
            for deleted in combinations(range(1, n + r), r):
                kept = [k for k in range(1, n + r) if k not in deleted]
                assert sign_from_deleted(n, r, deleted) == \
                    sign_from_kept(n, kept), (n, r, deleted)
    _finish("09 sign formula agreement", start)


def test_10_transpose_reversal_mechanics():
    start = time.perf_counter()
    for n in range(2, 6):
        sign = 1 if (n // 2) % 2 == 0 else -1
        for r in range(1, 16):
            for s in range(1, 11):
                m = docagne_matrix(n, r, s, CLASSIC)
                assert det_bareiss(reverse_columns(transpose(m))) == \
                    sign * det_bareiss(m), (n, r, s)
    _finish("10 transpose/reversal mechanics", start)
