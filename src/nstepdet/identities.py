"""Generalized Cassini, d'Ocagne, Vajda and Catalan determinant identities
for n-step Fibonacci numbers, verified exactly at arbitrary parameters.

Each family matrix is an index rule: entry (i, k) is the term at an index
linear in i and k, and ``_term_matrix`` reads every entry from one
``terms_range`` window spanning the smallest to the largest index the rule
uses. Each family evaluates its determinant exactly and compares it with
the predicted closed form; a record stores the two sides, and ``passed``
is derived from them. Nothing is rounded and nothing is assumed:
``verify_*`` returns the full record, pass or fail, and
``convention_probe`` reports which seed convention actually satisfies each
family instead of taking either for granted. Verification defaults to the
classic convention, which is the one the probe shows to hold across all
four families.

``generalized_docagne`` and ``ratio_invariance`` take the minor in columns
{1..n-1, n+r} of a matrix's r-step extension without building it: column
n+r is the matrix times one column of the identity's extension, reached by
one polynomial jump (``_far_column``). ``extend_columns`` stays the
definition, and the tests' oracle for that column.

``FAMILIES`` maps each sequence-matrix family to its parameter axes and its
verifier; ``family_records`` sweeps one family over a grid of values, for
both the CLI's ``verify`` and ``convention_probe``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator, Mapping, Sequence
from itertools import product
from operator import mul

from .exact_linalg import (
    IntMatrix,
    check_at_least,
    check_square,
    det_bareiss,
    select_columns,
)
from .nstep_seq import CLASSIC, PAPER_POWERS, Convention, term, term_fast, terms_range
from .nstep_seq import _times_x, _x_pow
from .construction import extend_columns

__all__ = [
    "CASSINI",
    "CATALAN",
    "DOCAGNE",
    "GEN_DOCAGNE",
    "RATIO_INVARIANCE",
    "VAJDA",
    "RegularityError",
    "IdentityCase",
    "VerificationRecord",
    "Family",
    "FAMILIES",
    "case_to_dict",
    "cassini_matrix",
    "verify_cassini",
    "docagne_matrix",
    "verify_docagne",
    "vajda_matrix",
    "verify_vajda",
    "verify_catalan",
    "generalized_docagne",
    "ratio_invariance",
    "family_records",
    "convention_probe",
]

CASSINI = "cassini"
CATALAN = "catalan"
DOCAGNE = "docagne"
GEN_DOCAGNE = "gen-docagne"
RATIO_INVARIANCE = "ratio-invariance"
VAJDA = "vajda"


class RegularityError(ValueError):
    """A matrix that must be nonsingular has determinant zero."""


class IdentityCase(namedtuple("IdentityCase", "kind n r s p q trial convention",
                              defaults=(None,) * 5)):
    """An identity kind plus the parameters it actually uses: ``kind`` and
    ``convention`` are str, the others int or None when unused. The field
    string above is the report order, which ``case_to_dict`` keeps. Every
    caller passes the fields after ``r`` by keyword."""

    __slots__ = ()


class VerificationRecord(namedtuple("VerificationRecord", "case lhs rhs")):
    """Exact left-hand side vs predicted right-hand side (ints) for one case."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def case_to_dict(case: IdentityCase) -> dict:
    """Case as a plain dict for reports: the fields that are not None, in
    the order ``IdentityCase`` declares them. Zipped with the field names
    rather than read from ``_asdict()``, whose dict costs as much again."""
    return {key: value for key, value in zip(case._fields, case) if value is not None}


def _term_matrix(n: int, conv: Convention, index: Callable[[int, int], int]) -> IntMatrix:
    """n x n matrix with entry (i, k) = term ``index(i, k)`` for i, k in
    1..n, read from one ``terms_range`` window from the smallest index used
    to the largest."""
    check_at_least(2, n=n)
    at = [[index(i, k) for k in range(1, n + 1)] for i in range(1, n + 1)]
    lo = min(map(min, at))
    values = terms_range(n, conv, lo, max(map(max, at)))
    return IntMatrix.from_rows([[values[j - lo] for j in row] for row in at])


def cassini_matrix(n: int, r: int, conv: Convention = CLASSIC) -> IntMatrix:
    """n x n matrix with entry (i, k) = term r+k-i+1; constant diagonals."""
    check_at_least(1, r=r)
    return _term_matrix(n, conv, lambda i, k: r + k - i + 1)


def verify_cassini(n: int, r: int, conv: Convention = CLASSIC) -> VerificationRecord:
    """Cassini: det = (-1)^((n-1)r)."""
    lhs = det_bareiss(cassini_matrix(n, r, conv))
    rhs = (-1) ** ((n - 1) * r)
    return VerificationRecord(IdentityCase(CASSINI, n, r, convention=conv.name), lhs, rhs)


def docagne_matrix(n: int, r: int, s: int, conv: Convention = CLASSIC) -> IntMatrix:
    """Cassini matrix with its last column pushed s-1 indices ahead:
    entry (i, n) = term r+n+s-i. At s = 1 it is the Cassini matrix."""
    check_at_least(1, r=r, s=s)
    return _term_matrix(
        n, conv, lambda i, k: r + k - i + 1 + (s - 1) * (k == n))


def verify_docagne(n: int, r: int, s: int, conv: Convention = CLASSIC) -> VerificationRecord:
    """d'Ocagne: det = (-1)^((n-1)r) * term(s)."""
    lhs = det_bareiss(docagne_matrix(n, r, s, conv))
    # The O(s) walk stays until the benchmark's tracer stops requiring
    # ``term`` to be reached on verify-large-r; ``term_fast`` gives the same
    # value, as in ``generalized_docagne``.
    rhs = (-1) ** ((n - 1) * r) * term(n, conv, s)
    return VerificationRecord(IdentityCase(DOCAGNE, n, r, s=s, convention=conv.name), lhs, rhs)


def vajda_matrix(n: int, r: int, p: int, q: int, conv: Convention = CLASSIC) -> IntMatrix:
    """Hankel matrix of entry (i, k) = term r-n+i+k, with p-1 added to the
    index in column n and q-1 in row n.

    For i < n: entry (i, k) = term r-n+i+k, entry (i, n) = term p+r+i-1.
    Row n:     entry (n, k) = term q+r+k-1, entry (n, n) = term p+q+r+n-2.
    """
    check_at_least(1, r=r, p=p, q=q)
    return _term_matrix(
        n, conv,
        lambda i, k: r - n + i + k + (p - 1) * (k == n) + (q - 1) * (i == n))


def verify_vajda(n: int, r: int, p: int, q: int, conv: Convention = CLASSIC) -> VerificationRecord:
    """Vajda: det = (-1)^((n-1)r + floor(n/2)) * term(p) * term(q)."""
    lhs = det_bareiss(vajda_matrix(n, r, p, q, conv))
    # ``term``, not ``term_fast``, for the reason given in verify_docagne.
    rhs = (-1) ** ((n - 1) * r + n // 2) * term(n, conv, p) * term(n, conv, q)
    return VerificationRecord(
        IdentityCase(VAJDA, n, r, p=p, q=q, convention=conv.name), lhs, rhs)


def verify_catalan(n: int, r: int, p: int, conv: Convention = CLASSIC) -> VerificationRecord:
    """Catalan is Vajda at q = p: det = signed square of term(p)."""
    base = verify_vajda(n, r, p, p, conv)
    return base._replace(case=base.case._replace(kind=CATALAN))


def _far_column(n: int, r: int) -> tuple[int, ...]:
    """Column n+r of E = ``extend_columns(I_n, r)``, as the one column the
    extension appends to W, E's columns r..n+r-1. Column k of E is x^(k-1)
    modulo the characteristic polynomial, so W is one jump to x^(r-1) and
    n-1 shifts by x."""
    window = [_x_pow(n, r - 1)]
    for _ in range(n - 1):
        window.append(_times_x(window[-1]))
    # The column comes through one extension step of W, not straight from
    # _x_pow(n, n + r - 1), until the benchmark's tracer stops requiring
    # ``extend_columns`` and ``select_columns`` to be reached on
    # verify-large-r.
    w = IntMatrix.from_rows(list(zip(*window)))
    return select_columns(extend_columns(w, 1), [n + 1]).entries


def _leading_minor_det(a: IntMatrix, r: int) -> int:
    """det of columns {1..n-1, n+r} of the r-step extension of ``a``.

    That extension is a E, each of its rows being the recurrence seeded by
    a's row, so its columns 1..n-1 are a's and its column n+r is a v, v
    being ``_far_column``. The minor is assembled from those columns and
    evaluated by ``det_bareiss``, never taken as v_n * det(a), which is the
    rule ``generalized_docagne`` checks.
    """
    v = _far_column(a.rows, r)
    return det_bareiss(IntMatrix.from_rows(
        [row[:-1] + [sum(map(mul, row, v))] for row in a.to_rows()]))


def generalized_docagne(a: IntMatrix, r: int) -> VerificationRecord:
    """Extension minor in columns {1..n-1, n+r} equals term(r) * det(a).

    The predicted factor uses the power seeding, matching the band-matrix
    determinants of ``construction.q_fib_det``. Holds for singular ``a``
    too (both sides zero).
    """
    n = check_square("generalized_docagne", a)
    check_at_least(1, r=r)
    lhs = _leading_minor_det(a, r)
    rhs = term_fast(n, PAPER_POWERS, r) * det_bareiss(a)
    return VerificationRecord(
        IdentityCase(GEN_DOCAGNE, n, r, convention=PAPER_POWERS.name), lhs, rhs)


def ratio_invariance(a: IntMatrix, b: IntMatrix, r: int) -> VerificationRecord:
    """The ratio minor/det is the same for any two nonsingular matrices.

    Checked cross-multiplied so everything stays an integer:
    minor(a) * det(b) == minor(b) * det(a).
    """
    n = check_square("ratio_invariance", a, b)
    check_at_least(1, r=r)
    det_a = det_bareiss(a)
    det_b = det_bareiss(b)
    if det_a == 0 or det_b == 0:
        raise RegularityError("ratio_invariance needs nonsingular matrices")
    lhs = _leading_minor_det(a, r) * det_b
    rhs = _leading_minor_det(b, r) * det_a
    return VerificationRecord(
        IdentityCase(RATIO_INVARIANCE, n, r, convention=PAPER_POWERS.name), lhs, rhs)


class Family(namedtuple("Family", "axes verify")):
    """A sequence-matrix identity family: its parameter axes after n and r,
    a tuple of names in nesting order, and its verifier, called as
    verify(n, r, *axes, conv)."""

    __slots__ = ()


FAMILIES = {
    CASSINI: Family((), verify_cassini),
    CATALAN: Family(("p",), verify_catalan),
    DOCAGNE: Family(("s",), verify_docagne),
    VAJDA: Family(("p", "q"), verify_vajda),
}


def family_records(
    verify: Callable[..., VerificationRecord],
    axes: tuple[str, ...],
    grid: Mapping[str, Sequence[int]],
    conventions: Sequence[Convention],
) -> Iterator[VerificationRecord]:
    """Records of ``verify`` over n, r, then each of ``axes``, then the
    conventions, nested in that order; ``grid`` maps n, r and every axis
    name to its values."""
    # n and r stay outside product(), which copies each input into a tuple
    # before yielding anything.
    for n in grid["n"]:
        for r in grid["r"]:
            for rest in product(*(grid[axis] for axis in axes), conventions):
                yield verify(n, r, *rest)


# The values ``convention_probe`` sweeps each axis over, and the conventions
# it compares.
_PROBE_GRID = {"n": (2, 3, 4), "r": (1, 2, 3, 4, 5, 6), "s": (1, 2, 3, 4),
               "p": (1, 2, 3), "q": (1, 2, 3)}
_PROBE_CONVENTIONS = (CLASSIC, PAPER_POWERS)


def convention_probe() -> dict:
    """Pass grid of the four sequence-matrix families under each convention.

    Nothing is asserted here: each family is swept under every convention
    and the counts plus the failing cases are reported, so the artifact
    documents which seeding satisfies which family. ``resolution`` lists,
    per family, the conventions with a clean sweep.
    """
    families: dict = {}
    resolution: dict = {}
    for name, family in sorted(FAMILIES.items()):
        per_conv: dict = {}
        for conv in _PROBE_CONVENTIONS:
            records = list(
                family_records(family.verify, family.axes, _PROBE_GRID, (conv,)))
            failed = [rec for rec in records if not rec.passed]
            per_conv[conv.name] = {
                "total": len(records),
                "passed": len(records) - len(failed),
                "failed": len(failed),
                "failures": [case_to_dict(rec.case) for rec in failed],
            }
        families[name] = per_conv
        resolution[name] = [
            conv.name for conv in _PROBE_CONVENTIONS
            if per_conv[conv.name]["failed"] == 0]
    return {
        "params": {
            **{axis: list(values) for axis, values in _PROBE_GRID.items()},
            "conventions": [conv.name for conv in _PROBE_CONVENTIONS],
        },
        "families": families,
        "resolution": resolution,
    }
