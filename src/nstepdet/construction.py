"""Banded sign matrix, recursive column extensions, and signed minors.

Three builders and two checkers make up the machinery:

* ``build_P``           -- the (n+r-1) x r banded matrix whose column j holds
                           ones in rows j..j+n-1 and a single -1 in row j+n.
* ``extend_columns``    -- grows a square matrix to n+r columns, each new
                           column the entrywise sum of its n predecessors.
* ``minor_by_deletion`` -- the square matrix left after deleting r of the
                           extension's columns (never the last one).
* ``check_prop1``       -- the signed-minor product rule: every such minor's
                           determinant equals a sign, times the determinant
                           of the band submatrix in the deleted rows, times
                           the determinant of the original matrix.
* ``check_prop1_all``   -- the same rule for every deletion and a batch of
                           matrices of one order. Per-matrix work (the
                           extension, det of the matrix) is done once per
                           matrix, and P, the signs and each band
                           determinant once per batch; each minor is still
                           evaluated by its own Bareiss elimination. The
                           per-deletion ``check_prop1`` stays the reference
                           it is tested against, and the CLI rechecks one
                           deletion per matrix through it.

``q_fib_det`` evaluates the band submatrix in rows n..n+r-1; over r these
determinants are exactly the n-step Fibonacci numbers with power seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from operator import itemgetter
from typing import Iterable

from .exact_linalg import (
    DimensionError,
    IntMatrix,
    SelectionError,
    check_at_least,
    det_bareiss,
    select_columns,
)

__all__ = [
    "MinorSelection",
    "Prop1Record",
    "minor_selection",
    "build_P",
    "build_Q",
    "extend_columns",
    "minor_by_deletion",
    "sign_from_deleted",
    "sign_from_kept",
    "check_prop1",
    "check_prop1_all",
    "q_fib_det",
]


@dataclass(frozen=True)
class MinorSelection:
    """A choice of r deleted columns out of n+r, plus the kept complement.

    ``kept`` has length n and always ends with column n+r; deleting the
    last column is never allowed.
    """

    n: int
    r: int
    deleted: tuple[int, ...]
    kept: tuple[int, ...]


@dataclass(frozen=True)
class Prop1Record:
    """One evaluation of the signed-minor product rule."""

    n: int
    r: int
    deleted: tuple[int, ...]
    minor_value: int
    sign: int
    det_q: int
    det_a: int
    rhs: int
    passed: bool


def minor_selection(n: int, r: int, deleted: Iterable[int]) -> MinorSelection:
    """Validate a deletion list and compute its kept complement.

    The deleted indices must be strictly ascending, lie in 1..n+r-1 and
    number exactly r; lists are never silently repaired because the sign
    formulas depend on the sorted values.
    """
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    deleted = tuple(deleted)
    if len(deleted) != r:
        raise SelectionError(
            f"need exactly r={r} columns to delete, got {len(deleted)}")
    if any(a >= b for a, b in zip(deleted, deleted[1:])):
        raise SelectionError(f"deleted columns must be strictly ascending: {list(deleted)}")
    if deleted and deleted[0] < 1:
        raise SelectionError(f"column index {deleted[0]} below 1")
    last = n + r
    if deleted and deleted[-1] >= last:
        if deleted[-1] == last:
            raise SelectionError(f"the last column {last} can never be deleted")
        raise SelectionError(f"column index {deleted[-1]} outside 1..{last - 1}")
    gone = set(deleted)
    kept = tuple(k for k in range(1, last) if k not in gone) + (last,)
    return MinorSelection(n, r, deleted, kept)


def build_P(n: int, r: int) -> IntMatrix:
    """The (n+r-1) x r banded matrix: column j is n ones then one -1.

    Entry (i, j) is 1 for j <= i <= j+n-1, -1 for i = j+n, else 0; columns
    near the right edge lose their -1 when row j+n falls off the bottom.
    """
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    height = n + r - 1
    rows = []
    for i in range(1, height + 1):
        row = []
        for j in range(1, r + 1):
            if j <= i <= j + n - 1:
                row.append(1)
            elif i == j + n:
                row.append(-1)
            else:
                row.append(0)
        rows.append(row)
    return IntMatrix.from_rows(rows)


def build_Q(n: int, r: int, rows: Iterable[int]) -> IntMatrix:
    """The r x r submatrix of ``build_P(n, r)`` lying in the given rows."""
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    rows = tuple(rows)
    if len(rows) != r:
        raise SelectionError(f"need exactly r={r} row indices, got {len(rows)}")
    if any(a >= b for a, b in zip(rows, rows[1:])):
        raise SelectionError(f"row indices must be strictly ascending: {list(rows)}")
    if rows[0] < 1 or rows[-1] > n + r - 1:
        raise SelectionError(f"row index outside 1..{n + r - 1}: {list(rows)}")
    p = build_P(n, r)
    return IntMatrix.from_rows([p.row(i) for i in rows])


def extend_columns(a: IntMatrix, r: int) -> IntMatrix:
    """Append r columns to a square matrix, each the sum of its n predecessors.

    Column n+j of the result is the entrywise sum of columns j..n+j-1, so
    every appended column satisfies the n-term recurrence over columns.
    """
    if not a.is_square:
        raise DimensionError(f"extend_columns needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    cols = [list(a.column(k)) for k in range(1, n + 1)]
    for j in range(r):
        window = cols[j:j + n]
        cols.append([sum(vals) for vals in zip(*window)])
    return IntMatrix.from_columns(cols)


def minor_by_deletion(aext: IntMatrix, deleted: Iterable[int]) -> IntMatrix:
    """The square matrix of columns kept after deleting ``deleted``.

    ``aext`` must be n x (n+r); the deletion list must then have exactly r
    indices and may never include the last column.
    """
    n = aext.rows
    r = aext.cols - n
    if r < 1:
        raise DimensionError(
            f"expected an n x (n+r) extension with r >= 1, got {aext.rows}x{aext.cols}")
    sel = minor_selection(n, r, deleted)
    return select_columns(aext, sel.kept)


def sign_from_deleted(n: int, r: int, deleted: Iterable[int]) -> int:
    """Minor sign from the deleted indices: parity of nr + sum(j) + r(r-1)/2."""
    sel = minor_selection(n, r, deleted)
    exponent = n * r + sum(sel.deleted) + r * (r - 1) // 2
    return 1 if exponent % 2 == 0 else -1


def sign_from_kept(n: int, kept: Iterable[int]) -> int:
    """Minor sign from the kept indices (the forced last column excluded):
    parity of n(n-1)/2 + sum(i)."""
    kept = tuple(kept)
    if len(kept) != n - 1:
        raise SelectionError(
            f"kept list must have n-1={n - 1} indices, got {len(kept)}")
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise SelectionError(f"kept indices must be strictly ascending: {list(kept)}")
    if kept and kept[0] < 1:
        raise SelectionError(f"column index {kept[0]} below 1")
    exponent = n * (n - 1) // 2 + sum(kept)
    return 1 if exponent % 2 == 0 else -1


def _checked_sign(sel: MinorSelection) -> int:
    """The minor's sign from the deleted indices, cross-checked against the
    kept ones. The two formulas are equivalent; disagreement means a bug
    here, so it raises (explicitly, so the check survives ``python -O``)."""
    sign = sign_from_deleted(sel.n, sel.r, sel.deleted)
    if sign != sign_from_kept(sel.n, sel.kept[:-1]):
        raise ArithmeticError(
            f"sign formulas disagree for n={sel.n}, r={sel.r},"
            f" deleted={list(sel.deleted)}")
    return sign


def check_prop1(a: IntMatrix, r: int, deleted: Iterable[int]) -> Prop1Record:
    """Evaluate both sides of the signed-minor product rule for one deletion.

    Left side: the determinant of the minor kept after deleting ``deleted``
    from the r-step extension of ``a``. Right side: sign, times det of the
    band submatrix in the deleted rows, times det ``a``. Works for singular
    ``a`` too, where both sides must be zero.
    """
    if not a.is_square:
        raise DimensionError(f"check_prop1 needs a square matrix, got {a.rows}x{a.cols}")
    n = a.rows
    sel = minor_selection(n, r, deleted)
    minor = minor_by_deletion(extend_columns(a, r), sel.deleted)
    minor_value = det_bareiss(minor)
    sign = _checked_sign(sel)
    det_q = det_bareiss(build_Q(n, r, sel.deleted))
    det_a = det_bareiss(a)
    rhs = sign * det_q * det_a
    return Prop1Record(
        n, r, sel.deleted, minor_value, sign, det_q, det_a, rhs,
        minor_value == rhs)


def check_prop1_all(mats: Iterable[IntMatrix], r: int) -> list[list[Prop1Record]]:
    """``check_prop1`` for every deletion, for each of a batch of matrices.

    The matrices must be square and share one order n. Entry i of the
    result equals ``[check_prop1(mats[i], r, d) for d in
    combinations(range(1, n + r), r)]``. Work that does not depend on the
    deletion is done once: each matrix is extended and its determinant
    taken once, and P, the signs and every det Q once for the whole batch
    (det Q does not depend on the matrix). Each minor is still assembled
    from the extension's columns and evaluated by its own Bareiss
    elimination, never derived from the rule it checks.
    """
    mats = list(mats)
    if not mats:
        return []
    n = mats[0].rows
    for a in mats:
        if not a.is_square or a.rows != n:
            raise DimensionError(
                f"check_prop1_all needs square matrices of order {n},"
                f" got {a.rows}x{a.cols}")
    p_rows = build_P(n, r).to_rows()
    # (deleted, picker of a row's kept entries, sign, det Q) per deletion.
    cell = []
    for deleted in combinations(range(1, n + r), r):
        sel = minor_selection(n, r, deleted)
        q = IntMatrix._trusted(
            r, r, tuple(e for i in sel.deleted for e in p_rows[i - 1]))
        cell.append((sel.deleted, itemgetter(*(k - 1 for k in sel.kept)),
                     _checked_sign(sel), det_bareiss(q)))
    batch = []
    for a in mats:
        ext_rows = extend_columns(a, r).to_rows()
        det_a = det_bareiss(a)
        records = []
        for deleted, pick, sign, det_q in cell:
            # n >= 2 kept columns, so ``pick`` returns a tuple per row.
            minor = IntMatrix._trusted(
                n, n, tuple(chain.from_iterable(map(pick, ext_rows))))
            minor_value = det_bareiss(minor)
            rhs = sign * det_q * det_a
            records.append(Prop1Record(
                n, r, deleted, minor_value, sign, det_q, det_a, rhs,
                minor_value == rhs))
        batch.append(records)
    return batch


def q_fib_det(n: int, r: int) -> int:
    """Determinant of the band submatrix in rows n..n+r-1 of ``build_P``.

    Over r = 1, 2, ... these are exactly the n-step Fibonacci numbers under
    the power seeding (1, 2, 4, ..., 2^(n-1)).
    """
    return det_bareiss(build_Q(n, r, range(n, n + r)))
