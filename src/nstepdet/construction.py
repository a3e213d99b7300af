"""Banded sign matrix, recursive column extensions, and signed minors.

Three builders and two checkers make up the machinery:

* ``build_P``           -- the (n+r-1) x r banded matrix whose column j holds
                           ones in rows j..j+n-1 and a single -1 in row j+n.
* ``extend_columns``    -- grows a square matrix to n+r columns, each new
                           column the entrywise sum of its n predecessors:
                           each row is the n-step recurrence seeded by that
                           row, swept by the same running total
                           (``nstep_seq.sweep``) as ``terms_range``.
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
                           determinant once per batch. All minors of one
                           extension come from one fraction-free walk over
                           kept-column prefixes (``_kept_minor_dets``):
                           minors that share their first kept columns share
                           those elimination steps, and each value is still
                           the last pivot of its own minor's elimination.
                           The per-deletion ``check_prop1`` stays the
                           reference it is tested against, and the CLI
                           rechecks one deletion per matrix through it.

A ``Prop1Record`` stores the minor's determinant and the three factors of
the right side; ``rhs`` (their product) and ``passed`` are derived from
them.

``q_fib_det`` evaluates the band submatrix in rows n..n+r-1; over r these
determinants are exactly the n-step Fibonacci numbers with power seeding.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, Sequence

from .exact_linalg import (
    DimensionError,
    IntMatrix,
    check_at_least,
    check_indices,
    check_square,
    det_bareiss,
    select_columns,
)
from .nstep_seq import sweep

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
    """One evaluation of the signed-minor product rule: the minor's
    determinant (left side) and the factors of the right side."""

    n: int
    r: int
    deleted: tuple[int, ...]
    minor_value: int
    sign: int
    det_q: int
    det_a: int

    @property
    def rhs(self) -> int:
        return self.sign * self.det_q * self.det_a

    @property
    def passed(self) -> bool:
        return self.minor_value == self.rhs


def minor_selection(n: int, r: int, deleted: Iterable[int]) -> MinorSelection:
    """Validate a deletion list and compute its kept complement.

    The deleted indices must be strictly ascending, lie in 1..n+r-1 (the
    last column is never deleted) and number exactly r.
    """
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    last = n + r
    deleted = check_indices("deleted column", deleted, 1, last - 1, count=r)
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
    return IntMatrix.from_columns(
        [([0] * (j - 1) + [1] * n + [-1] + [0] * r)[:n + r - 1]
         for j in range(1, r + 1)])


def build_Q(n: int, r: int, rows: Iterable[int]) -> IntMatrix:
    """The r x r submatrix of ``build_P(n, r)`` lying in the given rows."""
    p = build_P(n, r)
    rows = check_indices("row", rows, 1, n + r - 1, count=r)
    return IntMatrix.from_rows([p.row(i) for i in rows])


def extend_columns(a: IntMatrix, r: int) -> IntMatrix:
    """Append r columns to a square matrix, each the sum of its n predecessors.

    Column n+j of the result is the entrywise sum of columns j..n+j-1, so
    each row of the result is the n-step recurrence seeded by that row of
    ``a``, swept forward by ``sweep``, the running total ``terms_range``
    uses.
    """
    n = check_square("extend_columns", a)
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    return IntMatrix.from_rows([sweep(row, r) for row in a.to_rows()])


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
    return _deleted_sign(minor_selection(n, r, deleted))


def _deleted_sign(sel: MinorSelection) -> int:
    return -1 if (sel.n * sel.r + sum(sel.deleted) + sel.r * (sel.r - 1) // 2) % 2 else 1


def sign_from_kept(n: int, kept: Iterable[int]) -> int:
    """Minor sign from the kept indices (the forced last column excluded):
    parity of n(n-1)/2 + sum(i)."""
    return _kept_sign(n, check_indices("kept column", kept, 1, count=n - 1))


def _kept_sign(n: int, kept: tuple[int, ...]) -> int:
    return -1 if (n * (n - 1) // 2 + sum(kept)) % 2 else 1


def _checked_sign(sel: MinorSelection) -> int:
    """The minor's sign from the deleted indices of a validated selection,
    cross-checked against the kept ones. The two formulas are equivalent;
    disagreement means a bug here, so it raises (explicitly, so the check
    survives ``python -O``)."""
    sign = _deleted_sign(sel)
    if sign != _kept_sign(sel.n, sel.kept[:-1]):
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
    n = check_square("check_prop1", a)
    sel = minor_selection(n, r, deleted)
    minor = minor_by_deletion(extend_columns(a, r), sel.deleted)
    minor_value = det_bareiss(minor)
    sign = _checked_sign(sel)
    det_q = det_bareiss(build_Q(n, r, sel.deleted))
    det_a = det_bareiss(a)
    return Prop1Record(n, r, sel.deleted, minor_value, sign, det_q, det_a)


def check_prop1_all(mats: Iterable[IntMatrix], r: int) -> list[list[Prop1Record]]:
    """``check_prop1`` for every deletion, for each of a batch of matrices.

    The matrices must be square and share one order n. Entry i of the
    result equals ``[check_prop1(mats[i], r, d) for d in
    combinations(range(1, n + r), r)]``. Work that does not depend on the
    deletion is done once: each matrix is extended and its determinant
    taken once, and P, the signs and every det Q once for the whole batch
    (det Q does not depend on the matrix). Every minor of one extension is
    evaluated by fraction-free elimination of its own columns, shared
    between minors only where their kept columns agree
    (``_kept_minor_dets``), never derived from the rule it checks.
    """
    mats = list(mats)
    if not mats:
        return []
    n = check_square("check_prop1_all", *mats)
    p_rows = build_P(n, r).to_rows()
    # (deleted, kept columns but the last, sign, det Q) per deletion.
    cell = []
    for deleted in combinations(range(1, n + r), r):
        sel = minor_selection(n, r, deleted)
        q = IntMatrix(
            r, r, tuple(chain.from_iterable(p_rows[i - 1] for i in sel.deleted)))
        cell.append((sel.deleted, sel.kept[:-1],
                     _checked_sign(sel), det_bareiss(q)))
    batch = []
    for a in mats:
        dets = _kept_minor_dets(extend_columns(a, r).to_rows())
        det_a = det_bareiss(a)
        batch.append([Prop1Record(n, r, deleted, dets[kept], sign, det_q, det_a)
                      for deleted, kept, sign, det_q in cell])
    return batch


def _kept_minor_dets(ext_rows: list[list[int]]) -> dict[tuple[int, ...], int]:
    """The determinant of every n x n minor of an n x (n+r) extension that
    keeps its last column, keyed by its other n-1 kept columns (1-based).

    A minor's transpose has the kept columns as its rows, in order, and
    fraction-free (Bareiss) elimination of it uses only the first t of them
    in its first t steps. So one depth-first walk over kept-column prefixes
    does every minor's elimination: each node takes its newest column as
    the pivot row and reduces every later candidate column and the last
    column once against it. At depth n-1 the last column's one remaining
    entry, times the sign, is the minor's determinant, the last pivot of
    its own elimination. A zero pivot swaps the same two coordinates in
    every vector of the subtree, which is one row interchange of each of
    its minors, and flips their sign; a reduced pivot vector that is all
    zero makes every minor below it 0. The walk keeps an explicit stack,
    so its depth is not bounded by the recursion limit.
    """
    n = len(ext_rows)
    *columns, last = zip(*ext_rows)
    dets = {}
    # (kept prefix, later candidate columns, their reduced vectors, reduced
    #  last column, previous pivot, sign); a vector at depth t has n-t entries.
    stack = [((), tuple(range(1, len(columns) + 1)), columns, last, 1, 1)]
    while stack:
        kept, cols, vecs, last, prev, sign = stack.pop()
        more = n - 2 - len(kept)  # columns still to keep after the next one
        for pos in range(len(cols) - more):
            prefix, pivot = kept + (cols[pos],), vecs[pos]
            later = vecs[pos + 1:] if more else []
            tail, child_sign = last, sign
            if not pivot[0]:
                i = next((i for i, x in enumerate(pivot) if x), 0)
                if not i:
                    for rest in combinations(cols[pos + 1:], more):
                        dets[prefix + rest] = 0
                    continue
                pivot, tail = _swap(pivot, i), _swap(tail, i)
                later = [_swap(u, i) for u in later]
                child_sign = -sign
            tail, *later = _eliminate([tail, *later], pivot, prev)
            if more:
                stack.append((prefix, cols[pos + 1:], later, tail, pivot[0], child_sign))
            else:
                dets[prefix] = child_sign * tail[0]
    return dets


def _swap(u: Sequence[int], i: int) -> list[int]:
    """``u`` with its first and i-th entries exchanged."""
    u = list(u)
    u[0], u[i] = u[i], u[0]
    return u


def _eliminate(vectors: list[Sequence[int]], pivot: Sequence[int],
               prev: int) -> list[list[int]]:
    """One fraction-free step: each vector reduced against ``pivot`` (whose
    first entry is the pivot) and divided by the previous pivot, first entry
    dropped. A nonzero remainder raises ArithmeticError, also under
    ``python -O``."""
    p, pivot_rest = pivot[0], pivot[1:]
    reduced = []
    for u in vectors:
        f = u[0]
        row = []
        for x, y in zip(u[1:], pivot_rest):
            quot, rem = divmod(x * p - f * y, prev)
            if rem:
                raise ArithmeticError("inexact division in fraction-free elimination")
            row.append(quot)
        reduced.append(row)
    return reduced


def q_fib_det(n: int, r: int) -> int:
    """Determinant of the band submatrix in rows n..n+r-1 of ``build_P``.

    Over r = 1, 2, ... these are exactly the n-step Fibonacci numbers under
    the power seeding (1, 2, 4, ..., 2^(n-1)).
    """
    return det_bareiss(build_Q(n, r, range(n, n + r)))
