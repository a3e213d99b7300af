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
                           extension's columns (never the last one), a
                           deletion ``minor_selection`` validates.
* ``check_prop1``       -- the signed-minor product rule: every such minor's
                           determinant equals a sign, times the determinant
                           of the band submatrix in the deleted rows, times
                           the determinant of the original matrix.
* ``Prop1Cell``         -- the same rule for every deletion, one order n
                           and one r: P and each deletion's sign and band
                           determinant are made once, when the cell is,
                           and calling the cell on a matrix gives that
                           matrix's records, its extension and
                           determinant taken once; a batch of matrices is
                           ``map(Prop1Cell(n, r), mats)``. All minors of
                           one extension come from one fraction-free walk
                           over kept-column prefixes
                           (``_kept_minor_dets``), as a list in
                           ``combinations`` order of their kept columns,
                           which the cell pairs with its deletions by
                           position. Each minor's elimination
                           takes the last column, which every minor keeps,
                           as its first pivot, so that step is done once
                           per extension; minors that share their next
                           kept columns share those steps too, the last
                           step of each minor is done in its parent's node,
                           and each value is still the last pivot of its
                           own minor's elimination. The same walk over P's
                           columns, bordered so that each band submatrix
                           is such a minor, gives every band determinant
                           of the cell. The per-deletion ``check_prop1``
                           stays the reference it is tested against, and
                           the CLI rechecks one deletion per matrix
                           through it.

A ``Prop1Record`` stores the minor's determinant and the three factors of
the right side; ``rhs`` (their product) and ``passed`` are derived from
them.

``q_fib_det`` evaluates the band submatrix in rows n..n+r-1; over r these
determinants are exactly the n-step Fibonacci numbers with power seeding.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import combinations
from math import comb

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
    "Prop1Record",
    "minor_selection",
    "build_P",
    "build_Q",
    "extend_columns",
    "minor_by_deletion",
    "sign_from_deleted",
    "sign_from_kept",
    "check_prop1",
    "Prop1Cell",
    "q_fib_det",
]


class Prop1Record(namedtuple("Prop1Record", "n r deleted minor_value sign det_q det_a")):
    """One evaluation of the signed-minor product rule: the minor's
    determinant (left side) and the factors of the right side, all ints but
    ``deleted``, a tuple of ints."""

    __slots__ = ()

    @property
    def rhs(self) -> int:
        return self.sign * self.det_q * self.det_a

    @property
    def passed(self) -> bool:
        return self.minor_value == self.rhs


def minor_selection(n: int, r: int,
                    deleted: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate a deletion list; return it and its kept complement.

    The deleted indices must be strictly ascending, lie in 1..n+r-1 (the
    last column is never deleted) and number exactly r. The kept tuple
    holds the other n-1 columns of 1..n+r-1; column n+r is kept too.
    """
    check_at_least(2, n=n)
    check_at_least(1, r=r)
    deleted = check_indices("deleted column", deleted, 1, n + r - 1, count=r)
    return deleted, _kept(n, r, deleted)


def _kept(n: int, r: int, deleted: tuple[int, ...]) -> tuple[int, ...]:
    """The columns of 1..n+r-1 not in ``deleted``, a valid deletion."""
    gone = set(deleted)
    return tuple(k for k in range(1, n + r) if k not in gone)


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
    _, kept = minor_selection(n, r, deleted)
    return select_columns(aext, kept + (n + r,))


def sign_from_deleted(n: int, r: int, deleted: Iterable[int]) -> int:
    """Minor sign from the deleted indices: parity of nr + sum(j) + r(r-1)/2."""
    deleted, _ = minor_selection(n, r, deleted)
    return _deleted_sign(n, r, deleted)


def _deleted_sign(n: int, r: int, deleted: tuple[int, ...]) -> int:
    return -1 if (n * r + sum(deleted) + r * (r - 1) // 2) % 2 else 1


def sign_from_kept(n: int, kept: Iterable[int]) -> int:
    """Minor sign from the kept indices (the forced last column excluded):
    parity of n(n-1)/2 + sum(i)."""
    return _kept_sign(n, check_indices("kept column", kept, 1, count=n - 1))


def _kept_sign(n: int, kept: tuple[int, ...]) -> int:
    return -1 if (n * (n - 1) // 2 + sum(kept)) % 2 else 1


def _checked_sign(n: int, r: int, deleted: tuple[int, ...],
                  kept: tuple[int, ...]) -> int:
    """The minor's sign from a valid deletion, cross-checked against its
    kept complement (the last column excluded). The two formulas are
    equivalent; disagreement means a bug here, so it raises (explicitly, so
    the check survives ``python -O``)."""
    sign = _deleted_sign(n, r, deleted)
    if sign != _kept_sign(n, kept):
        raise ArithmeticError(
            f"sign formulas disagree for n={n}, r={r}, deleted={list(deleted)}")
    return sign


def check_prop1(a: IntMatrix, r: int, deleted: Iterable[int]) -> Prop1Record:
    """Evaluate both sides of the signed-minor product rule for one deletion.

    Left side: the determinant of the minor kept after deleting ``deleted``
    from the r-step extension of ``a``. Right side: sign, times det of the
    band submatrix in the deleted rows, times det ``a``. Works for singular
    ``a`` too, where both sides must be zero.
    """
    n = check_square("check_prop1", a)
    deleted, kept = minor_selection(n, r, deleted)
    minor = minor_by_deletion(extend_columns(a, r), deleted)
    minor_value = det_bareiss(minor)
    sign = _checked_sign(n, r, deleted, kept)
    det_q = det_bareiss(build_Q(n, r, deleted))
    det_a = det_bareiss(a)
    return Prop1Record(n, r, deleted, minor_value, sign, det_q, det_a)


class Prop1Cell:
    """The part of the product rule for one order n and extension length r
    that does not depend on the matrix: every deletion, in ``combinations``
    order, with its sign (cross-checked) and its det Q, all made when the
    cell is. n and r are validated there, once; the deletions come from
    ``combinations``, so none is validated again.

    Calling the cell on an n x n matrix ``a`` gives ``[check_prop1(a, r, d)
    for d in cell.deletions]``, and a matrix of another order or shape
    raises ``DimensionError``. ``a`` is extended and its determinant taken
    once. Every minor of the extension, and every det Q, is evaluated by
    fraction-free elimination of its own columns, shared between minors only
    where their kept columns agree (``_kept_minor_dets``: one walk per
    extension, and one per cell over P's transpose bordered by a zero column
    and a last row e_(n+r)), never derived from the rule it checks; each
    kept-column prefix reduces its later candidates once, and the last
    step of every minor is done in its parent's node. ``det_bareiss`` takes
    only det(a). Each walk's values come in ``combinations`` order of their
    kept columns and are paired with the deletions by position: det Q's keep
    the deleted rows, so they come in the deletions' order, and the minors
    keep the complements, which come in reverse order. A walk that gives
    more or fewer values than the cell has deletions raises
    ``ArithmeticError``. The kept columns, also from ``combinations`` in
    reverse order, only cross-check each deletion's sign. So a batch of
    matrices is ``map(cell, mats)``, and a caller can make each matrix just
    before it is checked.
    """

    __slots__ = ("n", "r", "deletions", "_parts")

    def __init__(self, n: int, r: int):
        check_at_least(2, n=n)
        check_at_least(1, r=r)
        self.n, self.r = n, r
        self.deletions = tuple(combinations(range(1, n + r), r))
        # The walk's rows are P's columns, each followed by a 0, then
        # e_(n+r). Its minor that keeps columns d and the last is
        # [[Q^T, 0], [0, 1]] for Q = P's rows d, so its determinant is det Q.
        p = build_P(n, r)
        det_qs = self._walk([[*p.column(j), 0] for j in range(1, r + 1)]
                            + [[0] * (n + r - 1) + [1]])
        # (deleted, sign, det Q) per deletion. The complements of the
        # deletions, in lexicographic order, are the (n-1)-subsets in
        # reverse lexicographic order.
        kepts = reversed(tuple(combinations(range(1, n + r), n - 1)))
        self._parts = [(deleted, _checked_sign(n, r, deleted, kept), det_q)
                       for deleted, kept, det_q in zip(self.deletions, kepts, det_qs)]

    def __call__(self, a: IntMatrix) -> list[Prop1Record]:
        n, r = self.n, self.r
        if check_square("Prop1Cell", a) != n:
            raise DimensionError(
                f"this cell needs an order-{n} matrix, got {a.rows}x{a.cols}")
        minors = reversed(self._walk(extend_columns(a, r).to_rows()))
        det_a = det_bareiss(a)
        return [Prop1Record(n, r, deleted, minor, sign, det_q, det_a)
                for (deleted, sign, det_q), minor in zip(self._parts, minors)]

    def _walk(self, rows: list[list[int]]) -> list[int]:
        """``_kept_minor_dets(rows)``, checked to hold one value per deletion."""
        dets = _kept_minor_dets(rows)
        if len(dets) == len(self.deletions):
            return dets
        raise ArithmeticError(f"a walk gave {len(dets)} values for {len(self.deletions)} deletions")


def _kept_minor_dets(ext_rows: list[list[int]]) -> list[int]:
    """The determinant of every n x n minor of an n x m matrix that keeps
    its last column, in lexicographic order of its other n-1 kept columns:
    the order of ``combinations(range(1, m), n - 1)``. ``Prop1Cell`` passes
    it each n x (n+r) extension, and for det Q the (r+1) x (n+r) transpose
    of P bordered by a zero column and a last row e_(n+r).

    A minor's transpose has the kept columns as its rows. Moving the last
    column's row to the top takes n-1 row interchanges, so the minor is
    (-1)^(n-1) times the determinant of the rows: last column, then the
    other kept columns in order. Fraction-free (Bareiss) elimination of that
    matrix uses only its first t rows in its first t steps, and the first is
    the same for every minor. So one depth-first walk over kept-column
    prefixes does every minor's elimination: the root reduces every other
    column against the last one, and each node takes its newest kept column
    as the pivot and reduces the later candidate columns once against it.
    A node that has two columns left to keep also does each child's step
    in place: a child's pivot vector (a, b) and each later candidate (f, x)
    give (x*a - f*b) / p, p this node's pivot, so the nodes of the last
    level are never made. That value, times the sign, is the minor's
    determinant, the last pivot of its own elimination (at n = 2 the root's
    candidates hold it). A zero pivot swaps the same two coordinates in
    every vector of the subtree, which is one row interchange of each of its
    minors, and flips their sign; a reduced pivot vector that is all zero
    makes every minor below it 0. Every division checks its remainder. The
    walk keeps an explicit stack, so its depth is not bounded by the
    recursion limit. A node's minors are the ones that share its kept
    prefix, so they are contiguous in the order; it pushes its children in
    reverse so that they pop, and append their minors, in order.
    """
    n = len(ext_rows)
    *columns, last = zip(*ext_rows)
    dets = []
    # (later candidate columns' vectors, the pivot vector they are reduced
    #  against next, previous pivot, sign, columns still to keep after the
    #  next one); the vectors of an entry with t kept columns have n-t
    #  entries.
    stack = [(columns, last, 1, (-1) ** (n - 1), n - 2)]
    while stack:
        vecs, pivot, prev, sign, more = stack.pop()
        if not pivot[0]:
            i = next((i for i, x in enumerate(pivot) if x), 0)
            if not i:
                dets += [0] * comb(len(vecs), more + 1)
                continue
            pivot, vecs, sign = _swap(pivot, i), [_swap(u, i) for u in vecs], -sign
        vecs = _eliminate(vecs, pivot, prev)
        if not more:
            dets += [sign * u[0] for u in vecs]
            continue
        if more == 1:
            # Each child's one step, done here: its pivot vector (a, b) and
            # each later candidate (f, x), both reduced against this node's
            # pivot p, give the minor (x*a - f*b) / p.
            p = pivot[0]
            for pos, (a, b) in enumerate(vecs[:-1]):
                later, s = vecs[pos + 1:], sign
                if not a:
                    if not b:
                        dets += [0] * len(later)
                        continue
                    a, b, s = b, 0, -sign
                    later = ((x, f) for f, x in later)
                for f, x in later:
                    quot, rem = divmod(x * a - f * b, p)
                    if rem:
                        raise ArithmeticError(
                            "inexact division in fraction-free elimination")
                    dets.append(s * quot)
            continue
        for pos in reversed(range(len(vecs) - more)):
            stack.append((vecs[pos + 1:], vecs[pos], pivot[0], sign, more - 1))
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
