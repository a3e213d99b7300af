"""Exact dense linear algebra over arbitrary-precision integers.

Matrices here are small, dense and immutable, with entries kept as Python
ints so nothing ever overflows or rounds. Every ``IntMatrix`` passes one
constructor check: its sides are exact ints >= 1 and its entries a tuple
of rows x cols exact ints (no bool, no float). No unchecked constructor
exists. Row and column indices are 1-based exact ints at every public
boundary (``IntMatrix.entry``, ``row`` and ``column`` raise ``RangeError``
otherwise). The production determinant is fraction-free (Bareiss)
elimination; ``det_laplace`` is a deliberately independent
cofactor-expansion oracle, guarded to small orders so the two evaluators
can cross-check each other.

Each input rule is checked in one place, and no bool or float passes for
an int: ``check_at_least`` for integer parameters with a lower bound,
``check_square`` for square matrices sharing one order (raising
``DimensionError``), and ``check_indices`` for strictly ascending index
lists within bounds and of a given length (raising ``SelectionError``).
Every module validates through these three.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

__all__ = [
    "LAPLACE_MAX_ORDER",
    "DimensionError",
    "SelectionError",
    "RangeError",
    "SizeGuardError",
    "check_at_least",
    "check_square",
    "check_indices",
    "IntMatrix",
    "det_bareiss",
    "det_laplace",
    "transpose",
    "reverse_columns",
    "select_columns",
    "parse_matrix",
    "format_matrix",
]

LAPLACE_MAX_ORDER = 8


class DimensionError(ValueError):
    """Matrix shape does not fit the operation (non-square, ragged, empty)."""


class SelectionError(ValueError):
    """An index list is out of range, not strictly ascending, or wrong length."""


class RangeError(ValueError):
    """An inclusive index range is empty or out of bounds."""


class SizeGuardError(ValueError):
    """Input exceeds the hard limit of a deliberately slow oracle."""


def check_at_least(least: int, **params: int) -> None:
    """Raise ValueError naming the first parameter not an exact int or below ``least``."""
    for name, value in params.items():
        if type(value) is not int:
            raise ValueError(f"parameter {name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"parameter {name} must be >= {least}, got {value}")


def check_square(what: str, *mats: IntMatrix) -> int:
    """The order shared by ``mats`` (at least one); DimensionError naming
    ``what`` if a matrix is not square or the orders differ."""
    order = mats[0].rows
    for m in mats:
        if m.rows != m.cols:
            raise DimensionError(f"{what} needs a square matrix, got {m.rows}x{m.cols}")
        if m.rows != order:
            raise DimensionError(
                f"{what} needs matrices of one order, got {order} and {m.rows}")
    return order


def check_indices(what: str, values: Iterable[int], lo: int, hi: int | None = None,
                  count: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple, checked to be exact ints, strictly ascending,
    within ``lo..hi`` (no upper bound if ``hi`` is None) and, if ``count``
    is given, exactly that many; SelectionError naming ``what`` otherwise.
    Lists are never repaired: the sign formulas depend on the given order."""
    values = tuple(values)
    if any(type(v) is not int for v in values):
        raise SelectionError(f"{what} indices must be ints: {list(values)}")
    if count is not None and len(values) != count:
        raise SelectionError(f"{what} needs exactly {count} indices, got {len(values)}")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise SelectionError(f"{what} indices must be strictly ascending: {list(values)}")
    if values and (values[0] < lo or (hi is not None and values[-1] > hi)):
        bounds = f"{lo}..{hi}" if hi is not None else f">= {lo}"
        raise SelectionError(f"{what} indices must lie in {bounds}: {list(values)}")
    return values


def _is_index(i: int, hi: int) -> bool:
    """Whether ``i`` is an exact int (no bool, no float) in 1..hi."""
    return type(i) is int and 1 <= i <= hi


class IntMatrix:
    """Dense row-major matrix of Python ints; immutable and hashable.

    ``__init__`` is the one constructor and checks every matrix. Fields can
    be neither assigned nor deleted, and a copy or an unpickled matrix is
    rebuilt through ``__init__`` (``__reduce__``), so it is checked too.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]) -> None:
        if not (type(rows) is type(cols) is int and rows >= 1 and cols >= 1):
            raise DimensionError(
                f"matrix must be at least 1x1, int by int, got {rows!r}x{cols!r}")
        if type(entries) is not tuple:
            raise DimensionError(f"entries must be a tuple, got {type(entries).__name__}")
        if len(entries) != rows * cols:
            raise DimensionError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        for e in entries:
            # Exact type: bool is an int subclass but not a matrix entry.
            if type(e) is not int:
                raise DimensionError(f"entries must be ints, got {type(e).__name__}")
        # ``__setattr__`` refuses every assignment, so the slots are set
        # through object's.
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.rows, self.cols, self.entries)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(rows={self.rows!r}, cols={self.cols!r},"
                f" entries={self.entries!r})")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows: every row must have the same length")
        return IntMatrix(len(rows), width, tuple(chain.from_iterable(rows)))

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = [list(c) for c in columns]
        if not cols:
            raise DimensionError("matrix needs at least one column")
        height = len(cols[0])
        if any(len(c) != height for c in cols):
            raise DimensionError("ragged columns: every column must have the same length")
        return IntMatrix.from_rows(list(zip(*cols)))

    @staticmethod
    def identity(order: int) -> "IntMatrix":
        return IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(order)] for i in range(order)])

    def entry(self, i: int, k: int) -> int:
        """Entry in row ``i``, column ``k`` (both 1-based exact ints)."""
        if not (_is_index(i, self.rows) and _is_index(k, self.cols)):
            raise RangeError(
                f"entry ({i!r},{k!r}) outside {self.rows}x{self.cols} matrix")
        return self.entries[(i - 1) * self.cols + (k - 1)]

    def row(self, i: int) -> tuple[int, ...]:
        """Row ``i`` (a 1-based exact int) as a tuple."""
        if not _is_index(i, self.rows):
            raise RangeError(f"row {i!r} outside 1..{self.rows}")
        base = (i - 1) * self.cols
        return self.entries[base:base + self.cols]

    def column(self, k: int) -> tuple[int, ...]:
        """Column ``k`` (a 1-based exact int) as a tuple."""
        if not _is_index(k, self.cols):
            raise RangeError(f"column {k!r} outside 1..{self.cols}")
        return self.entries[k - 1::self.cols]

    def to_rows(self) -> list[list[int]]:
        """Fresh row lists, which the caller may mutate."""
        e, c = self.entries, self.cols
        return [list(e[base:base + c]) for base in range(0, len(e), c)]

    def __str__(self) -> str:
        return format_matrix(self)


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Every intermediate value stays an integer and every division is exact;
    a nonzero remainder would indicate a bug, so it raises ArithmeticError
    (an explicit check, so it also runs under ``python -O``).
    """
    n = check_square("det_bareiss", m)
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        pivot_row = a[k]
        for i in range(k + 1, n):
            row = a[i]
            factor = row[k]
            for j in range(k + 1, n):
                quot, rem = divmod(row[j] * pivot - factor * pivot_row[j], prev)
                if rem:
                    raise ArithmeticError(
                        "inexact division in fraction-free elimination")
                row[j] = quot
            row[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_laplace(m: IntMatrix) -> int:
    """Exact determinant via cofactor expansion along the first row.

    Factorial-time oracle used to cross-check ``det_bareiss``; orders above
    ``LAPLACE_MAX_ORDER`` are rejected outright.
    """
    n = check_square("det_laplace", m)
    if n > LAPLACE_MAX_ORDER:
        raise SizeGuardError(
            f"det_laplace is a small-order oracle (max order {LAPLACE_MAX_ORDER}),"
            f" got order {n}")
    grid = m.to_rows()

    def expand(top: int, cols: tuple[int, ...]) -> int:
        if len(cols) == 1:
            return grid[top][cols[0]]
        row = grid[top]
        total = 0
        for pos, c in enumerate(cols):
            e = row[c]
            if e == 0:
                continue
            minor = expand(top + 1, cols[:pos] + cols[pos + 1:])
            total += e * minor if pos % 2 == 0 else -e * minor
        return total

    return expand(0, tuple(range(n)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_columns(m.to_rows())


def reverse_columns(m: IntMatrix) -> IntMatrix:
    """Mirror the column order; flips det by (-1)^floor(cols/2) for square m."""
    return IntMatrix.from_rows([row[::-1] for row in m.to_rows()])


def select_columns(m: IntMatrix, kept: Iterable[int]) -> IntMatrix:
    """Keep only the 1-based columns listed in ``kept`` (strictly ascending)."""
    kept = check_indices("kept column", kept, 1, m.cols)
    if not kept:
        raise SelectionError("kept column list is empty")
    return IntMatrix.from_rows(
        [[row[k - 1] for k in kept] for row in m.to_rows()])


def parse_matrix(text: str) -> IntMatrix:
    """Parse a matrix literal like ``"1 2; 0 1"``.

    Rows are separated by ';', entries by whitespace or ','. Ragged rows
    are rejected. A single trailing ';' is tolerated.
    """
    body = text.strip()
    if body.endswith(";"):
        body = body[:-1]
    rows = []
    for chunk in body.split(";"):
        parts = chunk.replace(",", " ").split()
        if not parts:
            raise DimensionError(f"empty row in matrix literal {text!r}")
        rows.append([int(p) for p in parts])
    return IntMatrix.from_rows(rows)


def format_matrix(m: IntMatrix) -> str:
    """Inverse of ``parse_matrix``: rows joined by '; ', entries by ' '."""
    return "; ".join(
        " ".join(str(e) for e in m.row(i)) for i in range(1, m.rows + 1))
