"""Exact dense linear algebra over arbitrary-precision integers.

Matrices here are small, dense and immutable, with entries kept as Python
ints so nothing ever overflows or rounds. Row and column indices are
1-based at every public boundary. The production determinant is
fraction-free (Bareiss) elimination; ``det_laplace`` is a deliberately
independent cofactor-expansion oracle, guarded to small orders so the two
evaluators can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "LAPLACE_MAX_ORDER",
    "DimensionError",
    "SelectionError",
    "RangeError",
    "SizeGuardError",
    "check_at_least",
    "IntMatrix",
    "det_bareiss",
    "det_laplace",
    "transpose",
    "reverse_columns",
    "select_columns",
    "sum_columns",
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
    """Raise ValueError naming the first parameter whose value is below ``least``."""
    for name, value in params.items():
        if value < least:
            raise ValueError(f"parameter {name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class IntMatrix:
    """Dense row-major matrix of Python ints; immutable and hashable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise DimensionError(
                f"matrix must be at least 1x1, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols}"
                f" entries, got {len(self.entries)}")
        for e in self.entries:
            # Exact type: bool is an int subclass but not a matrix entry.
            if type(e) is not int:
                raise DimensionError(
                    f"entries must be ints, got {type(e).__name__}")

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        """Build without the shape and entry checks.

        Only for entries copied out of matrices that already passed them,
        in a shape the caller has fixed; outside input goes through the
        public constructors.
        """
        m = object.__new__(cls)
        m.__dict__.update(rows=rows, cols=cols, entries=entries)
        return m

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows: every row must have the same length")
        return IntMatrix(len(rows), width, tuple(e for row in rows for e in row))

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

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, k: int) -> int:
        """Entry in row ``i``, column ``k`` (both 1-based)."""
        if not (1 <= i <= self.rows and 1 <= k <= self.cols):
            raise RangeError(
                f"entry ({i},{k}) outside {self.rows}x{self.cols} matrix")
        return self.entries[(i - 1) * self.cols + (k - 1)]

    def row(self, i: int) -> tuple[int, ...]:
        """Row ``i`` (1-based) as a tuple."""
        if not 1 <= i <= self.rows:
            raise RangeError(f"row {i} outside 1..{self.rows}")
        base = (i - 1) * self.cols
        return self.entries[base:base + self.cols]

    def column(self, k: int) -> tuple[int, ...]:
        """Column ``k`` (1-based) as a tuple."""
        if not 1 <= k <= self.cols:
            raise RangeError(f"column {k} outside 1..{self.cols}")
        return self.entries[k - 1::self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(1, self.rows + 1)]

    def __str__(self) -> str:
        return format_matrix(self)


def _require_square(m: IntMatrix, what: str) -> None:
    if not m.is_square:
        raise DimensionError(f"{what} needs a square matrix, got {m.rows}x{m.cols}")


def det_bareiss(m: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination.

    Every intermediate value stays an integer and every division is exact;
    a nonzero remainder would indicate a bug, so it raises ArithmeticError
    (an explicit check, so it also runs under ``python -O``).
    """
    _require_square(m, "det_bareiss")
    n = m.rows
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
    _require_square(m, "det_laplace")
    if m.rows > LAPLACE_MAX_ORDER:
        raise SizeGuardError(
            f"det_laplace is a small-order oracle (max order {LAPLACE_MAX_ORDER}),"
            f" got order {m.rows}")
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

    return expand(0, tuple(range(m.cols)))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix.from_rows(list(zip(*m.to_rows())))


def reverse_columns(m: IntMatrix) -> IntMatrix:
    """Mirror the column order; flips det by (-1)^floor(cols/2) for square m."""
    return IntMatrix.from_rows([row[::-1] for row in m.to_rows()])


def select_columns(m: IntMatrix, kept: Iterable[int]) -> IntMatrix:
    """Keep only the 1-based columns listed in ``kept`` (strictly ascending)."""
    kept = list(kept)
    if not kept:
        raise SelectionError("kept column list is empty")
    if any(a >= b for a, b in zip(kept, kept[1:])):
        raise SelectionError(f"column indices must be strictly ascending: {kept}")
    if kept[0] < 1 or kept[-1] > m.cols:
        raise SelectionError(f"column index outside 1..{m.cols}: {kept}")
    return IntMatrix.from_rows(
        [[row[k - 1] for k in kept] for row in m.to_rows()])


def sum_columns(m: IntMatrix, lo: int, hi: int) -> tuple[int, ...]:
    """Entrywise sum of columns ``lo..hi`` inclusive (1-based)."""
    if not 1 <= lo <= hi <= m.cols:
        raise RangeError(f"column range {lo}..{hi} not within 1..{m.cols}")
    return tuple(sum(row[lo - 1:hi]) for row in m.to_rows())


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
