"""n-step Fibonacci numbers at any integer index. Each index must be an
exact int: a bool or float index raises ValueError, never rounds.

Each term is the sum of its n predecessors. Seeds for indices 1..n come
from one of three conventions:

* ``classic``      -- 1, 1, 2, 4, ..., 2^(n-2); equivalently term 1 is 1 and
                      the n-1 terms just below index 1 are all zero.
* ``paper``        -- 1, 2, 4, ..., 2^(n-1); the classic sequence shifted
                      one index down.
* ``custom(...)``  -- caller-supplied seed values, each an exact int.

Inverting the recurrence extends every sequence to zero and negative
indices (term k = term k+n minus the n-1 terms between), which the
determinant identities need for small row offsets.

Two engines produce terms: a sliding-window iterator (exact, O(|k|)) and a
polynomial-reduction engine (exact, O(log |k|) polynomial products):
x^(k-1) modulo the characteristic polynomial x^n - x^(n-1) - ... - 1,
dotted with the seeds (Fiduccia, "An efficient formula for linear
recurrences", SIAM J. Comput. 14(1), 1985). Negative powers use the same
polynomial, because x^(-1) = x^(n-1) - x^(n-2) - ... - 1 modulo it. So
every index, negative ones too, is reached by the same jump: ``term_fast``
uses it for one term, and ``terms_range`` uses it for the first n terms of
every window, then sweeps forward. ``term_fast`` stops the jump at half
the index: term k is a quadratic form in x^((k-1)//2), which it evaluates
as at most n big squares by an exact reduction of the seeds' Hankel form,
memoized per seed tuple and parity (a bounded cache that holds no term
value). It reaches x^((k-1)//2) by squaring x^((k-1)//4); once those
coefficients are big and n >= 3, that square is taken as 2n-1 big squares
of values at fixed integer points and infinity instead of n(n+1)/2
(Toom-Cook evaluation and interpolation: one integer matrix per n,
memoized, and an exact division). The iterative ``term`` stays the
independent oracle the engine is checked against; the two must agree at
every index. At k = 10^6 on one core of a shared 2-core x86-64 VM (Python
3.11, best of 27 calls in nine processes), ``term_fast`` takes 0.043 s for
n = 2, 0.11 s for n = 3, 0.33 s for n = 6 and 0.83 s for n = 12.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterable
from functools import lru_cache
from operator import add, mul

from .exact_linalg import RangeError, check_at_least

__all__ = [
    "Convention",
    "CLASSIC",
    "PAPER_POWERS",
    "custom",
    "seed_block",
    "term",
    "sweep",
    "terms_range",
    "term_fast",
]


class Convention(namedtuple("Convention", "name seeds", defaults=(None,))):
    """Initial-value convention: which values occupy indices 1..n. ``name``
    is a str; ``seeds``, a tuple of ints, is given only for ``custom``."""

    __slots__ = ()


CLASSIC = Convention("classic")
PAPER_POWERS = Convention("paper")


def custom(seeds: Iterable[int]) -> Convention:
    """Convention with caller-supplied values for indices 1..n, each an
    exact int: a float, bool or str seed raises ValueError, never rounds."""
    seeds = tuple(seeds)
    for s in seeds:
        if type(s) is not int:
            raise ValueError(f"seeds must be ints, got {type(s).__name__}")
    if not seeds:
        raise ValueError("custom convention needs at least one seed")
    return Convention("custom", seeds)


def seed_block(n: int, conv: Convention) -> tuple[int, ...]:
    """The convention's values at indices 1..n."""
    check_at_least(2, n=n)
    if conv.name == "classic":
        return (1,) + tuple(2 ** k for k in range(n - 1))
    if conv.name == "paper":
        return tuple(2 ** k for k in range(n))
    if conv.name == "custom":
        if conv.seeds is None:
            raise ValueError("custom convention has no seeds")
        if len(conv.seeds) != n:
            raise ValueError(
                f"custom convention needs exactly {n} seeds, got {len(conv.seeds)}")
        return conv.seeds
    raise ValueError(f"unknown convention {conv.name!r}")


def _check_term_indices(*indices: int) -> None:
    if any(type(k) is not int for k in indices):
        raise ValueError(f"term indices must be ints, got {list(indices)}")


def term(n: int, conv: Convention, k: int) -> int:
    """Term ``k`` (any integer) by walking the recurrence from the seeds."""
    seeds = seed_block(n, conv)
    _check_term_indices(k)
    if 1 <= k <= n:
        return seeds[k - 1]
    if k > n:
        # Running total of the current window avoids n additions per step.
        window = deque(seeds, maxlen=n)
        total = sum(window)
        for _ in range(k - n - 1):
            val = total
            total += val - window[0]
            window.append(val)
        return total
    # k <= 0: invert the recurrence one step at a time.
    window = list(seeds)
    val = 0
    for _ in range(1 - k):
        val = window[-1] - sum(window[:-1])
        window = [val] + window[:-1]
    return val


def _times_x(c: list[int]) -> list[int]:
    """``x * c`` modulo the characteristic polynomial, by additions only:
    the overflow coefficient of x^n re-enters every position, because
    x^n = x^(n-1) + ... + x + 1."""
    top = c[-1]
    return [top] + [ci + top for ci in c[:-1]]


def _times_x_inv(c: list[int]) -> list[int]:
    """``c / x`` modulo the characteristic polynomial, by subtractions only:
    the constant coefficient leaves through x^(-1) = x^(n-1) - x^(n-2) -
    ... - 1, which follows from x^n = x^(n-1) + ... + x + 1."""
    low = c[0]
    return [ci - low for ci in c[1:]] + [low]


def _square(c: list[int]) -> list[int]:
    """``c * c`` modulo the characteristic polynomial."""
    n = len(c)
    # Big-integer squares are cheaper than products of two different
    # numbers, so each cross term 2*c_i*c_j comes from (c_i+c_j)^2 minus
    # the two squares.
    squares = [ci * ci for ci in c]
    d = [0] * (2 * n - 1)
    d[::2] = squares
    for i in range(n):
        for j in range(i + 1, n):
            both = c[i] + c[j]
            d[i + j] += both * both - squares[i] - squares[j]
    # Fold degrees 2n-2..n down, top first: degree j adds its folded value
    # to degrees j-n..j-1, so a running sum of the n folded values above
    # each position replaces n additions per degree.
    window = 0
    for j in range(2 * n - 2, -1, -1):
        d[j] += window
        if j >= n:
            window += d[j]
        if j <= n - 2:
            window -= d[j + n]
    return d[:n]


def _x_pow(n: int, e: int) -> list[int]:
    """Coefficients of x^e modulo x^n - x^(n-1) - ... - 1 (lowest degree
    first) for any integer ``e``, by left-to-right square-and-shift over the
    bits of |e|, shifting up for e > 0 and down for e < 0."""
    c = [1] + [0] * (n - 1)
    if e == 0:
        return c
    shift = _times_x if e > 0 else _times_x_inv
    # The leading bit is always 1: start from x^(+-1) rather than square 1.
    c = shift(c)
    for bit in bin(abs(e))[3:]:
        c = _square(c)
        if bit == "1":
            c = shift(c)
    return c


def sweep(window: Iterable[int], count: int) -> list[int]:
    """``window`` followed by the next ``count`` terms of the n-term
    recurrence, n being the window's length.

    The window can be any n consecutive values of the recurrence: the seeds,
    a window reached by the polynomial jump, or one row of a matrix whose
    columns are being extended. The values can be of any number type that
    adds and subtracts exactly: ints, or ``decimal.Decimal`` integers in a
    context that cannot round, as the CLI's ``seq`` uses. A running total
    of the last n terms avoids n additions per step.
    """
    values = list(window)
    total = sum(values)
    for j in range(count):
        values.append(total)
        total += total - values[j]
    return values


def _window_at(c: list[int], seeds: tuple[int, ...]) -> list[int]:
    """Terms e+1..e+n, given ``c`` = x^e modulo the characteristic polynomial.

    Term j+1 is the seed functional applied to x^j, so term e+1+j, the
    functional at x^j * c, is sum_i c_i * term(i+j+1): a dot product of c
    with terms j+1..j+n, swept forward from the seeds.
    """
    n = len(seeds)
    first = sweep(seeds, n - 1)
    return [sum(map(mul, c, first[j:j + n])) for j in range(n)]


def terms_range(n: int, conv: Convention, lo: int, hi: int) -> list[int]:
    """Terms ``lo..hi`` inclusive: the first n by polynomial reduction, the
    rest by one forward sweep."""
    _check_term_indices(lo, hi)
    if lo > hi:
        raise RangeError(f"empty index range {lo}..{hi}")
    seeds = seed_block(n, conv)  # validates n before the jump uses it
    window = _window_at(_x_pow(n, lo - 1), seeds)
    return sweep(window, hi - lo + 1 - n)[:hi - lo + 1]


def _exact_div(num: int, den: int) -> int:
    """``num / den``, which must be an exact int quotient: a remainder
    raises ArithmeticError, under ``python -O`` too."""
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("inexact division in term_fast")
    return quo


def _from_roots(roots: list[int]) -> list[int]:
    """Coefficients of prod (x - t) over ``roots``, lowest degree first."""
    poly = [1]
    for t in roots:
        poly = list(map(add, [0] + poly, [-t * a for a in poly] + [0]))
    return poly


# The plan ``(powers, rows, den)`` of ``_square_at_points``.
_SquarePlan = tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
                    tuple[tuple[int, ...], ...], int]


@lru_cache(maxsize=64)
def _square_plan(n: int) -> _SquarePlan:
    """What ``_square_at_points`` needs at order n, built once per n.

    The 2n-1 points are the consecutive integers -(n-2)..n-1, taken in the
    order 0, 1, -1, ..., n-2, -(n-2), n-1, and infinity last. ``powers``
    holds, for t = 1..n-1, the powers of t that w's even and odd
    coefficients are dotted with: w(+-t) = even +- odd. The square P = w^2,
    of degree 2n-2, is the Lagrange interpolant of its values: with F the
    product of (x - t) over the finite points t and N_j = F / (x - t_j),
    P = P(inf) * F + sum_j P(t_j) * N_j / N_j(t_j). Each |N_j(t_j)| is
    a! b! with a + b = 2n-3, since the points are consecutive, and divides
    den = (2n-3)!, so den times that basis is an integer matrix. ``rows``
    is it folded modulo the characteristic polynomial: row i dotted with the
    squared values is den times coefficient i of w^2 mod the polynomial.

    A pure function of n that holds no term value, memoized like
    ``_hankel_squares``.
    """
    finite = [0] + [s * t for t in range(1, n - 1) for s in (1, -1)] + [n - 1]
    powers = tuple((tuple(t ** i for i in range(0, n, 2)),
                    tuple(t ** i for i in range(1, n, 2))) for t in range(1, n))
    den = 1
    for i in range(2, 2 * n - 2):
        den *= i
    basis = []
    for t in finite:
        poly = _from_roots([s for s in finite if s != t])
        scale = _exact_div(den, sum(a * t ** i for i, a in enumerate(poly)))
        basis.append([scale * a for a in poly] + [0])
    basis.append([den * a for a in _from_roots(finite)])
    x_to = [[1] + [0] * (n - 1)]  # x^j modulo the characteristic polynomial
    for _ in range(2 * n - 2):
        x_to.append(_times_x(x_to[-1]))
    rows = tuple(tuple(sum(map(mul, poly, (x_j[i] for x_j in x_to))) for poly in basis)
                 for i in range(n))
    return powers, rows, den


def _square_at_points(w: list[int]) -> list[int]:
    """``w * w`` modulo the characteristic polynomial, as ``_square`` gives
    it, by 2n-1 big squares instead of n(n+1)/2 (Toom-Cook evaluation and
    interpolation): w's values at the plan's points are squared, and each
    coefficient is a row of the plan dotted with the squares, divided
    exactly by its denominator."""
    powers, rows, den = _square_plan(len(w))
    even, odd = w[::2], w[1::2]
    values = [w[0]]
    for even_powers, odd_powers in powers:
        e, o = sum(map(mul, even_powers, even)), sum(map(mul, odd_powers, odd))
        values += (e + o, e - o)
    values[-1] = w[-1]  # n-1 is taken alone, so infinity takes -(n-1)'s place
    squares = [v * v for v in values]
    return [_exact_div(sum(map(mul, row, squares)), den) for row in rows]


# The steps ``(row, prev, pivot)`` of ``_hankel_squares``.
_Steps = tuple[tuple[tuple[int, ...], int, int], ...]


@lru_cache(maxsize=256)
def _hankel_squares(seeds: tuple[int, ...], d: int) -> _Steps:
    """Steps ``(row, prev, pivot)`` that write the quadratic form of H_d, the
    n x n Hankel matrix of terms 1+d..2n-1+d, as nested squares.

    Lagrange's reduction, fraction-free as in Bareiss's elimination: for a
    vector v with pivot = v'Mv != 0 and row = Mv, pivot * c'Mc = (row.c)^2 +
    prev * c'M'c, where M' = (pivot * M - row row') / prev is again an
    integer matrix (each entry is a bordered minor of H_d) with v in its
    kernel, and prev is the pivot before (1 at the start). v is a unit
    vector at a nonzero diagonal entry of M; when the diagonal is all zero,
    v = e_i + e_j at a nonzero M_ij, the hyperbolic pair, whose pivot is
    2 * M_ij. Each step lowers the rank by one, so there are at most n
    steps; the last leaves M zero.

    A pure function of the seeds and d that holds no term value, so it is
    memoized: at n = 12 it costs hundreds of microseconds, more than a warm
    ``term_fast`` at a small k.
    """
    n = len(seeds)
    terms = sweep(seeds, n - 1 + d)[d:]
    form = [terms[i:i + n] for i in range(n)]
    steps = []
    prev = 1
    while any(map(any, form)):
        if len(steps) == n:
            raise ArithmeticError("the Hankel form did not reduce in n steps")
        a = next((i for i in range(n) if form[i][i]), None)
        if a is not None:
            pivot, row = form[a][a], form[a]
        else:
            i, j = next((i, j) for i in range(n) for j in range(i) if form[i][j])
            pivot, row = 2 * form[i][j], list(map(add, form[i], form[j]))
        form = [[_exact_div(pivot * m - ri * rj, prev) for m, rj in zip(line, row)]
                for line, ri in zip(form, row)]
        steps.append((tuple(row), prev, pivot))
        prev = pivot
    return tuple(steps)


def _hankel_value(steps: _Steps, c: list[int]) -> int:
    """c'H_d c from ``_hankel_squares``' steps, innermost first: the form
    left after each step is ((row.c)^2 + prev * rest) / pivot, one big
    square per step."""
    value = 0
    for row, prev, pivot in reversed(steps):
        dot = sum(map(mul, row, c))
        value = _exact_div(dot * dot + prev * value, pivot)
    return value


# ``_square_at_points`` saves (n-1)(n-2)/2 big squares, none at n = 2, and
# costs n(2n-1) products of a square by a plan entry. Those pay for
# themselves only once the squares are big: the two squarings break even
# at 2000-3000 bits for n = 4..12 and about 7000 bits at n = 3.
_POINTS_FROM_BITS = 3000


def term_fast(n: int, conv: Convention, k: int) -> int:
    """Term ``k`` (any integer) by polynomial reduction (Fiduccia's method).

    With u = (k-1) // 2 (floor division, so also for k < 1), d = k-1-2u
    and c = x^u mod the characteristic polynomial, x^(k-1) = c^2 x^d, so
    term k = sum_ij c_i c_j term(i+j+1+d) = c'H_d c, H_d being the Hankel
    matrix of terms 1+d..2n-1+d. The last doubling step evaluates that
    form as at most n big squares instead of a full polynomial square or
    n products of two different big numbers; the reduction behind the
    squares (``_hankel_squares``) is computed once per seed tuple and d and
    then taken from a bounded cache. The step before it, c = w^2 x^(u & 1)
    with w = x^(u >> 1), squares w at 2n-1 points (``_square_at_points``)
    once w's coefficients pass ``_POINTS_FROM_BITS`` and n >= 3, where that
    takes fewer big squares than ``_square``. Exactly equals
    ``term(n, conv, k)``; cost grows with log |k| rather than |k|
    (big-integer arithmetic aside).
    """
    seeds = seed_block(n, conv)
    _check_term_indices(k)
    u = (k - 1) // 2
    w = _x_pow(n, u >> 1)
    c = (_square_at_points(w) if n > 2 and w[-1].bit_length() > _POINTS_FROM_BITS
         else _square(w))
    if u & 1:
        c = _times_x(c)
    return _hankel_value(_hankel_squares(seeds, k - 1 - 2 * u), c)
