"""Exact rational arithmetic helpers: Bernoulli data and polynomial fits.

Everything in this package is computed over the rationals, with
:class:`fractions.Fraction` as the single scalar type.  This module collects
the small amount of numerical machinery the rest of the library relies on:

* Bernoulli numbers ``B_m`` in the convention with ``B_1 = -1/2`` (the
  generating function ``t e^{xt} / (e^t - 1)``).
* Bernoulli polynomials ``B_m(x)``.
* Exact fits of samples at consecutive integers: forward differences
  give the Newton form (and a polynomial certificate, since differences
  past the degree vanish), and one cached integer table per node window
  turns it into monomials.

Every polynomial in ``r`` the library computes, from a fit, a weighting
sum or a table of Bernoulli weights, is in one format: the pair
``(nums, den)`` of integer numerators, low degree first, over one
denominator, in lowest terms (``gcd(den, *nums) == 1``, no trailing zero,
and zero as ``([0], 1)``).  :func:`interpolate` returns that pair too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from typing import Sequence

__all__ = [
    "rat_from_str",
    "rat_to_str",
    "bernoulli_number",
    "bernoulli_poly",
    "forward_differences",
    "newton_numerators",
    "interpolate",
]


def rat_from_str(s: str) -> Fraction:
    """Parse ``"p/q"`` or ``"n"`` into an exact rational; ``ValueError`` if malformed.

    ``p`` and ``n`` are ASCII digits after an optional ``-``, and ``q`` ASCII
    digits naming a nonzero number: no space, ``+``, point, exponent or ``_``.
    """
    num, slash, den = s.partition("/")
    den = den if slash else "1"
    if not all(x.isascii() and x.isdigit() for x in (num.removeprefix("-"), den)):
        raise ValueError(f"expected a rational 'p/q' or 'n', got {s!r}")
    if not int(den):
        raise ValueError(f"zero denominator in {s!r}")
    return Fraction(int(num), int(den))


def rat_to_str(x: Fraction) -> str:
    """Format a rational as ``"p/q"``, or ``"n"`` when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=None)
def bernoulli_number(m: int) -> Fraction:
    """Return the Bernoulli number ``B_m`` (convention ``B_1 = -1/2``).

    Computed by the defining recurrence ``sum_{j<=m} C(m+1, j) B_j = 0``
    with ``B_0 = 1``; all odd ``B_m`` vanish for ``m >= 3``.
    """
    if m < 0:
        raise ValueError("Bernoulli numbers are indexed by m >= 0")
    if m == 0:
        return Fraction(1)
    if m % 2 == 1 and m > 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(m):
        total += comb(m + 1, j) * bernoulli_number(j)
    return -total / (m + 1)


def bernoulli_poly(m: int, x: Fraction) -> Fraction:
    """Evaluate the Bernoulli polynomial ``B_m(x)`` at a rational point.

    ``B_m(x) = sum_j C(m, j) B_j x^{m-j}``; for example ``B_2(x)`` is
    ``x^2 - x + 1/6``.
    """
    if m < 0:
        raise ValueError("Bernoulli polynomials are indexed by m >= 0")
    x = Fraction(x)
    total = Fraction(0)
    for j in range(m + 1):
        total += comb(m, j) * bernoulli_number(j) * x ** (m - j)
    return total


def _over_common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Integers ``n_i`` and the least ``den`` with ``values[i] = n_i / den``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _lowest_terms(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """``(nums, den)`` with ``gcd(den, *nums) == 1``, no trailing zero, and zero as ``([0], 1)``."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return [0], 1
    common = gcd(den, *nums)
    return [x // common for x in nums], den // common


def forward_differences(values: Sequence) -> tuple[list[int], int]:
    """The leading forward differences ``[f(x_0), D f(x_0), D^2 f(x_0), ...]``.

    ``D f(x) = f(x + 1) - f(x)``, and ``values`` are integers or
    ``Fraction``s, ``f`` at consecutive nodes ``x_0, x_0 + 1, ...``.  They
    are put over one denominator ``den`` and only subtracted, so the work
    is integer arithmetic; returns the integer differences and ``den``.
    ``D^k f(x_0)`` vanishes for ``m <= k < len(values)`` exactly when all
    the values lie on one polynomial of degree below ``m``.
    """
    row, den = _over_common_denominator(values)
    out = []
    while row:
        out.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    return out, den


@lru_cache(maxsize=128)
def _falling_table(x0: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Columns of the integer table that turns Newton into monomial form.

    Row ``k`` holds, low degree first, the coefficients of
    ``(count-1)!/k! * (r - x0)(r - x0 - 1)...(r - x0 - k + 1)``; the table
    is returned by columns, so column ``j`` lists the ``r^j`` coefficients.
    """
    scale = factorial(count - 1)
    rows = []
    falling = [1]  # prod_{i<k} (r - x0 - i), built by convolution
    for k in range(count):
        rows.append([c * (scale // factorial(k)) for c in falling] + [0] * (count - 1 - k))
        falling = [a - (x0 + k) * b for a, b in zip([0, *falling], [*falling, 0])]
    return tuple(zip(*rows))


def newton_numerators(diffs: Sequence[int], den: int, x0: int) -> tuple[list[int], int]:
    """The polynomial ``sum_k diffs[k] / den * C(r - x0, k)`` as reduced numerators.

    ``diffs`` over ``den`` are leading forward differences at ``x0``, as
    from :func:`forward_differences`.  Each numerator is one integer dot
    product with a column of the cached table, over
    ``(len(diffs) - 1)! * den``, and the pair is put in lowest terms.
    """
    count = len(diffs)
    nums = [sum(d * t for d, t in zip(diffs, column) if d) for column in _falling_table(x0, count)]
    return _lowest_terms(nums, factorial(count - 1) * den)


def interpolate(samples: Sequence[tuple]) -> tuple[list[int], int]:
    """Exact interpolation through ``(node, value)`` samples at consecutive integers.

    The nodes must be distinct consecutive integers (integral ``Fraction``s
    count) in any order; anything else raises ``ValueError``.  Returns the
    fit as the reduced pair ``(nums, den)`` of :func:`newton_numerators`:
    for instance the samples ``(5, 4), (6, 35/6), (7, 8)`` fit
    ``(r^2 - 1)/6``, returned as ``([-1, 0, 1], 6)``.
    """
    pts = sorted((Fraction(x), Fraction(y)) for x, y in samples)
    if not pts:
        raise ValueError("interpolation needs at least one sample")
    x0 = pts[0][0]
    if any(x != x0 + i for i, (x, _) in enumerate(pts)) or x0.denominator != 1:
        raise ValueError("interpolation nodes must be distinct consecutive integers")
    return newton_numerators(*forward_differences([y for _, y in pts]), int(x0))
