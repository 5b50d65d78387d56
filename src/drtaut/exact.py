"""Exact rational arithmetic helpers: Bernoulli data and polynomial interpolation.

Everything in this package is computed over the rationals, with
:class:`fractions.Fraction` as the single scalar type.  This module collects
the small amount of numerical machinery the rest of the library relies on:

* Bernoulli numbers ``B_m`` in the convention with ``B_1 = -1/2`` (the
  generating function ``t e^{xt} / (e^t - 1)``).
* Bernoulli polynomials ``B_m(x)``.
* Exact Lagrange interpolation of rational samples, producing an
  :class:`RPoly`, with one basis per node window shared by all its fits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Sequence

__all__ = [
    "Rational",
    "rat_from_str",
    "rat_to_str",
    "bernoulli_number",
    "bernoulli_poly",
    "RPoly",
    "interpolate",
]

Rational = Fraction


def rat_from_str(s: str) -> Fraction:
    """Parse ``"p/q"`` or ``"n"`` into an exact rational; ``ValueError`` if malformed."""
    try:
        return Fraction(s.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


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


class RPoly:
    """A polynomial in ``r`` with ``Fraction`` coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        cs = list(coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs or [Fraction(0)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if any(self.coeffs) else -1

    def __call__(self, r) -> Fraction:
        """Evaluate at ``r`` by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * r + c
        return acc

    def coefficient(self, j: int) -> Fraction:
        return self.coeffs[j] if j < len(self.coeffs) else Fraction(0)

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def divisible_by(self, b: int) -> bool:
        """True when ``r^b`` divides this polynomial."""
        return not any(self.coeffs[:b])

    def shift_down(self, b: int) -> "RPoly":
        """Divide by ``r^b``; requires the first ``b`` coefficients to vanish."""
        if not self.divisible_by(b):
            raise ValueError(f"polynomial is not divisible by r^{b}")
        return RPoly(self.coeffs[b:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RPoly({list(self.coeffs)!r})"

    def pretty(self) -> str:
        if self.degree < 0:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(rat_to_str(c))
            elif j == 1:
                parts.append(f"{rat_to_str(c)}*r")
            else:
                parts.append(f"{rat_to_str(c)}*r^{j}")
        return " + ".join(parts)


@lru_cache(maxsize=128)
def _lagrange_basis(nodes: tuple[Fraction, ...]) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient rows of the Lagrange basis on distinct ``nodes``.

    Row ``i`` holds, low degree first, the coefficients of
    ``prod_{j != i} (X - x_j) / (x_i - x_j)``, the polynomial that is 1 at
    ``x_i`` and 0 at every other node.
    """
    rows = []
    for i, xi in enumerate(nodes):
        others = nodes[:i] + nodes[i + 1 :]
        num = [Fraction(1)]  # prod_{j != i} (X - x_j), built by convolution
        for xj in others:
            num = [a - xj * b for a, b in zip([0, *num], [*num, 0])]
        denom = prod(xi - xj for xj in others)
        rows.append(tuple(c / denom for c in num))
    return tuple(rows)


def interpolate(samples: Sequence[tuple]) -> RPoly:
    """Exact Lagrange interpolation through rational ``(node, value)`` samples.

    Nodes must be distinct; a repeated node raises ``ValueError``.  For
    instance the samples ``(5, 4), (6, 35/6), (7, 8)`` fit the polynomial
    ``(r^2 - 1)/6``.  With the basis cached per node window, a fit costs
    ``O(n^2)`` products.
    """
    pts = [(Fraction(x), Fraction(y)) for x, y in samples]
    if not pts:
        raise ValueError("interpolation needs at least one sample")
    nodes = tuple(x for x, _ in pts)
    if len(set(nodes)) != len(nodes):
        raise ValueError("interpolation nodes must be distinct")
    terms = [(y, row) for (_, y), row in zip(pts, _lagrange_basis(nodes)) if y]
    return RPoly([sum((y * row[t] for y, row in terms), Fraction(0)) for t in range(len(nodes))])
