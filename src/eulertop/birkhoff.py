"""Exact rational series of the inverse Birkhoff normal form derivative.

With s = r^2 = (a - b)/(c - b) and Z the normalized action, the derivative
expands as C(a, b, c, l) * sum_n P_n(s) Z^n with

    P_n(s) = binom(2n, n) / 4^n * sum_{k=0..n} binom(2k, k) binom(2n-2k, n-k) s^k,

a rational polynomial of degree n.  The summand is symmetric under
k <-> n - k, so every P_n is palindromic: P_n(1/s) s^n = P_n(s).

The series is exact: it needs only Fractions and ``math.comb``, so this
module needs no numpy.  Both evaluators run one exact Horner kernel
and round at most once: ``pn_value`` gives P_n(s) as a Fraction, or rounded
to a float at a float s, and ``evaluate`` rounds the exact truncated sum.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .core import DomainError, FrozenRecord, ldexp, require_finite, require_positive, unit_exponent

__all__ = [
    "MAX_SERIES_ORDER",
    "PrecisionError",
    "SeriesCoefficients",
    "birkhoff_d_of_z",
    "birkhoff_normalization",
    "birkhoff_series",
]

MAX_SERIES_ORDER = 32


class PrecisionError(DomainError):
    """A series order, or an index n into a series, is not an int in its range."""


def _index(name: str, value, top: int) -> int:
    """``value`` if it is an int in 0..top, else PrecisionError naming it."""
    try:
        in_range = 0 <= operator.index(value) <= top
    except TypeError:
        raise PrecisionError(f"{name} must be an int, got {value!r}") from None
    if not in_range:
        raise PrecisionError(f"{name} must be between 0 and {top}, got {value!r}")
    return value


def _exact(s) -> Fraction:
    """The shape ratio s as a Fraction; DomainError where a float s is not finite."""
    return Fraction(require_finite("shape ratio s", s) if isinstance(s, float) else s)


def _birkhoff_poly(n: int) -> tuple:
    """Coefficients of P_n(s) as Fractions, constant term first."""
    scale = Fraction(math.comb(2 * n, n), 4**n)
    return tuple(
        scale * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k) for k in range(n + 1)
    )


class SeriesCoefficients(FrozenRecord):
    """Exact series data for the inverse normal-form derivative.

    ``polys[n]`` lists the Fraction coefficients of P_n(s), constant term
    first.  The polynomials do not depend on the shape ratio s = r^2, so s is
    an argument of the evaluators, not part of the series.
    """

    __slots__ = ("order", "polys")

    def pn_value(self, n: int, s):
        """P_n(s): the exact Fraction at a p/q s, and at a float s that value
        rounded once; DomainError where the rounded value is not a finite float."""
        value = self._exact_value(n, _exact(s))
        try:
            return float(value) if isinstance(s, float) else value
        except OverflowError:
            raise DomainError(f"P_{n}(s) at s = {s!r} is not a finite float; give s as p/q for exact values") from None

    def _exact_value(self, n: int, x: Fraction) -> Fraction:
        """P_n(x) by Horner's rule over ``polys[n]``: the one kernel of both evaluators."""
        acc = Fraction(0)
        for coef in reversed(self._poly(n)):
            acc = acc * x + coef
        return acc

    def _poly(self, n: int) -> tuple:
        """``polys[n]`` for an n in 0..order; PrecisionError naming any other n."""
        return self.polys[_index(f"n of the order-{self.order} series", n, self.order)]

    def is_palindromic(self, n: int) -> bool:
        poly = self._poly(n)
        return tuple(reversed(poly)) == poly

    def evaluate(self, z: complex, s) -> complex:
        """The truncated sum of P_n(s) z^n on the disc |z| < Z* = 1/(4 max(1, |s|))
        where the series converges, DomainError outside it: formed exactly at the
        exact s and z, then rounded once.  Inside the disc |P_n(s) z^n| < 1."""
        x = _exact(s)
        zstar = 1 / (4 * max(1, abs(x)))
        if not abs(z) < zstar:
            raise DomainError(f"z = {z!r} is outside the disc |z| < Z* = {float(zstar)!r} of the series at s = {s}")
        zr, zi = Fraction(complex(z).real), Fraction(complex(z).imag)
        re = im = Fraction(0)
        for n in reversed(range(self.order + 1)):
            re, im = re * zr - im * zi + self._exact_value(n, x), re * zi + im * zr
        return complex(float(re), float(im))

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "coeffs": [[str(c) for c in poly] for poly in self.polys],
        }


def birkhoff_series(order: int = 12) -> SeriesCoefficients:
    """Exact series of the inverse Birkhoff normal form derivative, through
    Z**order for an int order from 0 up to ``MAX_SERIES_ORDER`` = 32."""
    _index("order", order, MAX_SERIES_ORDER)
    return SeriesCoefficients(order, tuple(_birkhoff_poly(n) for n in range(order + 1)))


def birkhoff_normalization(a: float, b: float, c: float, l: float = 1.0) -> float:
    """Prefactor C with S(b, a, c, d(Z)) = C * sum P_n(s) Z^n.

    Valid where (b - c)(b - a) > 0, i.e. b is an extreme reciprocal; then
    C = -sqrt(2/l) / (6 sqrt((b - c)(b - a))), evaluated at unit scale.  C
    depends only on the differences of a, b, c, so their signs are free.
    """
    for name, x in (("a", a), ("b", b), ("c", c)):
        require_finite(name, x)
    require_positive("Casimir level l", l)
    k, j = unit_exponent(max(abs(a), abs(b), abs(c))), unit_exponent(l) // 2
    ua, ub, uc = (math.ldexp(x, k) for x in (a, b, c))
    rad = (ub - uc) * (ub - ua)
    if rad <= 0.0:
        raise DomainError("normalization needs (b - c)(b - a) > 0")
    return ldexp(-math.sqrt(2.0 / math.ldexp(l, 2 * j)) / (6.0 * math.sqrt(rad)), k + j,
                 lambda: f"the prefactor C at a = {a!r}, b = {b!r}, c = {c!r}, l = {l!r}")


def birkhoff_d_of_z(a: float, b: float, c: float, z: float) -> float:
    """The energy ratio d = b + 4 (a - b) Z of normalized action Z, formed
    exactly and rounded once.  Refused where c = b: there the shape ratio
    s = (a - b)/(c - b), and with it Z, is undefined."""
    for name, x in (("a", a), ("b", b), ("c", c), ("Z", z)):
        require_finite(name, x)
    if c == b:
        raise DomainError("d(Z) needs c != b: the shape ratio (a - b)/(c - b) is undefined")
    d = Fraction(b) + 4 * (Fraction(a) - Fraction(b)) * Fraction(z)
    try:
        return float(d)
    except OverflowError:
        raise DomainError(f"d(Z) is outside the float range at a = {a!r}, b = {b!r}, Z = {z!r}") from None
