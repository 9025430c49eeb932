"""Exact rational series of the inverse Birkhoff normal form derivative.

With s = r^2 = (a - b)/(c - b) and Z the normalized action, the derivative
expands as C(a, b, c, l) * sum_n P_n(s) Z^n with

    P_n(s) = binom(2n, n) / 4^n * sum_{k=0..n} binom(2k, k) binom(2n-2k, n-k) s^k,

a rational polynomial of degree n.  The summand is symmetric under
k <-> n - k, so every P_n is palindromic: P_n(1/s) s^n = P_n(s).

The series is exact: it needs only Fractions and ``math.comb``, so this
module does not import numpy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .core import DomainError, ldexp, unit_exponent

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
    """Requested series order is not an int in the supported range 0..32."""


def _birkhoff_poly(n: int) -> tuple:
    """Coefficients of P_n(s) as Fractions, constant term first."""
    scale = Fraction(math.comb(2 * n, n), 4**n)
    return tuple(
        scale * math.comb(2 * k, k) * math.comb(2 * n - 2 * k, n - k) for k in range(n + 1)
    )


@dataclass(frozen=True)
class SeriesCoefficients:
    """Exact series data for the inverse normal-form derivative.

    ``polys[n]`` lists the Fraction coefficients of P_n(s), constant term
    first.  The polynomials do not depend on the shape ratio s = r^2, so s is
    an argument of the evaluators, not part of the series.
    """

    order: int
    polys: tuple

    def pn_value(self, n: int, s):
        """P_n(s): a Fraction at a Fraction s, a float at a float s; DomainError
        where the float value is not finite."""
        acc = self._scaled_value(n, s, 1)
        if not abs(acc) < math.inf:
            raise DomainError(f"P_{n}(s) at s = {s!r} is not a finite float; give s as p/q for exact values")
        return acc

    def _scaled_value(self, n: int, s, half):
        """P_n(s) half**n by Horner's rule in s half, exact for a power of two."""
        acc, u = 0 * s, s * half
        for j, coef in enumerate(reversed(self.polys[n])):
            acc = acc * u + coef * half**j
        return acc

    def is_palindromic(self, n: int) -> bool:
        poly = self.polys[n]
        return tuple(reversed(poly)) == poly

    def roots(self, n: int):
        """The roots of P_n(s) as a numpy array; numpy is loaded only here."""
        import numpy as np

        coeffs = [float(x) for x in reversed(self.polys[n])]
        return np.roots(coeffs)

    def evaluate(self, z: complex, s) -> complex:
        """The truncated sum of P_n(s) z^n, on the disc |z| < Z* = 1/(4 max(1, |s|))
        where the series converges; DomainError outside it.  It sums P_n(s) / 2**(e n)
        in 2**e z, 2**e >= max(1, |s|) from the bit lengths of |s| = p/q: since
        |P_n(s)| <= 4**n max(1, |s|)**n nothing overflows, and e = 0 is the plain sum."""
        zstar = 1 / (4 * max(1, abs(s)))
        if not abs(z) < zstar:
            raise DomainError(f"z = {z!r} is outside the disc |z| < Z* = {float(zstar)!r} of the series at s = {s}")
        p, q = abs(s).as_integer_ratio()
        e = max(0, p.bit_length() - q.bit_length() + 1)
        half, w = Fraction(1, 2**e), ldexp(z, e)
        acc = 0.0 + 0.0j
        for n in reversed(range(self.order + 1)):
            acc = acc * w + complex(self._scaled_value(n, s, half))
        return acc

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "coeffs": [[str(c) for c in poly] for poly in self.polys],
        }


def birkhoff_series(order: int = 12) -> SeriesCoefficients:
    """Exact series of the inverse Birkhoff normal form derivative, through
    Z**order for an int order from 0 up to ``MAX_SERIES_ORDER`` = 32."""
    try:
        in_range = 0 <= operator.index(order) <= MAX_SERIES_ORDER
    except TypeError:
        raise PrecisionError(f"order must be an int, got {order!r}") from None
    if not in_range:
        raise PrecisionError(f"order must be between 0 and {MAX_SERIES_ORDER}, got {order!r}")
    return SeriesCoefficients(order, tuple(_birkhoff_poly(n) for n in range(order + 1)))


def birkhoff_normalization(a: float, b: float, c: float, l: float = 1.0) -> float:
    """Prefactor C with S(b, a, c, d(Z)) = C * sum P_n(s) Z^n.

    Valid where (b - c)(b - a) > 0, i.e. b is an extreme reciprocal; then
    C = -sqrt(2/l) / (6 sqrt((b - c)(b - a))), evaluated at unit scale.
    """
    k, j = unit_exponent(max(abs(a), abs(b), abs(c))), unit_exponent(l) // 2
    a, b, c = (math.ldexp(x, k) for x in (a, b, c))
    rad = (b - c) * (b - a)
    if rad <= 0.0:
        raise DomainError("normalization needs (b - c)(b - a) > 0")
    return ldexp(-math.sqrt(2.0 / math.ldexp(l, 2 * j)) / (6.0 * math.sqrt(rad)), k + j)


def birkhoff_d_of_z(a: float, b: float, c: float, z: float) -> float:
    """The energy ratio d corresponding to normalized action Z."""
    s = (a - b) / (c - b)
    return b + 4.0 * s * (c - b) * z
