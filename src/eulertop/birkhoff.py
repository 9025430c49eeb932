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


class PrecisionError(ValueError):
    """Requested series order is outside the supported range 0..32."""


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
    first.  The numeric shape ratio s = r^2 is carried along so the series
    can be evaluated, but the polynomials themselves are s-independent.
    """

    order: int
    polys: tuple
    s: float | None = None

    def pn(self, n: int) -> tuple:
        return self.polys[n]

    def pn_value(self, n: int, s=None):
        sval = self.s if s is None else s
        if sval is None:
            raise ValueError("no shape ratio s given")
        if isinstance(sval, Fraction):
            acc = Fraction(0)
        else:
            acc = 0.0
        for coef in reversed(self.polys[n]):
            acc = acc * sval + coef
        return acc

    def is_palindromic(self, n: int) -> bool:
        poly = self.polys[n]
        return tuple(reversed(poly)) == poly

    def roots(self, n: int):
        """The roots of P_n(s) as a numpy array; numpy is loaded only here."""
        import numpy as np

        coeffs = [float(x) for x in reversed(self.polys[n])]
        return np.roots(coeffs)

    def evaluate(self, z: complex, s=None) -> complex:
        acc = 0.0 + 0.0j
        for n in reversed(range(self.order + 1)):
            acc = acc * z + complex(self.pn_value(n, s))
        return acc

    def to_json_dict(self) -> dict:
        return {
            "n": self.order,
            "coeffs": [[str(c) for c in poly] for poly in self.polys],
        }


def birkhoff_series(s: float | Fraction | None = None, order: int = 12) -> SeriesCoefficients:
    """Exact series of the inverse Birkhoff normal form derivative.

    Parameters
    ----------
    s : float or Fraction, optional
        Shape ratio r^2 = (a - b)/(c - b); optional because the polynomials
        do not depend on it.
    order : int
        Highest Z power, from 0 up to the supported bound
        ``MAX_SERIES_ORDER`` = 32.
    """
    if not (0 <= order <= MAX_SERIES_ORDER):
        raise PrecisionError(
            f"order must be between 0 and {MAX_SERIES_ORDER}, got {order!r}"
        )
    polys = tuple(_birkhoff_poly(n) for n in range(order + 1))
    sval = None
    if s is not None:
        sval = s if isinstance(s, Fraction) else float(s)
    return SeriesCoefficients(order, polys, sval)


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
