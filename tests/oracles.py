"""Check references for the hypergeometric equation, kept next to the tests
that read them; no command calls them.

Everything here concerns the hypergeometric equation

    z (1 - z) f'' + (1 - 2 z) f' - f / 4 = 0,

whose solution space is spanned near z = 0 by F(z) = (2/pi) K(z) and the
logarithmic companion F(z) log z + Fstar(z).  ``hyper_series`` sums the
local series at 0, independent of the AGM that gives the package its F and
F'.  ``basis_eval`` gives the bases attached to the three singular points
0, 1, infinity as germ rows (value, derivative), the format in which
``monodromy._transport_germs`` transports solutions along paths, and
``gauss_ode_residual`` certifies that an evaluated function solves the
equation.

``basis_eval`` takes no side, so on its prefactors' cuts it always raises
BranchCutError.
"""

from __future__ import annotations

import cmath
import math

from eulertop.core import DomainError
from eulertop.special import DivergenceError, _agm, _check_side, _F_closed, _on_cut, _sqrt_sided, elliptic_K

# 4 log 2, the constant in Fstar's closed form (``_hyper_closed``) and in the
# connection formulas between the bases; never a decimal literal.
LOG16 = 4.0 * math.log(2.0)

BASIS_IDS = ("at0", "at1", "atInf")


class RegionError(DomainError):
    """Argument outside the region where a series/basis is defined."""


# ----------------------------------------------------------------------
# Power series at z = 0.  F is the Gauss series with squared central binomial
# coefficients; Fstar is the companion entering the logarithmic solution,
#     Fstar(z) = 4 sum_{n>=1} c_n^2 h_n z^n,
# with c_n = binom(2n, n) / 4^n and h_n = 1 - 1/2 + ... - 1/(2n).

_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 4000

# hyper_series sums the series up to this |z|; beyond it, closed forms.
# At 72 angles the sums certify on every circle up to |z| = 0.9885 (and fail
# at most angles by 0.99), so inside this radius the series does not run all
# _SERIES_MAX_TERMS terms only to be replaced.
_SERIES_RADIUS = 0.985


def _certified(acc: complex, term_mag: float, q: float) -> bool:
    # Certified stop: last term below the relative floor AND the geometric
    # tail bound term * q / (1 - q) below it as well.
    floor = _SERIES_RTOL * max(abs(acc), 1e-300)
    return term_mag < floor and term_mag * q / (1.0 - q) < floor


def hyper_series(z: complex) -> tuple[complex, complex, complex, complex]:
    """F, F', Fstar, Fstar' on |z| < 1.

    F = sum c_n^2 z^n (= (2/pi) K(z)) and Fstar = 4 sum c_n^2 h_n z^n.  Up
    to |z| = 0.985 they are summed by ``_series_sums``; beyond it, where the
    series would need thousands of terms, and wherever its sums do not
    certify, ``_hyper_closed`` gives them.
    """
    z = complex(z)
    q = abs(z)
    if q >= 1.0:
        raise RegionError(f"hypergeometric series requires |z| < 1, got |z| = {q:.6g}")
    sums = _series_sums(z, q) if q <= _SERIES_RADIUS else None
    return _hyper_closed(z) if sums is None else sums


def _series_sums(z: complex, q: float) -> tuple[complex, complex, complex, complex] | None:
    """The four series at z, |z| = q, from one pass over the shared terms,
    or None if a sum has not certified within _SERIES_MAX_TERMS terms.  Each
    sum stops growing at its own certified term, so it carries exactly the
    terms it would carry if summed alone."""
    sums = [1.0 + 0.0j, 0.0j, 0.0j, 0.0j]
    live = [0, 1, 2, 3]
    cn2, hn, zprev = 1.0, 0.0, 1.0 + 0.0j
    for n in range(1, _SERIES_MAX_TERMS + 1):
        cn2 *= ((2 * n - 1) / (2 * n)) ** 2
        hn += 1.0 / (2 * n - 1) - 1.0 / (2 * n)
        zn = zprev * z
        terms = (cn2 * zn, n * cn2 * zprev, 4.0 * cn2 * hn * zn, 4.0 * n * cn2 * hn * zprev)
        for i in tuple(live):
            sums[i] += terms[i]
            if _certified(sums[i], abs(terms[i]), q):
                live.remove(i)
        if not live:
            return tuple(sums)
        zprev = zn
    return None


def _hyper_closed(z: complex) -> tuple[complex, complex, complex, complex]:
    """``hyper_series``' four values from K and E, near |z| = 1:

        F = (2/pi) K(z),   Fstar = 4 log 2 F - 2 K(1 - z) - F log z,

    F and F' from ``special._F_closed``, and E = K (1 - z (1/2 + s)) from
    the AGM that gives K and its sum s (DLMF 19.8.6).  E at 1 - z comes from
    Legendre's relation E K' + E' K - K K' = pi/2 (primes at 1 - z, DLMF
    19.7.1), so it shares the side of K(1 - z).  On (-1, 0) K(1 - z) and
    log z are both on their cuts; Fstar is analytic there, and taking both
    from above gives its value.
    """
    f, fd = _F_closed(z)
    k, s = _agm(z, 1.0 - z)
    e = k * (1.0 - z * (0.5 + s))
    kc = elliptic_K(1.0 - z, side=-1)  # the side of 1 - z when z is taken from above
    lg = _log_sided(z, +1)
    ec = (0.5 * math.pi + k * kc - e * kc) / k
    fs = LOG16 * f - 2.0 * kc - f * lg
    fsd = LOG16 * fd + (ec - z * kc) / (z * (1.0 - z)) - fd * lg - f / z
    return f, fd, fs, fsd


# ----------------------------------------------------------------------
# Sided log: the principal value off the cut (-inf, 0); on it, the limit
# from the declared side, or BranchCutError when none was declared.

def _log_sided(w: complex, side: int | None = None) -> complex:
    w = complex(w)
    if not _on_cut(w):
        return cmath.log(w)
    _check_side(side, f"log evaluated on its branch cut (-inf, 0) at {w.real}")
    return math.log(-w.real) + side * 1j * math.pi


# ----------------------------------------------------------------------
# The local bases.  Each is a holomorphic member and its logarithmic
# companion: at0 is F(z) and F(z) log z + Fstar(z), at1 the same in 1 - z,
# and atInf (F(1/z), F(1/z) log(-z) - Fstar(1/z)) over sqrt(-z).

def basis_eval(basis_id: str, z: complex) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """The local basis attached to one singular point, as germ rows
    ((f, f'), (g, g')): the holomorphic member first, then its logarithmic
    companion, each with its d/dz.  This is the germ format that
    ``monodromy._transport_germs`` takes and returns.

    Regions are strict: at0 needs |z| < 1, at1 needs |1 - z| < 1, atInf needs
    |z| > 1 with z off the ray [1, inf) (its log/sqrt prefactors are cut
    there).  Errors come in the order region, divergence, cut.

    Check reference: the germ transport's tests and acceptance criterion 11
    compare against it.
    """
    z = complex(z)
    if basis_id in ("at0", "at1"):
        # at1 is at0 in w = 1 - z, with d/dz = -d/dw.
        point, w, var = (0, z, "z") if basis_id == "at0" else (1, 1.0 - z, "1 - z")
        if abs(w) >= 1.0:
            raise RegionError(f"{basis_id} basis requires |{var}| < 1, got |{var}| = {abs(w):.6g}")
        if abs(w) < 1e-300:
            raise DivergenceError(f"the logarithmic solution at z = {point} diverges; evaluate off the puncture")
        lg = _log_sided(w)
        f, fd, fs, fsd = hyper_series(w)
        d0, d1 = fd, fd * lg + f / w + fsd
        if point:
            d0, d1 = -d0, -d1
        return (f, d0), (f * lg + fs, d1)
    if basis_id == "atInf":
        if abs(z) <= 1.0:
            raise RegionError(f"atInf basis requires |z| > 1, got |z| = {abs(z):.6g}")
        rt = _sqrt_sided(-z)
        lg = _log_sided(-z)
        w = 1.0 / z
        f, fd, fs, fsd = hyper_series(w)
        v1 = f / rt
        v2 = (f * lg - fs) / rt
        # Chain rule with w = 1/z (dw/dz = -1/z^2) and d/dz log(-z) = 1/z.
        dw = -1.0 / (z * z)
        d1 = (fd * dw) / rt - 0.5 * f / (rt * z)
        d2 = (fd * dw * lg + f / z - fsd * dw) / rt - 0.5 * (f * lg - fs) / (rt * z)
        return (v1, d1), (v2, d2)
    raise ValueError(f"basis_id must be one of {BASIS_IDS}, got {basis_id!r}")


# ----------------------------------------------------------------------
# Finite-difference residual of the defining equation, used to certify that
# evaluated functions actually solve it.

def gauss_ode_residual(func, z: complex) -> complex:
    """Residual of z(1-z) f'' + (1-2z) f' - f/4 at z for a callable f.

    Uses 4th-order centered stencils with step 2e-3 max(1, |z|), which
    balances truncation against rounding in the second difference.

    Check reference: acceptance criterion 11 certifies the three local
    bases with it.
    """
    z = complex(z)
    h = 2e-3 * max(1.0, abs(z))
    f0 = func(z)
    f1p, f1m = func(z + h), func(z - h)
    f2p, f2m = func(z + 2 * h), func(z - 2 * h)
    d1 = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
    d2 = (-f2p + 16.0 * f1p - 30.0 * f0 + 16.0 * f1m - f2m) / (12.0 * h * h)
    return z * (1.0 - z) * d2 + (1.0 - 2.0 * z) * d1 - f0 / 4.0
