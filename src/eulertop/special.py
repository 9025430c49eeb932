"""Elliptic integrals, the (1/2, 1/2, 1) hypergeometric basis, and the
scalar kernels behind both.

Everything here concerns the hypergeometric equation

    z (1 - z) f'' + (1 - 2 z) f' - f / 4 = 0,

whose solution space is spanned near z = 0 by F(z) = (2/pi) K(z) and the
logarithmic companion F(z) log z + Fstar(z).  ``basis_eval`` gives the bases
attached to the three singular points 0, 1, infinity as germ rows (value,
derivative), the format in which ``monodromy`` transports solutions along
paths; the errors that transport raises are defined here.  How the period
frame changes along a loop is the cut-crossing word in ``monodromy``.  This
module does not import numpy.

K and E come from one AGM started at the root of the complement 1 - m; a
caller that has the complement exactly (``periods.S_closed_form``) passes it.

Branch conventions.  Cut-sensitive evaluations take a ``side`` argument
with the meaning "sign of an infinitesimal imaginary part added to the
argument"; +1 is the limit from the upper half-plane.  Sided evaluation never
guesses: landing on a cut without a declared side raises BranchCutError.
``basis_eval`` takes no side, so on its prefactors' cuts it always raises.
"""

from __future__ import annotations

import cmath
import math

from .core import ComputationError, DomainError

__all__ = [
    "BranchCutError",
    "ContinuationStallError",
    "DivergenceError",
    "PathTooCloseError",
    "RegionError",
    "basis_eval",
    "elliptic_K",
    "gauss_ode_residual",
    "hyper_series",
]

# 4 log 2, the constant in Fstar's closed form (``_hyper_closed``) and in the
# connection formulas between the bases; never a decimal literal.
LOG16 = 4.0 * math.log(2.0)

BASIS_IDS = ("at0", "at1", "atInf")

_CUT_ATOL = 1e-14

# Appended to the cut errors of the public functions that take a side.
_SIDE_HINT = " (pass side=+1 for the limit from Im > 0, side=-1 from below)"


def _on_cut(w: complex) -> bool:
    """Whether w is on the cut (-inf, 0) of log and sqrt; every cut here is
    this one after a change of variable (K's [1, inf) is 1 - m on it)."""
    return abs(w.imag) <= _CUT_ATOL * max(1.0, abs(w)) and w.real < 0.0


def _check_side(side, where: str) -> None:
    """A declared side is +1 or -1; none at all raises BranchCutError(where)."""
    if side is None:
        raise BranchCutError(where)
    if side not in (+1, -1):
        raise ValueError(f"side must be +1 or -1, got {side!r}")


class RegionError(DomainError):
    """Argument outside the region where a series/basis is defined."""


class BranchCutError(DomainError):
    """Evaluation landed on a branch cut with no side declared."""


class DivergenceError(DomainError):
    """Evaluation at a logarithmic singularity (K at m = 1)."""


class PathTooCloseError(DomainError):
    """Continuation path passes too close to a singular point."""


class ContinuationStallError(ComputationError):
    """Continuation stepping stalled (required step below the minimum)."""


# ----------------------------------------------------------------------
# Elliptic integral of the first kind, parameter (not modulus) convention:
# K(m) = integral_0^1 dx / sqrt((1 - x^2)(1 - m x^2)).

def _agm(m: complex, mc: complex) -> tuple[complex, complex]:
    """K(m) and E(m) from one AGM iteration, given m and its complement
    mc = 1 - m, with the branch-optimal square root at each step.

    K = pi / (2 M), M the limit of the means of 1 and sqrt(mc) (DLMF
    19.8.5), and E = K (1 - sum_n 2**(n - 1) c_n**2), c_0**2 = m and
    c_(n+1) the half difference of the n-th pair of means (DLMF 19.8.6).
    The caller forms mc: where m is near 1, 1 - m taken from a rounded m
    has lost the digits that K needs.  For real mc < 0 the principal square
    root makes both the limit from the lower half-plane (the m - i0 value);
    sided callers rely on that.  The loop stops when the means agree to
    1e-17 or an iteration leaves them unchanged.
    """
    x = complex(1.0, 0.0)
    y = cmath.sqrt(mc)
    weight, csum = 0.5, 0.5 * m
    for _ in range(64):
        if abs(x - y) <= 1e-17 * abs(x):
            break
        x1 = 0.5 * (x + y)
        y1 = cmath.sqrt(x * y)
        # Choose the square-root branch that keeps the iterates close; on a
        # tie prefer Im(y1/x1) >= 0.  This is the optimal-AGM rule.
        ds, dd = abs(x1 + y1), abs(x1 - y1)
        if dd > ds or (dd == ds and (y1 / x1).imag < 0.0):
            y1 = -y1
        weight *= 2.0
        c = 0.5 * (x - y)
        # Below this, c is rounding noise that the doubling weight would
        # amplify; the true terms it drops are below 1e-20 of E.
        if abs(c) > 1e-12 * abs(x):
            csum += weight * c * c
        # Rounding can hold the means an ulp or so apart for good; every
        # later iteration would repeat this one.
        if (x1, y1) == (x, y):
            break
        x, y = x1, y1
    k = math.pi / (2.0 * x)
    return k, k * (1.0 - csum)


def elliptic_K(m: complex, side: int | None = None) -> complex:
    """Complete elliptic integral K in the parameter convention K(m**?) = ...

    Parameters
    ----------
    m : complex
        The parameter (the square of the classical modulus).
    side : {+1, -1}, optional
        Required when m lies on the cut [1, inf): selects the limit from
        Im m > 0 (+1) or Im m < 0 (-1).

    Raises
    ------
    DivergenceError
        If m = 1, where K diverges logarithmically.
    BranchCutError
        If m is on the cut and no side was given.
    """
    m = complex(m)
    # Given only m, its complement is 1 - m, which has no digits left here.
    if abs(m - 1.0) < 1e-15:
        raise DivergenceError("K(m) diverges logarithmically at m = 1")
    return _K_sided(m, 1.0 - m, side)


def _K_sided(m: complex, mc: complex, side: int | None) -> complex:
    """``elliptic_K(m, side)`` given the complement mc = 1 - m, which the
    caller forms without cancellation where m is near 1.  A nonzero mc is a
    regular point however close m rounds to 1, so there is no divergence
    gate here; the cut still needs a side."""
    if not _on_cut(mc):
        return _agm(m, mc)[0]
    _check_side(side, f"K evaluated on the branch cut [1, inf) at m = {m.real}" + _SIDE_HINT)
    # Sided values from the reciprocal-parameter identity:
    # K(m +/- i0) = (K(1/m) +/- i K(1 - 1/m)) / sqrt(m).  The complements
    # are 1 - 1/m = -mc/m and 1/m, so none is formed by a subtraction.
    x, xc = m.real, mc.real
    k_inv = _agm(1.0 / x, -xc / x)[0]
    k_comp = _agm(-xc / x, 1.0 / x)[0]
    return (k_inv + side * 1j * k_comp) / math.sqrt(x)


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


def _F_closed(z: complex) -> tuple[complex, complex, complex, complex]:
    """F = (2/pi) K(z) and F' from one AGM, on and beyond |z| = 1, with the
    K(z) and E(z) it gave: dK/dm = (E - (1 - m) K) / (2 m (1 - m)) (DLMF
    19.4.1)."""
    k, e = _agm(z, 1.0 - z)
    f = (2.0 / math.pi) * k
    fd = (2.0 / math.pi) * (e - (1.0 - z) * k) / (2.0 * z * (1.0 - z))
    return f, fd, k, e


def _hyper_closed(z: complex) -> tuple[complex, complex, complex, complex]:
    """``hyper_series``' four values from K and E, near |z| = 1:

        F = (2/pi) K(z),   Fstar = 4 log 2 F - 2 K(1 - z) - F log z,

    F and F' from ``_F_closed``, with E from the AGM that gives K (DLMF
    19.8.6).  E at 1 - z comes from Legendre's relation
    E K' + E' K - K K' = pi/2 (primes at 1 - z, DLMF 19.7.1), so it shares
    the side of K(1 - z).  On (-1, 0) K(1 - z) and log z are both on their
    cuts; Fstar is analytic there, and taking both from above gives its
    value.
    """
    f, fd, k, e = _F_closed(z)
    kc = elliptic_K(1.0 - z, side=-1)  # the side of 1 - z when z is taken from above
    lg = _log_sided(z, +1)
    ec = (0.5 * math.pi + k * kc - e * kc) / k
    fs = LOG16 * f - 2.0 * kc - f * lg
    fsd = LOG16 * fd + (ec - z * kc) / (z * (1.0 - z)) - fd * lg - f / z
    return f, fd, fs, fsd


# ----------------------------------------------------------------------
# Sided scalar helpers: principal values off the cut (-inf, 0); on it, the
# limit from the declared side, or BranchCutError when none was declared.

def _log_sided(w: complex, side: int | None = None) -> complex:
    w = complex(w)
    if not _on_cut(w):
        return cmath.log(w)
    _check_side(side, f"log evaluated on its branch cut (-inf, 0) at {w.real}")
    return math.log(-w.real) + side * 1j * math.pi


def _sqrt_sided(w: complex, side: int | None = None) -> complex:
    w = complex(w)
    if not _on_cut(w):
        return cmath.sqrt(w)
    _check_side(side, f"sqrt evaluated on its branch cut (-inf, 0) at {w.real}")
    return side * 1j * math.sqrt(-w.real)


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
    compare against it; no command calls it.
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
    bases with it; no command calls it.
    """
    z = complex(z)
    h = 2e-3 * max(1.0, abs(z))
    f0 = func(z)
    f1p, f1m = func(z + h), func(z - h)
    f2p, f2m = func(z + 2 * h), func(z - 2 * h)
    d1 = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
    d2 = (-f2p + 16.0 * f1p - 30.0 * f0 + 16.0 * f1m - f2m) / (12.0 * h * h)
    return z * (1.0 - z) * d2 + (1.0 - 2.0 * z) * d1 - f0 / 4.0
