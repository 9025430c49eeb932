"""Complete elliptic integrals from one AGM, and the sided scalar helpers
behind every branch cut.

K, and F = (2/pi) K with its derivative F', come from one AGM started at the
root of the complement 1 - m; a caller that has the complement exactly
(``periods.S_closed_form``) passes it.  Beyond Re m = 1, K comes from two,
by the reciprocal-parameter identity.  F and F' are the values of the
hypergeometric equation

    z (1 - z) f'' + (1 - 2 z) f' - f / 4 = 0

at which ``monodromy`` seeds its germ transport.  Its local series and bases
are check references, and live with the tests in ``tests/oracles.py``.  This
module does not import numpy.

Branch conventions.  Cut-sensitive evaluations take a ``side`` argument
with the meaning "sign of an infinitesimal imaginary part added to the
argument"; +1 is the limit from the upper half-plane.  Sided evaluation never
guesses: landing on a cut without a declared side raises BranchCutError.
"""

from __future__ import annotations

import cmath
import math

from .core import DomainError

__all__ = [
    "BranchCutError",
    "DivergenceError",
    "elliptic_K",
]

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


class BranchCutError(DomainError):
    """Evaluation landed on a branch cut with no side declared."""


class DivergenceError(DomainError):
    """Evaluation at a logarithmic singularity (K at m = 1)."""


# ----------------------------------------------------------------------
# Elliptic integral of the first kind, parameter (not modulus) convention:
# K(m) = integral_0^1 dx / sqrt((1 - x^2)(1 - m x^2)).

def _agm(m: complex, mc: complex) -> tuple[complex, complex]:
    """K(m) and the sum s = sum_(n>=1) 2**(n - 1) c_n**2 / m from one AGM
    iteration, given m and its complement mc = 1 - m, with the
    branch-optimal square root at each step.

    K = pi / (2 M), M the limit of the means a_n, b_n of 1 and sqrt(mc)
    (DLMF 19.8.5).  With c_0**2 = m and c_(n+1) the half difference of the
    n-th pair, E = K (1 - m (1/2 + s)) (DLMF 19.8.6).  Each term of s comes
    from the last, since a_n**2 - b_n**2 = c_n**2 whichever root a step
    takes: c_(n+1) = c_n**2 / (4 a_(n+1)).  No term is a difference of
    means, so none is rounding noise, and s is exact to rounding even where
    it is of order m.  The caller forms mc: where m is near 1, 1 - m taken
    from a rounded m has lost the digits that K needs.  For real mc < 0 the
    principal square root makes both the limit from the lower half-plane
    (the m - i0 value); sided callers rely on that.  The loop stops when the
    means agree to 1e-17 or an iteration leaves them unchanged.
    """
    x = complex(1.0, 0.0)
    y = cmath.sqrt(mc)
    # c2 is c_n**2 and term is c_n**2 / m, from c_0**2 / m = 1.
    weight, c2, term, s = 0.5, complex(m), 1.0 + 0j, 0j
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
        ratio = c2 / (16.0 * x1 * x1)
        c2 *= ratio
        term *= ratio
        s += weight * term
        # Rounding can hold the means an ulp or so apart for good; every
        # later iteration would repeat this one.
        if (x1, y1) == (x, y):
            break
        x, y = x1, y1
    return math.pi / (2.0 * x), s


def _F_closed(z: complex) -> tuple[complex, complex]:
    """F(z) = (2/pi) K(z) and F'(z) from one AGM, anywhere off K's cut:

        F' = (2/pi) K (1/2 - s) / (2 (1 - z)),

    which is dK/dm = (E - (1 - m) K) / (2 m (1 - m)) (DLMF 19.4.1) with
    E - (1 - m) K = m K (1/2 - s) taken from ``_agm``'s sum, so the
    difference is never formed.  At z = 0 it gives F' = 1/4.
    """
    k, s = _agm(z, 1.0 - z)
    f = (2.0 / math.pi) * k
    return f, f * (0.5 - s) / (2.0 * (1.0 - z))


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
    gate here; the cut still needs a side.

    Where Re m > 1 (Re mc < 0), on the cut or off it, K comes from the
    reciprocal-parameter identity
    K(m) = (K(1/m) + side i K(1 - 1/m)) / sqrt(m), side the declared one on
    the cut and the sign of Im m off it.  The complements are
    1 - 1/m = -mc/m and 1/m, so none is formed by a subtraction.  One AGM
    at m loses about a digit there: 2.5e-15 against 5e-16 for the identity,
    next to the cut and at |Im m| up to 30 alike.
    """
    if _on_cut(mc):
        _check_side(side, f"K evaluated on the branch cut [1, inf) at m = {m.real}" + _SIDE_HINT)
        # At the real parts, so the sided values are exact limits.
        m, mc = complex(m.real), complex(mc.real)
    elif mc.real >= 0.0:
        return _agm(m, mc)[0]
    else:
        side = 1 if m.imag > 0.0 else -1
    k_inv = _agm(1.0 / m, -mc / m)[0]
    k_comp = _agm(-mc / m, 1.0 / m)[0]
    return (k_inv + side * 1j * k_comp) / cmath.sqrt(m)


# ----------------------------------------------------------------------
# Sided square root: the principal value off the cut (-inf, 0); on it, the
# limit from the declared side, or BranchCutError when none was declared.

def _sqrt_sided(w: complex, side: int | None = None) -> complex:
    w = complex(w)
    if not _on_cut(w):
        return cmath.sqrt(w)
    _check_side(side, f"sqrt evaluated on its branch cut (-inf, 0) at {w.real}")
    return side * 1j * math.sqrt(-w.real)
