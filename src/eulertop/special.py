"""Elliptic integrals, the (1/2, 1/2, 1) hypergeometric basis, and analytic
continuation of solution frames.

Everything here concerns the hypergeometric equation

    z (1 - z) f'' + (1 - 2 z) f' - f / 4 = 0,

whose solution space is spanned near z = 0 by F(z) = (2/pi) K(z) and the
logarithmic companion F(z) log z + Fstar(z).  Bases attached to the three
singular points 0, 1, infinity are provided, together with the exact
connection matrices between them and a branch-aware continuation engine that
transports value/derivative germs along paths in the z plane.  A path is a
1-D array of points, followed as a polyline; its winding is read from the
points.

Branch conventions.  All cut-sensitive evaluations take a ``side`` argument
with the meaning "sign of an infinitesimal imaginary part added to the
argument"; +1 is the limit from the upper half-plane.  Sided evaluation never
guesses: landing on a cut without a declared side raises BranchCutError.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError

__all__ = [
    "BranchCutError",
    "ConnectionMatrix",
    "ContinuationStallError",
    "DivergenceError",
    "PathTooCloseError",
    "RegionError",
    "SolutionFrame",
    "basis_eval",
    "connection",
    "continue_frame",
    "elliptic_K",
    "gauss_ode_residual",
    "hyper_series",
    "phi_value",
]

# Exact entry of the connection matrices; 4 log 2, never a decimal literal.
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


class PathTooCloseError(ValueError):
    """Continuation path passes too close to a singular point."""


class ContinuationStallError(RuntimeError):
    """Continuation stepping stalled (required step below the minimum)."""


# ----------------------------------------------------------------------
# Elliptic integral of the first kind, parameter (not modulus) convention:
# K(m) = integral_0^1 dx / sqrt((1 - x^2)(1 - m x^2)).

def _agm_K(m: complex) -> complex:
    """AGM iteration with the branch-optimal square root at each step.

    For real m > 1 the principal square root of 1 - m makes this the limit
    from the lower half-plane (the m - i0 value); sided callers rely on that.
    """
    x = complex(1.0, 0.0)
    y = cmath.sqrt(1.0 - m)
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
        x, y = x1, y1
    return math.pi / (2.0 * x)


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
    if abs(m - 1.0) < 1e-15:
        raise DivergenceError("K(m) diverges logarithmically at m = 1")
    if not _on_cut(1.0 - m):
        return _agm_K(m)
    _check_side(side, f"K evaluated on the branch cut [1, inf) at m = {m.real}" + _SIDE_HINT)
    # Sided values from the reciprocal-parameter identity:
    # K(m +/- i0) = (K(1/m) +/- i K(1 - 1/m)) / sqrt(m).
    x = m.real
    k_inv = _agm_K(1.0 / x)
    k_comp = _agm_K(1.0 - 1.0 / x)
    return (k_inv + side * 1j * k_comp) / math.sqrt(x)


# ----------------------------------------------------------------------
# Power series at z = 0.  F is the Gauss series with squared central binomial
# coefficients; Fstar is the companion entering the logarithmic solution,
#     Fstar(z) = 4 sum_{n>=1} c_n^2 h_n z^n,
# with c_n = binom(2n, n) / 4^n and h_n = 1 - 1/2 + ... - 1/(2n).

_SERIES_RTOL = 1e-17
_SERIES_MAX_TERMS = 4000


def _certified(acc: complex, term_mag: float, q: float) -> bool:
    # Certified stop: last term below the relative floor AND the geometric
    # tail bound term * q / (1 - q) below it as well.
    floor = _SERIES_RTOL * max(abs(acc), 1e-300)
    return term_mag < floor and term_mag * q / (1.0 - q) < floor


def hyper_series(z: complex) -> tuple[complex, complex, complex, complex]:
    """F, F', Fstar, Fstar' on |z| < 1 from one pass over the shared terms.

    F = sum c_n^2 z^n (= (2/pi) K(z)) and Fstar = 4 sum c_n^2 h_n z^n.  Each
    of the four sums stops growing at its own certified term, so it carries
    exactly the terms it would carry if summed alone.
    """
    z = complex(z)
    q = abs(z)
    if q >= 1.0:
        raise RegionError(f"hypergeometric series requires |z| < 1, got |z| = {q:.6g}")
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
    raise RegionError(f"hypergeometric series did not certify convergence at |z| = {q:.6g}")


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
# The six named solutions.  phi1, phi3, phi5 are the holomorphic members of
# the three local bases; phi2s, phi4s, phi6s their logarithmic companions
# (the trailing s marks the starred normalization).

PHI_NAMES = ("phi1", "phi2s", "phi3", "phi4s", "phi5", "phi6s")

# Each logarithmic companion is the second member of one local basis.
_COMPANION_BASIS = {"phi2s": "at0", "phi4s": "at1", "phi6s": "atInf"}


def phi_value(name: str, z: complex, side: int = +1) -> complex:
    """Globally continued value of one of the six named solutions.

    ``side`` is the sign of an infinitesimal imaginary part added to z; it
    resolves every branch cut the evaluation crosses (the cuts of the three
    holomorphic members jointly cover the real axis outside (0, 1)).
    The logarithmic companions are only provided inside their series disc.

    Oracle pair: the holomorphic members come from the global K (the AGM),
    the companions from ``_local_frame``'s local series.  The two share no
    code, so the connection formulas between them check each other.
    """
    z = complex(z)
    _check_side(side, "phi_value needs a side" + _SIDE_HINT)
    if name == "phi1":
        return (2.0 / math.pi) * elliptic_K(z, side=side)
    if name == "phi3":
        # Im(1 - z) = -Im z, so the side flips.
        return (2.0 / math.pi) * elliptic_K(1.0 - z, side=-side)
    if name == "phi5":
        if abs(z) < 1e-15:
            raise RegionError("phi5 is singular at z = 0")
        # Both 1/z and -z acquire the opposite infinitesimal side.
        return (2.0 / math.pi) * elliptic_K(1.0 / z, side=-side) / _sqrt_sided(-z, -side)
    if name in _COMPANION_BASIS:
        return _local_frame(_COMPANION_BASIS[name], z, side).values[1]
    raise ValueError(f"unknown solution name {name!r}, expected one of {PHI_NAMES}")


# ----------------------------------------------------------------------
# Solution frames and basis evaluation.

@dataclass(frozen=True)
class SolutionFrame:
    """A pair of solution values (with derivative germs) at a base point.

    Attributes
    ----------
    basis_id : str
        One of "at0", "at1", "atInf".
    values : tuple of complex
        Values of the two basis solutions at ``base_point``.
    base_point : complex
    derivs : tuple of complex
        d/dz values at the base point; carried so frames can seed continuation.
    branch_log : dict
        Accumulated winding (in turns) of z around 0 and around 1 along
        whatever path produced this frame.
    """

    basis_id: str
    values: tuple[complex, complex]
    base_point: complex
    derivs: tuple[complex, complex] = (0.0j, 0.0j)
    branch_log: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis_id not in BASIS_IDS:
            raise ValueError(f"basis_id must be one of {BASIS_IDS}, got {self.basis_id!r}")


def basis_eval(basis_id: str, z: complex) -> SolutionFrame:
    """Evaluate the local basis attached to one singular point.

    Regions are strict: at0 needs |z| < 1, at1 needs |1 - z| < 1, atInf needs
    |z| > 1 with z off the ray [1, inf) (its log/sqrt prefactors are cut
    there).
    """
    return _local_frame(basis_id, z, None)


def _local_frame(basis_id: str, z: complex, side: int | None) -> SolutionFrame:
    """``basis_eval`` with the prefactors' cut resolved by ``side``; the one
    caller of the series.  Errors come in the order region, divergence, cut.
    The local-series side of the oracle pair with ``phi_value``'s global K."""
    z = complex(z)
    # Im(1 - z) = Im(-z) = -Im z: the prefactors of at1 and atInf take the
    # opposite side.
    flip = None if side is None else -side
    if basis_id == "at0":
        if abs(z) >= 1.0:
            raise RegionError(f"at0 basis requires |z| < 1, got |z| = {abs(z):.6g}")
        if abs(z) < 1e-300:
            raise DivergenceError("the logarithmic solution at z = 0 diverges; evaluate off the puncture")
        lg = _log_sided(z, side)
        f, fd, fs, fsd = hyper_series(z)
        return SolutionFrame(
            "at0",
            (f, f * lg + fs),
            z,
            (fd, fd * lg + f / z + fsd),
            {"around0": 0.0, "around1": 0.0},
        )
    if basis_id == "at1":
        w = 1.0 - z
        if abs(w) >= 1.0:
            raise RegionError(f"at1 basis requires |1 - z| < 1, got {abs(w):.6g}")
        if abs(w) < 1e-300:
            raise DivergenceError("the logarithmic solution at z = 1 diverges; evaluate off the puncture")
        lg = _log_sided(w, flip)
        f, fd, fs, fsd = hyper_series(w)
        # d/dz = -d/dw throughout.
        return SolutionFrame(
            "at1",
            (f, f * lg + fs),
            z,
            (-fd, -(fd * lg + f / w + fsd)),
            {"around0": 0.0, "around1": 0.0},
        )
    if basis_id == "atInf":
        if abs(z) <= 1.0:
            raise RegionError(f"atInf basis requires |z| > 1, got |z| = {abs(z):.6g}")
        rt = _sqrt_sided(-z, flip)
        lg = _log_sided(-z, flip)
        w = 1.0 / z
        f, fd, fs, fsd = hyper_series(w)
        v1 = f / rt
        v2 = (f * lg - fs) / rt
        # Chain rule with w = 1/z (dw/dz = -1/z^2) and d/dz log(-z) = 1/z.
        dw = -1.0 / (z * z)
        d1 = (fd * dw) / rt - 0.5 * f / (rt * z)
        d2 = (fd * dw * lg + f / z - fsd * dw) / rt - 0.5 * (f * lg - fs) / (rt * z)
        return SolutionFrame(
            "atInf", (v1, v2), z, (d1, d2), {"around0": 0.0, "around1": 0.0}
        )
    raise ValueError(f"basis_id must be one of {BASIS_IDS}, got {basis_id!r}")


# ----------------------------------------------------------------------
# Exact connection matrices.  connection(x, y).matrix expresses the basis of
# x as combinations of the basis of y: values_x = M @ values_y, valid where
# both bases are defined (atInf blocks use the upper half-plane sheet).

@dataclass(frozen=True)
class ConnectionMatrix:
    matrix: np.ndarray
    from_basis: str
    to_basis: str


def _conn_block(from_basis: str, to_basis: str) -> np.ndarray:
    L = LOG16
    if from_basis == to_basis:
        return np.eye(2, dtype=complex)
    if (from_basis, to_basis) == ("at0", "at1"):
        return np.array(
            [[L / math.pi, -1.0 / math.pi],
             [(L * L - math.pi ** 2) / math.pi, -L / math.pi]],
            dtype=complex,
        )
    if (from_basis, to_basis) == ("at0", "atInf"):
        return np.array(
            [[L / math.pi, 1.0 / math.pi],
             [(L * (L + 1j * math.pi) - math.pi ** 2) / math.pi, (L + 1j * math.pi) / math.pi]],
            dtype=complex,
        )
    if (from_basis, to_basis) == ("at1", "at0"):
        return np.linalg.inv(_conn_block("at0", "at1"))
    if (from_basis, to_basis) == ("atInf", "at0"):
        return np.linalg.inv(_conn_block("at0", "atInf"))
    if (from_basis, to_basis) == ("at1", "atInf"):
        return _conn_block("at1", "at0") @ _conn_block("at0", "atInf")
    if (from_basis, to_basis) == ("atInf", "at1"):
        return _conn_block("atInf", "at0") @ _conn_block("at0", "at1")
    raise ValueError(f"no connection between {from_basis!r} and {to_basis!r}")


def connection(from_basis: str, to_basis: str) -> ConnectionMatrix:
    """Exact connection matrix between two of the local bases.

    The matrix satisfies values_from = matrix @ values_to pointwise in the
    common domain of the two bases; entries are exact in pi and log 16.
    Blocks involving atInf are the upper half-plane (Im z > 0) sheet; the
    lower sheet is the complex conjugate.
    """
    for b in (from_basis, to_basis):
        if b not in BASIS_IDS:
            raise ValueError(f"connection is defined between at0/at1/atInf, got {b!r}")
    return ConnectionMatrix(_conn_block(from_basis, to_basis), from_basis, to_basis)


# ----------------------------------------------------------------------
# Germ transport.  A germ is a (value, derivative) pair of one solution at an
# ordinary point.  The equation is linear, so one Taylor step from z0 to
# z0 + h maps every germ by the same 2x2 transition matrix; a path is the
# ordered product of its steps' matrices.

# Taylor terms per step.  Steps are at most 0.35 of the distance to the
# nearest singular point, so the truncated tail is below 0.35**64 relative.
_TAYLOR_TERMS = 64

# Steps whose matrices are built together; bounds the kernel's memory
# (about 6 MB) however long the path is.
_STEP_BLOCK = 2048

# A Taylor step reaches at most this share of the distance to 0 or 1.
_STEP_FRACTION = 0.35

# continue_frame refuses a path within 10 * _FRAME_MIN_STEP of a singular
# point and takes no Taylor step below it.
_FRAME_MIN_STEP = 1e-6


def _step_matrices(z0: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Transition matrices of the Taylor steps z0[k] -> z0[k] + h[k].

    Returns shape (2, 2, N): column j of step k is the (value, derivative)
    germ at z0[k] + h[k] of the solution whose germ at z0[k] is the unit
    vector e_j.  Both unit germs run through the Taylor recurrence of the
    equation together, for all steps at once, and each sum adds its terms
    smallest first (n = 63 down to 0).

    The coefficients a_n grow like dist**-n, so they are carried as a_n r**n
    and the powers as (h / r)**n, with r the power of two just above |h|.
    Scaling by a power of two is exact, so the terms a_n h**n come out as if
    unscaled, but neither factor overflows or underflows near 0 or 1.
    """
    z0 = np.asarray(z0, dtype=complex)
    h = np.asarray(h, dtype=complex)
    r = np.ldexp(1.0, np.frexp(np.abs(h))[1])
    s = z0 * (1.0 - z0)
    t = 1.0 - 2.0 * z0
    a = np.zeros((_TAYLOR_TERMS, 2, len(z0)), dtype=complex)
    a[0, 0] = 1.0
    a[1, 1] = r
    for n in range(_TAYLOR_TERMS - 2):
        a[n + 2] = ((n + 0.5) ** 2 * (r * r * a[n]) - t * (n + 1) ** 2 * (r * a[n + 1])) / (s * (n + 2) * (n + 1))
    powers = (h / r) ** np.arange(_TAYLOR_TERMS)[:, None]
    out = np.zeros((2, 2, len(z0)), dtype=complex)
    for n in range(_TAYLOR_TERMS - 1, -1, -1):
        out[0] += a[n] * powers[n]
        if n:
            out[1] += n * a[n] * powers[n - 1]
    out[1] /= r
    return out


def _transport_germs(
    zs: np.ndarray,
    germs: np.ndarray,
    *,
    min_step: float = _FRAME_MIN_STEP,
) -> np.ndarray:
    """Transport germ rows along the polyline zs, sub-stepping as needed.

    Steps never exceed _STEP_FRACTION times the distance to the nearest of
    the singular points {0, 1}, nor fall below min_step.  The step nodes are
    laid out first; then the steps' transition matrices are built a block at
    a time and applied to the rows in path order.  Its oracle is the
    test-only ``_ode_transport`` in ``tests/test_special.py``, which
    integrates the same ODE with scipy instead.
    """
    z = complex(zs[0])
    nodes = [z]
    for target in zs[1:]:
        target = complex(target)
        guard = 0
        while z != target:
            dist = min(abs(z), abs(z - 1.0))
            allowed = _STEP_FRACTION * dist
            if allowed < min_step:
                raise ContinuationStallError(
                    f"step size collapsed to {allowed:.3g} near z = {z:.6g}"
                )
            gap = target - z
            if abs(gap) <= allowed:
                z = target
            else:
                z = z + gap * (allowed / abs(gap))
            nodes.append(z)
            guard += 1
            if guard > 100000:
                raise ContinuationStallError("sub-stepping did not terminate")
    path = np.array(nodes, dtype=complex)
    rows = np.asarray(germs, dtype=complex).tolist()
    for lo in range(0, len(path) - 1, _STEP_BLOCK):
        block = path[lo:lo + _STEP_BLOCK + 1]
        mats = _step_matrices(block[:-1], np.diff(block))
        for m00, m01, m10, m11 in zip(*mats.reshape(4, -1).tolist()):
            rows = [(m00 * f + m01 * d, m10 * f + m11 * d) for f, d in rows]
    return np.array(rows, dtype=complex)


def _winding(zs: np.ndarray, s: float) -> float:
    """Turns of the polyline zs around s.  A straight segment that misses s
    sweeps exactly the principal angle between its ends, seen from s."""
    return float(np.sum(np.angle((zs[1:] - s) / (zs[:-1] - s)))) / (2.0 * math.pi)


def continue_frame(frame: SolutionFrame, zs: np.ndarray) -> SolutionFrame:
    """Analytically continue a solution frame along the polyline through
    the points zs, which must start at the frame's base point.

    The frame's two solutions are transported as (value, derivative) germs by
    Taylor recentering, with steps capped at 0.35 times the distance to the
    nearest singular point.  The returned frame is based at zs[-1], and its
    branch_log adds the turns of the path around 0 and around 1.

    Raises ValueError if zs is not a non-empty 1-D array of finite points
    starting at the base point, PathTooCloseError if any point sits closer than 1e-5 to
    z = 0 or z = 1, and ContinuationStallError if sub-stepping collapses.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim != 1 or len(zs) == 0:
        raise ValueError(f"a path is a non-empty 1-D array of points, got shape {zs.shape}")
    if not np.all(np.isfinite(zs)):
        raise ValueError("a path's points must be finite")
    if abs(zs[0] - frame.base_point) > 1e-9:
        raise ValueError(
            f"path starts at {complex(zs[0])}, frame is based at {frame.base_point}"
        )
    dist = np.minimum(np.abs(zs), np.abs(zs - 1.0))
    if float(dist.min()) < 10.0 * _FRAME_MIN_STEP:
        raise PathTooCloseError(
            f"path passes within {dist.min():.3g} of a singular point; "
            f"margin must exceed {10.0 * _FRAME_MIN_STEP:.3g}"
        )
    germs = np.array(
        [[frame.values[0], frame.derivs[0]], [frame.values[1], frame.derivs[1]]],
        dtype=complex,
    )
    new_germs = _transport_germs(zs, germs)
    log = dict(frame.branch_log)
    log["around0"] = log.get("around0", 0.0) + _winding(zs, 0.0)
    log["around1"] = log.get("around1", 0.0) + _winding(zs, 1.0)
    return SolutionFrame(
        frame.basis_id,
        (complex(new_germs[0, 0]), complex(new_germs[1, 0])),
        complex(zs[-1]),
        (complex(new_germs[0, 1]), complex(new_germs[1, 1])),
        log,
    )


# ----------------------------------------------------------------------
# Finite-difference residual of the defining equation, used to certify that
# evaluated functions actually solve it.

def gauss_ode_residual(func, z: complex, h: float | None = None) -> complex:
    """Residual of z(1-z) f'' + (1-2z) f' - f/4 at z for a callable f.

    Uses 4th-order centered stencils; the default step 2e-3 (scaled by |z|)
    balances truncation against rounding in the second difference.
    """
    z = complex(z)
    if h is None:
        h = 2e-3 * max(1.0, abs(z))
    f0 = func(z)
    f1p, f1m = func(z + h), func(z - h)
    f2p, f2m = func(z + 2 * h), func(z - 2 * h)
    d1 = (-f2p + 8.0 * f1p - 8.0 * f1m + f2m) / (12.0 * h)
    d2 = (-f2p + 16.0 * f1p - 30.0 * f0 + 16.0 * f1m - f2m) / (12.0 * h * h)
    return z * (1.0 - z) * d2 + (1.0 - 2.0 * z) * d1 - f0 / 4.0
