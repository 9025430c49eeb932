"""Reduced free rigid body: vector field, invariants, orbits, and periods.

The angular momentum p = (p1, p2, p3) in the body frame obeys

    dp1/dt = -(1/I2 - 1/I3) p2 p3,
    dp2/dt = -(1/I3 - 1/I1) p3 p1,
    dp3/dt = -(1/I1 - 1/I2) p1 p2,

which preserves the energy H = (1/2) sum p_i^2 / I_i and the Casimir
L = (1/2) |p|^2.  Orbits are intersections of an energy ellipsoid with a
momentum sphere; away from the separatrix they are closed and their periods
are what ``orbit_periods`` measures, all orbits in one integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, InertiaSpec

# scipy.integrate is imported inside the two functions that integrate: it is
# most of the package's import time, and most commands never integrate.

__all__ = [
    "Equilibrium",
    "IntegrationError",
    "MomentumState",
    "SeparatrixError",
    "Trajectory",
    "classify_equilibria",
    "conserved",
    "euler_rhs",
    "integrate_orbit",
    "orbit_period",
    "orbit_periods",
]

# Relative width of the energy window around the separatrix value h = l/I2
# inside which period computations refuse to run.
SEPARATRIX_RTOL = 1e-8

# An orbit that has not returned within this many characteristic times is
# refused; near the separatrix the period grows like the log of the distance.
MAX_CHARACTERISTIC_TIMES = 1e4


class SeparatrixError(DomainError):
    """Initial condition is on (or too near) the separatrix."""


class IntegrationError(RuntimeError):
    """The ODE solver failed or did not close an orbit in time."""


@dataclass(frozen=True)
class MomentumState:
    """Body-frame angular momentum."""

    p1: float
    p2: float
    p3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3], dtype=float)


def euler_rhs(p, inertia: InertiaSpec) -> np.ndarray:
    """Time derivative of the momentum at p: one state (3,) or a stack (3, N)."""
    if isinstance(p, MomentumState):
        p = p.as_array()
    return _field(p, inertia.reciprocals())


def _field(p, reciprocals) -> np.ndarray:
    # The integrators take the reciprocals once, not once per evaluation.
    a, b, c = reciprocals
    return np.array([-(b - c) * p[1] * p[2], -(c - a) * p[2] * p[0], -(a - b) * p[0] * p[1]])


def _characteristic_time(l, reciprocals):
    """1/sqrt(2 l (a - c)(a - b)), a > b > c the sorted reciprocals: the time
    an orbit at Casimir level l takes to turn by about a radian."""
    a, b, c = sorted(reciprocals, reverse=True)
    return 1.0 / np.sqrt(2.0 * l * (a - c) * (a - b))


def conserved(p, inertia: InertiaSpec):
    """The pair (H, L) = (energy, Casimir) at one state (3,) or a stack (3, N)."""
    if isinstance(p, MomentumState):
        p = p.as_array()
    p = np.asarray(p, dtype=float)
    sq = p * p
    a, b, c = inertia.reciprocals()
    return 0.5 * (a * sq[0] + b * sq[1] + c * sq[2]), 0.5 * (sq[0] + sq[1] + sq[2])


@dataclass(frozen=True)
class Equilibrium:
    state: MomentumState
    axis: str  # "p1", "p2", "p3"
    stability: str  # "elliptic" or "hyperbolic"


def classify_equilibria(inertia: InertiaSpec, l: float) -> list[Equilibrium]:
    """The six relative equilibria +/- sqrt(2 l) e_k with their stability.

    The axis with the middle moment of inertia is hyperbolic, the other two
    are elliptic, whatever the ordering of the moments in ``inertia``.
    Returned in the fixed order p1+, p1-, p2+, p2-, p3+, p3-.
    """
    if l <= 0.0:
        raise DomainError(f"Casimir level l must be positive, got {l!r}")
    moments = (inertia.I1, inertia.I2, inertia.I3)
    middle = sorted(moments)[1]
    r = math.sqrt(2.0 * l)
    out = []
    for k, mom in enumerate(moments):
        stability = "hyperbolic" if mom == middle else "elliptic"
        for sign in (+1.0, -1.0):
            vec = [0.0, 0.0, 0.0]
            vec[k] = sign * r
            out.append(Equilibrium(MomentumState(*vec), f"p{k + 1}", stability))
    return out


@dataclass(frozen=True)
class Trajectory:
    """A sampled orbit with its invariants along the way."""

    t: np.ndarray
    p: np.ndarray  # shape (n, 3)
    H: np.ndarray
    L: np.ndarray

    @property
    def drift_h(self) -> float:
        h0 = self.H[0]
        scale = abs(h0) if h0 != 0.0 else 1.0
        return float(np.max(np.abs(self.H - h0)) / scale)

    @property
    def drift_l(self) -> float:
        l0 = self.L[0]
        scale = abs(l0) if l0 != 0.0 else 1.0
        return float(np.max(np.abs(self.L - l0)) / scale)


def integrate_orbit(
    state: MomentumState,
    inertia: InertiaSpec,
    t_end: float,
    *,
    tol: float = 1e-12,
    n_samples: int = 2001,
) -> Trajectory:
    """Integrate the momentum equations to t_end with an adaptive RK8(5,3).

    Samples are taken on a uniform grid via dense output.  Energy and Casimir
    are evaluated at every sample so drift is directly inspectable.  A t_end
    beyond MAX_CHARACTERISTIC_TIMES characteristic times raises DomainError
    before any work starts.
    """
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    reciprocals = inertia.reciprocals()
    _, l = conserved(state.as_array(), inertia)
    t_max = MAX_CHARACTERISTIC_TIMES * _characteristic_time(l, reciprocals) if l > 0.0 else math.inf
    if t_end > t_max:
        raise DomainError(
            f"t_end = {t_end!r} exceeds {MAX_CHARACTERISTIC_TIMES:g} characteristic times "
            f"({t_max:.6g} time units) of this orbit"
        )
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda t, p: _field(p, reciprocals),
        (0.0, t_end),
        state.as_array(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=np.linspace(0.0, t_end, n_samples),
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    H, L = conserved(sol.y, inertia)
    return Trajectory(sol.t, sol.y.T, H, L)


def orbit_periods(states, inertia: InertiaSpec, *, tol: float = 1e-12) -> np.ndarray:
    """Periods of the closed orbits through ``states``, in one integration.

    Orbit k's Poincare section is the plane through its start point, normal
    to the flow there; its period is its first return to that plane in the
    same direction.  All orbits run as one 3N-dimensional DOP853 system,
    orbit k scaled to the unit sphere and in its own characteristic time
    1/sqrt(2 l_k (a - c)(a - b)), a > b > c the sorted reciprocals, so all
    turn at a comparable rate and l_k scales only the returned period.
    Returns are found after each step and refined together by bisection on
    the step's dense output, so memory stays proportional to N.

    Raises DomainError at zero momentum or an equilibrium, SeparatrixError
    when h is within a relative 1e-8 of the separatrix energy l/I2 (I2 the
    middle moment; the period diverges there), and IntegrationError if the
    solver fails or an orbit does not return within MAX_CHARACTERISTIC_TIMES.
    """
    p0 = np.array([s.as_array() for s in states]).reshape(-1, 3).T
    n = p0.shape[1]
    if n == 0:
        return np.empty(0)
    reciprocals = inertia.reciprocals()
    h, l = conserved(p0, inertia)
    if np.any(l <= 0.0):
        raise DomainError("zero momentum has no orbit")
    # Orbit k runs on the unit sphere, q = p / sqrt(2 l_k), in its own
    # characteristic time, where the field is _field(q) / sqrt((a - c)(a - b)):
    # l enters only through t_char.
    q0 = p0 / np.sqrt(2.0 * l)
    f0 = _field(q0, reciprocals)
    speed = np.linalg.norm(f0, axis=0)
    if np.any(speed < 1e-13 * max(reciprocals)):
        raise DomainError("initial condition is an equilibrium; the orbit is a point")
    a, b, c = sorted(reciprocals, reverse=True)
    h_sep = b * l
    near = np.abs(h - h_sep) < SEPARATRIX_RTOL * np.abs(h_sep)
    if near.any():
        k = np.argmax(near)
        raise SeparatrixError(f"energy h = {float(h[k])!r} is within 1e-8 of the separatrix value {float(h_sep[k])!r}")
    t_char = _characteristic_time(l, reciprocals)
    t_unit = _characteristic_time(0.5, reciprocals)  # on the unit sphere, 2 l = 1
    normal = f0 / speed

    def section(q, rows=slice(None)):
        # How far each row's q (3, rows) lies past its section plane.
        return np.sum((q - q0[:, rows]) * normal[:, rows], axis=0)

    from scipy.integrate import DOP853

    # A step passes when the RMS of all 3N scaled errors is at most 1; with
    # tol / sqrt(N), no orbit is held looser than if it were solved alone.
    # atol and rtol are each half of that, so a component's allowance
    # atol + rtol |q_i| stays below it on the unit sphere, relative to the
    # orbit's size whatever l is.
    batch_tol = 0.5 * tol / math.sqrt(n)
    solver = DOP853(
        lambda tau, y: (t_unit * _field(y.reshape(3, n), reciprocals)).ravel(),
        0.0, q0.ravel(), MAX_CHARACTERISTIC_TIMES,
        rtol=max(batch_tol, 100.0 * np.finfo(float).eps), atol=batch_tol,  # scipy's rtol floor
    )
    period = np.full(n, np.nan)
    g_old = np.zeros(n)
    while np.isnan(period).any():
        if solver.status != "running":
            t_max = MAX_CHARACTERISTIC_TIMES * t_char[np.argmax(np.isnan(period))]
            raise IntegrationError(
                f"orbit did not return to the section within {t_max:.3g} time units; "
                "the initial condition may be exponentially close to the separatrix"
            )
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"integration failed: {message}")
        g = section(solver.y.reshape(3, n))
        rows = np.flatnonzero(np.isnan(period) & (g_old < 0.0) & (g >= 0.0))
        g_old = g
        if rows.size:
            dense = solver.dense_output()
            lo, hi = np.full(rows.size, solver.t_old), np.full(rows.size, solver.t)
            while np.any(np.nextafter(lo, hi) < hi):
                mid = 0.5 * (lo + hi)
                # Row j of the batch is read at its own time mid[j].
                below = section(dense(mid).reshape(3, n, rows.size)[:, rows, np.arange(rows.size)], rows) < 0.0
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            period[rows] = hi
    return period * t_char


def orbit_period(state: MomentumState, inertia: InertiaSpec, *, tol: float = 1e-12) -> float:
    """Period of the closed orbit through ``state``; see ``orbit_periods``."""
    return float(orbit_periods([state], inertia, tol=tol)[0])
