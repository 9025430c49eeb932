"""Reduced free rigid body: vector field, invariants, orbits, and periods.

The angular momentum p = (p1, p2, p3) in the body frame obeys

    dp1/dt = -(1/I2 - 1/I3) p2 p3,
    dp2/dt = -(1/I3 - 1/I1) p3 p1,
    dp3/dt = -(1/I1 - 1/I2) p1 p2,

which preserves the energy H = (1/2) sum p_i^2 / I_i and the Casimir
L = (1/2) |p|^2.  Orbits are intersections of an energy ellipsoid with a
momentum sphere; away from the separatrix they are closed and their period
is what ``orbit_period`` measures.
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
]

# Relative width of the energy window around the separatrix value h = l/I2
# inside which period computations refuse to run.
SEPARATRIX_RTOL = 1e-8


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

    @staticmethod
    def from_array(p) -> "MomentumState":
        p1, p2, p3 = (float(x) for x in p)
        return MomentumState(p1, p2, p3)


def euler_rhs(p, inertia: InertiaSpec) -> np.ndarray:
    """Time derivative of the momentum at p (a tangent vector, as an array)."""
    if isinstance(p, MomentumState):
        p = p.as_array()
    p1, p2, p3 = float(p[0]), float(p[1]), float(p[2])
    a, b, c = inertia.reciprocals()
    return np.array(
        [-(b - c) * p2 * p3, -(c - a) * p3 * p1, -(a - b) * p1 * p2]
    )


def conserved(p, inertia: InertiaSpec) -> tuple[float, float]:
    """The pair (H, L) = (energy, Casimir) at p."""
    if isinstance(p, MomentumState):
        p = p.as_array()
    p1, p2, p3 = float(p[0]), float(p[1]), float(p[2])
    h = 0.5 * (p1 * p1 / inertia.I1 + p2 * p2 / inertia.I2 + p3 * p3 / inertia.I3)
    l = 0.5 * (p1 * p1 + p2 * p2 + p3 * p3)
    return h, l


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


def _rhs_closure(inertia: InertiaSpec):
    a, bb, c = inertia.reciprocals()
    k1, k2, k3 = -(bb - c), -(c - a), -(a - bb)

    def rhs(t, p):
        return (k1 * p[1] * p[2], k2 * p[2] * p[0], k3 * p[0] * p[1])

    return rhs


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
    are evaluated at every sample so drift is directly inspectable.
    """
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    from scipy.integrate import solve_ivp

    t_eval = np.linspace(0.0, t_end, n_samples)
    sol = solve_ivp(
        _rhs_closure(inertia),
        (0.0, t_end),
        state.as_array(),
        method="DOP853",
        rtol=tol,
        atol=tol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(f"integration failed: {sol.message}")
    p = sol.y.T
    inv_i = np.array([1.0 / inertia.I1, 1.0 / inertia.I2, 1.0 / inertia.I3])
    H = 0.5 * np.sum(p * p * inv_i, axis=1)
    L = 0.5 * np.sum(p * p, axis=1)
    return Trajectory(sol.t, p, H, L)


def characteristic_time(inertia: InertiaSpec, l: float) -> float:
    """1 / sqrt(2 l (a - c)(a - b)) with a > b > c the sorted reciprocals."""
    a, b, c = sorted(inertia.reciprocals(), reverse=True)
    return 1.0 / math.sqrt(2.0 * l * (a - c) * (a - b))


def orbit_period(
    state: MomentumState,
    inertia: InertiaSpec,
    *,
    tol: float = 1e-12,
    max_characteristic_times: float = 1e4,
) -> float:
    """Period of the closed orbit through ``state``.

    Uses a Poincare section through the initial point, normal to the flow,
    and returns the first same-direction crossing time, refined by the
    solver's dense-output root finding.

    Raises
    ------
    DomainError
        At an equilibrium (no period to speak of).
    SeparatrixError
        When h is within a relative 1e-8 of the separatrix energy l/I2
        (period diverges there), with I2 the middle moment.
    IntegrationError
        If no return happens within 1e4 characteristic times.
    """
    p0 = state.as_array()
    f0 = euler_rhs(p0, inertia)
    speed = float(np.linalg.norm(f0))
    h, l = conserved(p0, inertia)
    if l <= 0.0:
        raise DomainError("zero momentum has no orbit")
    scale = 2.0 * l * max(inertia.reciprocals())
    if speed < 1e-13 * scale:
        raise DomainError("initial condition is an equilibrium; the orbit is a point")
    b_mid = 1.0 / sorted((inertia.I1, inertia.I2, inertia.I3))[1]
    h_sep = b_mid * l
    if abs(h - h_sep) < SEPARATRIX_RTOL * abs(h_sep):
        raise SeparatrixError(
            f"energy h = {h!r} is within 1e-8 of the separatrix value {h_sep!r}"
        )
    normal = f0 / speed

    def section(t, p):
        return float(np.dot(np.asarray(p) - p0, normal))

    section.direction = 1.0
    section.terminal = True

    from scipy.integrate import solve_ivp

    t_char = characteristic_time(inertia, l)
    t_max = max_characteristic_times * t_char
    rhs = _rhs_closure(inertia)
    # The section function vanishes exactly at t = 0, which confuses event
    # root finding; advance a short flow leg first, then arm the event.
    delta = 1e-3 * t_char
    leg1 = solve_ivp(rhs, (0.0, delta), p0, method="DOP853", rtol=tol, atol=tol)
    if not leg1.success:
        raise IntegrationError(f"integration failed: {leg1.message}")
    leg2 = solve_ivp(
        rhs,
        (delta, t_max),
        leg1.y[:, -1],
        method="DOP853",
        rtol=tol,
        atol=tol,
        events=section,
        dense_output=True,
    )
    if not leg2.success:
        raise IntegrationError(f"integration failed: {leg2.message}")
    crossings = leg2.t_events[0]
    if len(crossings) == 0:
        raise IntegrationError(
            f"orbit did not return to the section within {t_max:.3g} time units; "
            "the initial condition may be exponentially close to the separatrix"
        )
    return float(crossings[0])
