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
import sys
from dataclasses import dataclass

import numpy as np

from .core import DomainError, InertiaSpec

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
    an orbit at Casimir level l takes to turn by about a radian.  Raises
    DomainError, naming the moments, where 2 l (a - c)(a - b) is not a
    normal float."""
    a, b, c = sorted(reciprocals, reverse=True)
    with np.errstate(all="ignore"):
        rate = np.asarray(2.0 * l * (a - c) * (a - b))
    bad = ~((rate >= sys.float_info.min) & (rate <= sys.float_info.max))
    if bad.any():
        k = np.argmax(bad)
        raise DomainError(
            f"reciprocal moments a > b > c = {a!r}, {b!r}, {c!r} at Casimir L = {float(np.ravel(l)[k])!r} "
            f"put 2 L (a - c)(a - b) = {float(rate.flat[k])!r}, which sets the orbit's time scale, "
            "outside the normal float range"
        )
    return 1.0 / np.sqrt(rate)


def conserved(p, inertia: InertiaSpec):
    """The pair (H, L) = (energy, Casimir) at one state (3,) or a stack (3, N)."""
    if isinstance(p, MomentumState):
        p = p.as_array()
    p = np.asarray(p, dtype=float)
    sq = p * p
    a, b, c = inertia.reciprocals()
    return 0.5 * (a * sq[0] + b * sq[1] + c * sq[2]), 0.5 * (sq[0] + sq[1] + sq[2])


# ----------------------------------------------------------------------
# DOP853: the explicit Runge-Kutta pair of order 8 with embedded error
# estimators of orders 5 and 3, and a dense output of order 7, by Dormand and
# Prince, with the coefficients and step control published with Hairer's code
# (Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I",
# 2nd ed., sections II.5 and II.10).  Stages 0-11 make a step, stage 12 is
# the derivative at its end, and stages 13-15 serve only the dense output.

_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
    1.0,
    0.1,
    0.2,
    0.777777777777777777777777777778,
])


def _rows(shape, rows) -> np.ndarray:
    """A dense array from its nonzero entries, one {column: value} per row."""
    out = np.zeros(shape)
    for i, row in enumerate(rows):
        for j, value in row.items():
            out[i, j] = value
    return out


# Row i holds the weights of stages 0..i-1 in stage i; row 12 is the weights b
# of the 8th-order solution.
_A = _rows((16, 16), (
    {},
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1, 4: 6.02165389804559606850219397283e-2,
     5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
))
_B = _A[12, :12]

# The two error estimators, as weights of stages 0..12: the 5th-order one
# directly, the 3rd-order one as b minus the weights bhh of a 3rd-order
# solution.
_E5 = np.zeros(13)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-01, -0.1225156446376204440720569753e+01,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+01,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-01, -0.2235530786388629525884427845e-01,
]
_E3 = np.append(_B, 0.0)
_E3[[0, 8, 11]] -= [
    0.244094488188976377952755905512, 0.733846688281611857341361741547, 0.220588235294117647058823529412e-1,
]

# Stage weights of the dense output's coefficients 3..6; coefficients 0..2
# come from the step's ends.
_D = _rows((4, 16), (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
))

# Step control: a new step is h * SAFETY * err**(-1/8), its factor held to
# [0.2, 10], and to at most 1 right after a rejection.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8


def _rms(x) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """First step size: Hairer's guess from the sizes of y0, f0 and a
    difference quotient of f, for a local error of order 8 in the step."""
    interval = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    d2 = _rms((fun(t0 + h0, y0 + h0 * f0) - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, interval)


def _error_norm(K, h, scale) -> float:
    """RMS of the 5th-order error estimate over ``scale``, damped where the
    3rd-order estimate is much smaller than the 5th-order one."""
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_2 = np.linalg.norm(err5) ** 2
    err3_2 = np.linalg.norm(err3) ** 2
    if err5_2 == 0 and err3_2 == 0:
        return 0.0
    return np.abs(h) * err5_2 / np.sqrt((err5_2 + 0.01 * err3_2) * len(scale))


def _dop853(fun, t0, y0, t_bound, *, rtol, atol):
    """Integrate y' = fun(t, y) from t0 forward to t_bound with DOP853.

    Yields ``(t, y, dense)`` after each accepted step; the last step is cut
    to end on t_bound.  ``dense()`` builds the step's interpolant
    ``at(t, rows)``, the components ``rows`` of y at times t in the step
    (broadcast against each other); it is valid until the generator resumes.
    A step is accepted when the scaled error norm is below 1, the scale of a
    component being atol + rtol max(|y_i| before, |y_i| after); rtol is
    raised to 100 machine epsilons if below.  Raises IntegrationError when
    the step size falls below ten spacings of t.  A step whose arithmetic
    overflows counts as a rejected step, without a warning.
    """
    rtol = max(rtol, 100 * np.finfo(float).eps)
    t, y = t0, np.asarray(y0, dtype=float)
    K = np.empty((16, y.size))
    with np.errstate(all="ignore"):
        f = fun(t, y)
        h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step size fails here too
                raise IntegrationError(
                    "integration failed: Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            with np.errstate(all="ignore"):
                K[0] = f
                for s in range(1, 12):
                    K[s] = fun(t + _C[s] * h, y + np.dot(K[:s].T, _A[s, :s]) * h)
                y_new = y + h * np.dot(K[:12].T, _B)
                K[12] = f_new = fun(t + h, y_new)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                err = _error_norm(K[:13], h, scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        t_old, y_old, t, y, f_old, f = t, y, t_new, y_new, f, f_new
        yield t, y, lambda: _interpolant(fun, t_old, t, y_old, y, f_old, f, K)


def _interpolant(fun, t_old, t, y_old, y, f_old, f, K):
    """DOP853's 7th-order dense output over the step from t_old to t."""
    h = t - t_old
    for s in range(13, 16):
        K[s] = fun(t_old + _C[s] * h, y_old + np.dot(K[:s].T, _A[s, :s]) * h)
    delta = y - y_old
    F = np.empty((7, y.size))
    F[0] = delta
    F[1] = h * f_old - delta
    F[2] = 2 * delta - h * (f + f_old)
    F[3:] = h * np.dot(_D, K)

    def at(times, rows=slice(None)):
        # A Horner scheme in x and 1 - x, alternating.
        x = (np.asarray(times) - t_old) / h
        out = np.zeros(np.broadcast_shapes(np.shape(x), y_old[rows].shape))
        for i, coeff in enumerate(F[::-1]):
            out += coeff[rows]
            out *= x if i % 2 == 0 else 1 - x
        out += y_old[rows]
        return out

    return at


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

    Samples are taken on a uniform grid via dense output: after each step,
    the grid times the step has reached are read from its interpolant.
    Energy and Casimir are evaluated at every sample so drift is directly
    inspectable.  Raises DomainError before any work starts for a t_end
    beyond MAX_CHARACTERISTIC_TIMES characteristic times, for a nonzero
    state whose Casimir L = |p|^2/2 overflows or lies below the smallest
    normal float (sys.float_info.min), where it has no correct digits, and
    for moments whose characteristic time at L has no normal float.
    """
    if t_end <= 0.0:
        raise DomainError(f"t_end must be positive, got {t_end!r}")
    reciprocals = inertia.reciprocals()
    p0 = state.as_array()
    with np.errstate(over="ignore"):
        _, l = conserved(p0, inertia)
    if p0.any() and not sys.float_info.min <= l <= sys.float_info.max:
        raise DomainError(
            f"the Casimir L = |p|^2/2 of p0 = {tuple(p0.tolist())} is {float(l)!r}; a nonzero state needs it "
            f"in [{sys.float_info.min!r}, {sys.float_info.max!r}]"
        )
    t_max = MAX_CHARACTERISTIC_TIMES * _characteristic_time(l, reciprocals) if l > 0.0 else math.inf
    if t_end > t_max:
        raise DomainError(
            f"t_end = {t_end!r} exceeds {MAX_CHARACTERISTIC_TIMES:g} characteristic times "
            f"({t_max:.6g} time units) of this orbit"
        )
    t_eval = np.linspace(0.0, t_end, n_samples)
    all_rows = np.arange(3)[:, None]
    ts, ps = [], []
    done = 0
    for t, _, dense in _dop853(lambda t, p: _field(p, reciprocals), 0.0, p0, float(t_end), rtol=tol, atol=tol):
        reached = np.searchsorted(t_eval, t, side="right")
        if reached > done:
            ts.append(t_eval[done:reached])
            ps.append(dense()(ts[-1], all_rows))
            done = reached
    t, p = np.hstack(ts), np.hstack(ps)
    H, L = conserved(p, inertia)
    return Trajectory(t, p.T, H, L)


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

    Oracle: this is the ODE route of the three period routes, independent
    of the closed form (``periods.S_closed_form``) and of the quadratures.

    Raises DomainError at zero momentum, at an equilibrium, and where the
    moments and l put the characteristic time or the speed on the unit
    sphere outside the float range; SeparatrixError when h is within a
    relative 1e-8 of the separatrix energy l/I2 (I2 the middle moment; the
    period diverges there); and IntegrationError if the solver fails or an
    orbit does not return within MAX_CHARACTERISTIC_TIMES.
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
    t_char = _characteristic_time(l, reciprocals)
    t_unit = _characteristic_time(0.5, reciprocals)  # on the unit sphere, 2 l = 1
    a, b, c = sorted(reciprocals, reverse=True)
    q0 = p0 / np.sqrt(2.0 * l)
    f0 = _field(q0, reciprocals)
    with np.errstate(over="ignore"):
        speed = np.linalg.norm(f0, axis=0)
    if not np.all(np.isfinite(speed)):
        raise DomainError(
            f"reciprocal moments a > b > c = {a!r}, {b!r}, {c!r} put the speed on the unit sphere, "
            "of the order of a - c, outside the float range"
        )
    if np.any(speed < 1e-13 * max(reciprocals)):
        raise DomainError("initial condition is an equilibrium; the orbit is a point")
    h_sep = b * l
    near = np.abs(h - h_sep) < SEPARATRIX_RTOL * np.abs(h_sep)
    if near.any():
        k = np.argmax(near)
        raise SeparatrixError(f"energy h = {float(h[k])!r} is within 1e-8 of the separatrix value {float(h_sep[k])!r}")
    normal = f0 / speed

    def section(q, rows=slice(None)):
        # How far each row's q (3, rows) lies past its section plane.
        return np.sum((q - q0[:, rows]) * normal[:, rows], axis=0)

    # A step passes when the RMS of all 3N scaled errors is at most 1; with
    # tol / sqrt(N), no orbit is held looser than if it were solved alone.
    # atol and rtol are each half of that, so a component's allowance
    # atol + rtol |q_i| stays below it on the unit sphere, relative to the
    # orbit's size whatever l is.
    batch_tol = 0.5 * tol / math.sqrt(n)
    steps = _dop853(
        lambda tau, y: (t_unit * _field(y.reshape(3, n), reciprocals)).ravel(),
        0.0, q0.ravel(), MAX_CHARACTERISTIC_TIMES, rtol=batch_tol, atol=batch_tol,
    )
    period = np.full(n, np.nan)
    g_old = np.zeros(n)
    t_old = 0.0
    for t, y, dense in steps:
        g = section(y.reshape(3, n))
        rows = np.flatnonzero(np.isnan(period) & (g_old < 0.0) & (g >= 0.0))
        g_old = g
        if rows.size:
            at = dense()
            # Row j's three components, each read at row j's own time.
            components = np.arange(3)[:, None] * n + rows
            lo, hi = np.full(rows.size, t_old), np.full(rows.size, t)
            while np.any(np.nextafter(lo, hi) < hi):
                mid = 0.5 * (lo + hi)
                below = section(at(mid, components), rows) < 0.0
                lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
            period[rows] = hi
            if not np.isnan(period).any():
                break
        t_old = t
    else:
        t_max = MAX_CHARACTERISTIC_TIMES * t_char[np.argmax(np.isnan(period))]
        raise IntegrationError(
            f"orbit did not return to the section within {t_max:.3g} time units; "
            "the initial condition may be exponentially close to the separatrix"
        )
    return period * t_char


def orbit_period(state: MomentumState, inertia: InertiaSpec, *, tol: float = 1e-12) -> float:
    """Period of the closed orbit through ``state``; see ``orbit_periods``."""
    return float(orbit_periods([state], inertia, tol=tol)[0])
