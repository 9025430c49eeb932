"""Reduced free rigid body: vector field, invariants, orbits, and periods.

The angular momentum p = (p1, p2, p3) in the body frame obeys

    dp1/dt = -(1/I2 - 1/I3) p2 p3,
    dp2/dt = -(1/I3 - 1/I1) p3 p1,
    dp3/dt = -(1/I1 - 1/I2) p1 p2,

which preserves the energy H = (1/2) sum p_i^2 / I_i and the Casimir
L = (1/2) |p|^2.  Orbits are intersections of an energy ellipsoid with a
momentum sphere; away from the separatrix they are closed and their periods
are what ``orbit_period`` measures, one orbit per call, from the vector
field alone.

One DOP853 stepper, ``_dop853``, steps an orbit's three Python floats: it
serves ``integrate_orbit``, which samples its dense output on a uniform
grid, and ``orbit_period``, which bisects it for zeros.  This module
imports no numpy.
"""

from __future__ import annotations

import math
import operator
import sys

from .core import (
    MAX_SAMPLES,
    ComputationError,
    DomainError,
    FrozenRecord,
    InertiaSpec,
    is_normal,
    linspace,
    require_positive,
    unit_exponent,
)

__all__ = [
    "IntegrationError",
    "MomentumState",
    "SeparatrixError",
    "Trajectory",
    "conserved",
    "integrate_orbit",
    "orbit_period",
]

# Relative width of the energy window around the separatrix value h = l/I2
# inside which period computations refuse to run.
SEPARATRIX_RTOL = 1e-8

# An orbit that has not returned within this many characteristic times is
# refused; near the separatrix the period grows like the log of the distance.
MAX_CHARACTERISTIC_TIMES = 1e4


class SeparatrixError(DomainError):
    """Initial condition is on (or too near) the separatrix."""


class IntegrationError(ComputationError):
    """The ODE solver failed or did not close an orbit in time."""


class MomentumState(FrozenRecord):
    """Body-frame angular momentum (p1, p2, p3)."""

    __slots__ = ("p1", "p2", "p3")


def _field(p, reciprocals) -> tuple:
    """Time derivative of the momentum at p, three floats, given the
    reciprocals (a, b, c): the integrators take them once, not once per
    evaluation."""
    a, b, c = reciprocals
    return -(b - c) * p[1] * p[2], -(c - a) * p[2] * p[0], -(a - b) * p[0] * p[1]


def _ldexp(x: float, k: int) -> float:
    """x * 2**k, an infinity of x's sign where that overflows."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _characteristic_time(l: float, reciprocals, k: int = 0) -> float:
    """2**k / sqrt(2 l (a - c)(a - b)), a > b > c the sorted reciprocals: the
    time an orbit at Casimir level L = l / 4**k takes to turn by about a
    radian.  Raises DomainError, naming the moments and L, where
    2 l (a - c)(a - b) or the time is not a normal float; L is named as
    l * 4**-k where it is not a normal float itself."""
    a, b, c = sorted(reciprocals, reverse=True)
    rate = 2.0 * l * (a - c) * (a - b)
    t = _ldexp(1.0 / math.sqrt(rate), k) if rate else math.inf
    if not (is_normal(rate) and is_normal(t)):
        level = _ldexp(l, -2 * k)
        caller = repr(level) if is_normal(level) else f"{l!r} * 4**{-k}"
        scaled = f" at L * 4**{k} = {l!r}" if k else ""
        raise DomainError(
            f"reciprocal moments a > b > c = {a!r}, {b!r}, {c!r} at Casimir L = {caller} "
            f"put 2 L (a - c)(a - b) = {rate!r}{scaled}, or the orbit's time scale, "
            f"{t!r}, outside the normal float range"
        )
    return t


def conserved(p, inertia: InertiaSpec):
    """The pair (H, L) = (energy, Casimir) at p: a ``MomentumState``, three
    numbers, or the three rows of any stack whose arithmetic is elementwise."""
    if isinstance(p, MomentumState):
        p = (p.p1, p.p2, p.p3)
    return _invariants(p, inertia.reciprocals())


def _invariants(p, reciprocals):
    """(h, l) at p, three floats or three arrays, given the reciprocals."""
    a, b, c = reciprocals
    s1, s2, s3 = p[0] * p[0], p[1] * p[1], p[2] * p[2]
    return 0.5 * (a * s1 + b * s2 + c * s3), 0.5 * (s1 + s2 + s3)


# ----------------------------------------------------------------------
# DOP853: the explicit Runge-Kutta pair of order 8 with embedded error
# estimators of orders 5 and 3, and a dense output of order 7, by Dormand and
# Prince, with the coefficients and step control published with Hairer's code
# (Hairer, Norsett & Wanner, "Solving Ordinary Differential Equations I",
# 2nd ed., sections II.5 and II.10).  Stages 0-11 make a step, stage 12 is
# the derivative at its end, and stages 13-15 serve only the dense output.
# The tableau is stored once, as Python floats: each row of weights as
# {column: value} over its nonzero entries, which ``_dop853`` sums over.

_C = (
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
)

# Row i holds the weights of stages 0..i-1 in stage i; row 12 is the weights b
# of the 8th-order solution.
_A = (
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
)
_B = _A[12]

# The two error estimators, as weights of stages 0..11: the 5th-order one
# directly, the 3rd-order one as b minus the weights bhh of a 3rd-order
# solution.
_E5 = {
    0: 0.1312004499419488073250102996e-01, 5: -0.1225156446376204440720569753e+01,
    6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+01,
    8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
    10: 0.8192320648511571246570742613e-01, 11: -0.2235530786388629525884427845e-01,
}
_BHH = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547, 11: 0.220588235294117647058823529412e-1}
_E3 = {j: w - _BHH.get(j, 0.0) for j, w in _B.items()}

# Stage weights of the dense output's coefficients 3..6; coefficients 0..2
# come from the step's ends.
_D = (
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
)

# Step control: a new step is h * SAFETY * err**(-1/8), its factor held to
# [0.2, 10], and to at most 1 right after a rejection.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_EXPONENT = -1 / 8

# Each sum over stages runs left to right over a row's nonzero weights,
# (stage, weight) pairs.
_STAGE_WEIGHTS = tuple((_C[s], tuple(_A[s].items())) for s in range(16))
# b and the two error estimators weigh the same stages: (stage, b, e5, e3).
_END_WEIGHTS = tuple((j, w, _E5[j], _E3[j]) for j, w in _B.items())
_D_WEIGHTS = tuple(tuple(row.items()) for row in _D)


def _combine(K, weights) -> tuple[float, float, float]:
    """The sum of w K[j] over the (j, w) pairs ``weights``, per component."""
    s1 = s2 = s3 = 0.0
    for j, w in weights:
        k1, k2, k3 = K[j]
        s1 += w * k1
        s2 += w * k2
        s3 += w * k3
    return s1, s2, s3


def _rms(x) -> float:
    x1, x2, x3 = x
    return math.sqrt((x1 * x1 + x2 * x2 + x3 * x3) / 3.0)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol) -> float:
    """First step size: Hairer's guess from the sizes of y0, f0 and a
    difference quotient of f, for a local error of order 8 in the step.
    A quotient by zero is taken as infinite."""
    interval = abs(t_bound - t0)
    scale = [atol + abs(y) * rtol for y in y0]
    d0 = _rms([y / s for y, s in zip(y0, scale)])
    d1 = _rms([f / s for f, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, tuple(y + h0 * f for y, f in zip(y0, f0)))
    d2 = _rms([(u - v) / s for u, v, s in zip(f1, f0, scale)]) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        top = max(d1, d2)
        h1 = (0.01 / top) ** (1 / 8) if top else math.inf
    return min(100 * h0, h1, interval)


def _error_norm(err5, err3, h, scale) -> float:
    """RMS of the 5th-order error estimate over ``scale``, damped where the
    3rd-order estimate is much smaller than the 5th-order one, given the
    stage sums err5 and err3 of the two estimators; nan where it would
    divide 0 by 0."""
    n5 = n3 = 0.0
    for x5, x3, s in zip(err5, err3, scale):
        x5, x3 = x5 / s, x3 / s
        n5 += x5 * x5
        n3 += x3 * x3
    if n5 == 0 and n3 == 0:
        return 0.0
    denominator = math.sqrt((n5 + 0.01 * n3) * 3)
    return abs(h) * n5 / denominator if denominator else math.nan


def _dop853(fun, t0, y0, t_bound, *, rtol, atol):
    """Integrate y' = fun(t, y) from t0 forward to t_bound with DOP853, for a
    state of three Python floats: ``fun(t, y)`` takes and returns a tuple of
    three floats.

    Yields ``(t, y, dense)`` after each accepted step; the last step is cut
    to end on t_bound.  ``dense()`` returns the step's dense output
    ``(t_old, h, F, y_old)``: the step of length h from t_old, the
    coefficients F, seven 3-tuples, of a polynomial in x = (t - t_old) / h
    whose components ``_dense_value`` evaluates, and the state y_old at the
    step's start.  ``dense()`` must be called before the generator resumes.

    A step is accepted when the scaled error norm is below 1, the scale of a
    component being atol + rtol max(|y_i| before, |y_i| after); atol must be
    above zero, and rtol is raised to 10 machine epsilons if below.  Raises
    IntegrationError when the step size falls below ten spacings of t.  A
    step whose arithmetic overflows is rejected, and no operation here
    raises or warns on overflow: squares are products, never powers.  Sums
    over stages run left to right, and the accepted states are summed with
    compensation (E. Hairer, C. Lubich & G. Wanner, "Geometric Numerical
    Integration", 2nd ed., section VIII.5): each new state's rounding error
    is carried into the next step's increment, which keeps the states'
    rounding below the rtol floor.
    """
    rtol = max(rtol, 10 * sys.float_info.epsilon)
    t, y = t0, tuple(y0)
    carry = (0.0, 0.0, 0.0)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    while t < t_bound:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        y1, y2, y3 = y
        while True:
            if not h_abs >= min_step:  # a nan step size fails here too
                raise IntegrationError(
                    "integration failed: Required step size is less than spacing between numbers."
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K = [f]
            for c, weights in _STAGE_WEIGHTS[1:12]:
                # _combine's loop, inline: the stages are most of a step's work.
                s1 = s2 = s3 = 0.0
                for j, w in weights:
                    k1, k2, k3 = K[j]
                    s1 += w * k1
                    s2 += w * k2
                    s3 += w * k3
                K.append(fun(t + c * h, (y1 + s1 * h, y2 + s2 * h, y3 + s3 * h)))
            # The increment b (b1..b3) and the two error estimates (u, v),
            # in one pass over their stages.
            b1 = b2 = b3 = u1 = u2 = u3 = v1 = v2 = v3 = 0.0
            for j, wb, w5, w3 in _END_WEIGHTS:
                k1, k2, k3 = K[j]
                b1 += wb * k1
                b2 += wb * k2
                b3 += wb * k3
                u1 += w5 * k1
                u2 += w5 * k2
                u3 += w5 * k3
                v1 += w3 * k1
                v2 += w3 * k2
                v3 += w3 * k3
            d1, d2, d3 = carry[0] + h * b1, carry[1] + h * b2, carry[2] + h * b3
            y_new = (y1 + d1, y2 + d2, y3 + d3)
            f_new = fun(t + h, y_new)
            scale = [atol + max(abs(u), abs(v)) * rtol for u, v in zip(y, y_new)]
            err = _error_norm((u1, u2, u3), (v1, v2, v3), h, scale)
            if err < 1:
                factor = _MAX_FACTOR if err == 0 else min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            rejected = True
        carry = ((y1 - y_new[0]) + d1, (y2 - y_new[1]) + d2, (y3 - y_new[2]) + d3)
        K.append(f_new)
        t_old, y_old, t, y, f_old, f = t, y, t_new, y_new, f, f_new
        yield t, y, lambda: _interpolant(fun, t_old, t, y_old, y, f_old, f, K)


def _interpolant(fun, t_old, t, y_old, y, f_old, f, K) -> tuple:
    """The dense output of the step from t_old to t, whose K holds stages
    0..12."""
    K = K[:13]
    h = t - t_old
    y1, y2, y3 = y_old
    for c, weights in _STAGE_WEIGHTS[13:]:
        s1, s2, s3 = _combine(K, weights)
        K.append(fun(t_old + c * h, (y1 + s1 * h, y2 + s2 * h, y3 + s3 * h)))
    delta = tuple(u - v for u, v in zip(y, y_old))
    F = (
        delta,
        tuple(h * g - d for g, d in zip(f_old, delta)),
        tuple(2 * d - h * (g + g_old) for d, g, g_old in zip(delta, f, f_old)),
        *(tuple(h * x for x in _combine(K, weights)) for weights in _D_WEIGHTS),
    )
    return t_old, h, F, y_old


def _dense_value(f, y0, x) -> float:
    """One component of a ``_dop853`` dense output at x, from its seven
    coefficients f and its value y0 at the step's start: y0 plus a Horner
    scheme in x and 1 - x, alternating, over f[6], ..., f[0]."""
    f0, f1, f2, f3, f4, f5, f6 = f
    u = 1 - x
    return ((((((f6 * x + f5) * u + f4) * x + f3) * u + f2) * x + f1) * u + f0) * x + y0


class Trajectory(FrozenRecord):
    """A sampled orbit (t, p, H, L) with its invariants along the way:
    tuples of the sample times, the momenta (each a 3-tuple), the energy and
    the Casimir."""

    __slots__ = ("t", "p", "H", "L")

    @property
    def drift_h(self) -> float:
        return _drift(self.H)

    @property
    def drift_l(self) -> float:
        return _drift(self.L)


def _drift(x) -> float:
    """The largest |x - x[0]|, relative to |x[0]| unless that is 0."""
    x0 = x[0]
    return max(abs(v - x0) for v in x) / (abs(x0) or 1.0)


def _require_tol(tol) -> None:
    """DomainError naming tol unless it is a finite number in (0, 1): a
    relative tolerance of 1 or more asks for no correct digit."""
    require_positive("tol", tol)
    if tol >= 1:
        raise DomainError(f"tol must be below 1, got {tol!r}")


def integrate_orbit(
    state: MomentumState,
    inertia: InertiaSpec,
    t_end: float,
    *,
    tol: float = 1e-12,
    n_samples: int = 2001,
) -> Trajectory:
    """Integrate the momentum equations to t_end with an adaptive RK8(5,3).

    Samples are taken on the uniform grid of numpy.linspace(0, t_end,
    n_samples), bit for bit, via dense output: as each step ends, the grid
    times it reaches are read from its interpolant by ``_dense_value``.
    The stepper is ``_dop853`` at rtol = atol = tol.  Energy and Casimir are
    evaluated at every sample by ``conserved``, so drift is directly
    inspectable.

    Raises DomainError before any work starts for a t_end not finite and
    above zero, for a tol not a finite number in (0, 1), for an n_samples
    that is a bool, not an integer, or outside [1, MAX_SAMPLES], for a
    t_end beyond MAX_CHARACTERISTIC_TIMES characteristic times, for a
    nonzero state whose Casimir L = |p|^2/2 overflows or lies below the
    smallest normal float (sys.float_info.min), where it has no correct
    digits, and for moments whose characteristic time at L has no normal
    float.
    """
    require_positive("t_end", t_end)
    _require_tol(tol)
    if isinstance(n_samples, bool):
        raise DomainError(f"n_samples must be an integer from 1 to {MAX_SAMPLES}, not the bool {n_samples!r}")
    try:
        n = operator.index(n_samples)
    except TypeError:
        n = 0
    if not 1 <= n <= MAX_SAMPLES:
        raise DomainError(f"n_samples must be an integer from 1 to {MAX_SAMPLES}, got {n_samples!r}")
    reciprocals = inertia.reciprocals()
    p0 = (float(state.p1), float(state.p2), float(state.p3))
    l = conserved(p0, inertia)[1]
    if any(p0) and not is_normal(l):
        raise DomainError(
            f"the Casimir L = |p|^2/2 of p0 = {p0} is {l!r}; a nonzero state needs it "
            f"in [{sys.float_info.min!r}, {sys.float_info.max!r}]"
        )
    t_max = MAX_CHARACTERISTIC_TIMES * _characteristic_time(l, reciprocals) if l > 0.0 else math.inf
    if t_end > t_max:
        raise DomainError(
            f"t_end = {t_end!r} exceeds {MAX_CHARACTERISTIC_TIMES:g} characteristic times "
            f"({t_max:.6g} time units) of this orbit"
        )
    times = linspace(float(t_end), n)
    p, k = [], 0
    for t, _, dense in _dop853(lambda t, p: _field(p, reciprocals), 0.0, p0, float(t_end), rtol=tol, atol=tol):
        # The last step ends on t_end, the last sample.
        if k < n and times[k] <= t:
            t_old, h, F, (y1, y2, y3) = dense()
            f1, f2, f3 = zip(*F)
            while k < n and times[k] <= t:
                x = (times[k] - t_old) / h
                p.append((_dense_value(f1, y1, x), _dense_value(f2, y2, x), _dense_value(f3, y3, x)))
                k += 1
    H, L = zip(*(conserved(q, inertia) for q in p))
    return Trajectory(tuple(times), tuple(p), H, L)


# Each orbit runs at atol = rtol = tol * _ORBIT_TOL.  At the default tol
# this holds the mean digits against mpmath at 1e-6 to 1e-2 of the
# separatrix gap to the bounds of
# test_orbits_stepped_alone_keep_the_batch_digits_near_the_separatrix.
_ORBIT_TOL = 1 / 512


def orbit_period(state: MomentumState, inertia: InertiaSpec, *, tol: float = 1e-12) -> float:
    """Period of the closed orbit through ``state``, a float.

    An orbit above the separatrix energy (h > b l, b the middle reciprocal)
    circles the axis of the largest reciprocal, one below it the axis of the
    smallest.  In the classical solution of the Euler top (Whittaker) the
    circled component is a Jacobi ``dn`` and the other two are an ``sn`` and
    a ``cn``, so their zeros alternate a quarter period apart; the period is
    four times the time between two consecutive zeros of those two
    components, and nothing else of that solution is used.  A component
    that is exactly 0 at the start counts as a zero at t = 0.

    The orbit runs scaled to the unit sphere and in its own characteristic
    time 1/sqrt(2 l (a - c)(a - b)), a > b > c the sorted reciprocals, so
    every orbit turns at a comparable rate and l scales only the returned
    period.  It is stepped by ``_dop853`` at atol = rtol = tol / 512
    (``_ORBIT_TOL``) on the unit sphere, rtol floored at 10 machine
    epsilons, well below tol since four times the measured interval carries
    four times its error, and stops at its second zero.  It steps the state itself,
    exact, where the unit-sphere state has rounded.  Each watched
    component's zero is refined by bisection on its dense output over the
    step that passed it, to adjacent floats; a step that passes zeros of
    both components counts both.

    Oracle: this is the ODE route of the three period routes, independent
    of the closed form (``periods.S_closed_form``) and of the quadratures.
    It uses only the vector field.

    Raises DomainError for a tol that is not a finite number in (0, 1), at
    zero momentum, at an equilibrium, and where the moments and l put the
    characteristic time or the speed on the unit sphere outside the float
    range; SeparatrixError when h is within a relative 1e-8 of the
    separatrix energy l/I2 (I2 the middle moment; the period diverges
    there); and IntegrationError if the solver fails or the orbit does not
    turn a quarter within MAX_CHARACTERISTIC_TIMES.
    """
    _require_tol(tol)
    p0 = (float(state.p1), float(state.p2), float(state.p3))
    reciprocals = inertia.reciprocals()
    # The state is multiplied by 2**e, its largest component in [2, 4),
    # before h and l are formed: exact, and in range for every finite state.
    # A state holding a nan takes nan as its largest.
    e = unit_exponent(math.nan if any(map(math.isnan, p0)) else max(map(abs, p0)))
    p = tuple(_ldexp(x, e) for x in p0)
    # An overflowing h is refused with the moments below.
    h, l = _invariants(p, reciprocals)
    if l <= 0.0:
        raise DomainError("zero momentum has no orbit")
    # The orbit runs on the unit sphere, q = p / sqrt(2 l), in its own
    # characteristic time, where the field is _field(q) / sqrt((a - c)(a - b)):
    # l enters only through t_char.
    t_char = _characteristic_time(l, reciprocals, e)
    t_unit = _characteristic_time(0.5, reciprocals)  # on the unit sphere, 2 l = 1
    a, b, c = sorted(reciprocals, reverse=True)
    r = math.sqrt(2.0 * l)
    f1, f2, f3 = _field((p[0] / r, p[1] / r, p[2] / r), reciprocals)
    speed = math.sqrt(f1 * f1 + f2 * f2 + f3 * f3)
    if not math.isfinite(speed):
        raise DomainError(
            f"reciprocal moments a > b > c = {a!r}, {b!r}, {c!r} put the speed on the unit sphere, "
            "of the order of a - c, outside the float range"
        )
    if speed < 1e-13 * max(reciprocals):
        raise DomainError("initial condition is an equilibrium; the orbit is a point")
    h_sep = b * l
    if abs(h - h_sep) < SEPARATRIX_RTOL * abs(h_sep):
        h, h_sep = _ldexp(h, -2 * e), _ldexp(h_sep, -2 * e)
        raise SeparatrixError(f"energy h = {h!r} is within 1e-8 of the separatrix value {h_sep!r}")
    # The orbit circles the axis of the largest reciprocal when h > b l, else
    # that of the smallest, and watches the other two components.
    circled = reciprocals.index(max(reciprocals) if h > h_sep else min(reciprocals))
    # The orbit steps its exact state p, of radius r = sqrt(2 l), not the
    # rounded unit-sphere state q0 = p / r: in the time unit t_unit / r its
    # orbit is q0's scaled by r, at atol = r tol as on the unit sphere.
    quarter = _orbit_quarter(p, circled, reciprocals, t_unit / r, _ORBIT_TOL * tol, t_char, r)
    return 4.0 * quarter * t_char


def _orbit_quarter(q0, circled: int, reciprocals, t_unit: float, tol: float, t_char: float, size: float) -> float:
    """The time, in units of t_unit, between the first zeros of the two
    components other than ``circled`` of the orbit through q0, of radius
    ``size``, stepped alone by ``_dop853`` at rtol = tol and atol =
    size * tol.  Raises IntegrationError, naming t_char, if it has not both
    by MAX_CHARACTERISTIC_TIMES."""

    def fun(tau, q):
        f1, f2, f3 = _field(q, reciprocals)
        return t_unit * f1, t_unit * f2, t_unit * f3

    watched = [i for i in range(3) if i != circled]
    zero = dict.fromkeys(watched, 0.0)
    pending = [i for i in watched if q0[i] != 0.0]
    y_old = q0
    for t, y, dense in _dop853(fun, 0.0, q0, MAX_CHARACTERISTIC_TIMES, rtol=tol, atol=size * tol):
        # A pending component is nonzero at the step's start.
        changed = [i for i in pending if y[i] == 0.0 or (y[i] < 0.0) != (y_old[i] < 0.0)]
        if changed:
            t_old, h, F, start = dense()
            for i in changed:
                f = [coeff[i] for coeff in F]
                lo, hi = t_old, t
                while math.nextafter(lo, hi) < hi:
                    mid = 0.5 * (lo + hi)
                    value = _dense_value(f, start[i], (mid - t_old) / h)
                    if value != 0.0 and (value < 0.0) == (start[i] < 0.0):
                        lo = mid
                    else:
                        hi = mid
                zero[i] = hi
            pending = [i for i in pending if i not in changed]
            if not pending:
                i, j = watched
                return abs(zero[j] - zero[i])
        y_old = y
    raise IntegrationError(
        f"orbit did not turn a quarter within {MAX_CHARACTERISTIC_TIMES * t_char:.3g} time units; "
        "the initial condition may be exponentially close to the separatrix"
    )
