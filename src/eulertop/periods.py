"""Periods of the reduced rigid body as functions on moduli space.

The central object is the normalized period

    S(a, b, c, d) = -(1/(3 pi)) sqrt(2/l) K(mu) / sqrt((d - c)(a - b)),

    mu = (d - a)(b - c) / ((d - c)(b - a)),

evaluated with a definite branch convention: every on-cut quantity is taken
at the d - i0 limit (the energy approaches real values from below).  The
rotation period of the body on the orbit with energy ratio d is
T = 6 pi |S| in the elliptic chambers.

The module provides the closed form, two independent quadrature routes
(a real arc decomposition for the elliptic cycles and a hyperbolic-arc
decomposition for the connecting cycle), the three-term identity checker,
and the 24-fold covariance report.  The exact rational series of the
inverse Birkhoff normal form lives in ``birkhoff``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CoincidentModuliError,
    DomainError,
    ModuliPoint,
    cross_ratio,
    lambda_proof,
)
from .special import DivergenceError, _on_cut, _sqrt_sided, elliptic_K

__all__ = [
    "CYCLE_LABELS",
    "PeriodValue",
    "S_closed_form",
    "SymmetryReport",
    "euler_period",
    "phi_prime",
    "quadrature_sigma_integral",
    "quadrature_tau_integral",
    "tanh_sinh",
    "verify_connection_identity",
    "verify_symmetries",
]

CYCLE_LABELS = ("sigma1_axis", "sigma3_axis", "gamma_hyperbolic", "tau")

# The period classes as reorderings of one point: S1 = S(a,b,c,d),
# S2 = S(b,a,c,d) and S3 = S(c,b,a,d), the values behind the axis families
# p1, p2 and p3.
_CLASS_ORDERS = {"S1": "abcd", "S2": "bacd", "S3": "cbad"}

# Imaginary parts up to this times the point's scale count as real.
_REAL_RTOL = 1e-12


@dataclass(frozen=True)
class PeriodValue:
    """A period with provenance: which cycle, at which moduli point.

    ``branch_flagged`` records that the evaluation crossed a branch cut and
    was resolved by the d - i0 rule (relevant when comparing against naive
    principal-branch values).
    """

    value: complex
    cycle_label: str
    moduli: ModuliPoint
    branch_flagged: bool = False

    def __post_init__(self) -> None:
        if self.cycle_label not in CYCLE_LABELS:
            raise ValueError(f"cycle_label must be one of {CYCLE_LABELS}")


def _unit(m: ModuliPoint) -> float:
    """The power of two that S(m) is evaluated in: 1 up to a scale of 2**300,
    else the one that brings the scale back to 2**300.

    S is homogeneous of degree -1 in (a, b, c, d), and dividing by a power
    of two is exact, so S(m) is S(m / unit) / unit, and no product of three
    coordinate differences overflows on the way.
    """
    return 2.0 ** max(0, math.frexp(m.scale())[1] - 300)


def _d_side(dq_dd: complex) -> int:
    """The side q takes at d - i0: under d -> d - i delta, q picks up
    -i delta dq/dd."""
    return -1 if complex(dq_dd).real > 0.0 else +1


def S_closed_form(m: ModuliPoint) -> PeriodValue:
    """The normalized period S at a moduli point, branch-resolved at d - i0.

    Singular loci: (d - c)(b - a) = 0 makes the cross-ratio undefined and
    (d - b)(c - a) = 0 puts K at its logarithmic singularity; both raise.
    The coincidences d = a and b = c are regular (mu = 0) and allowed.
    """
    pairs = m.coincident_pairs()
    for x, y in (("c", "d"), ("a", "b")):
        if (x, y) in pairs:
            raise CoincidentModuliError((x, y), f"S is singular where {y} = {x}")
    for x, y in (("b", "d"), ("a", "c")):
        if (x, y) in pairs:
            raise CoincidentModuliError(
                (x, y), f"K argument hits 1 where {y} = {x}: S diverges logarithmically"
            )

    # Scaled part by part: complex / float can flip the sign of a zero part.
    unit = _unit(m)
    a, b, c, d = (complex(z.real / unit, z.imag / unit) for z in m.coords())
    # Coincident pairs c, d and a, b were refused above, as mu_main would.
    mu = cross_ratio(a, b, c, d)
    # Both cuts are taken at d - i0; elliptic_K ignores the side off its cut.
    dmu_dd = (b - c) * (a - c) / ((b - a) * (d - c) ** 2)
    try:
        kval = elliptic_K(mu, side=_d_side(dmu_dd))
    except DivergenceError:
        raise CoincidentModuliError(("d", "b"), "K argument hit 1: S diverges") from None
    radicand = (d - c) * (a - b)
    root = _sqrt_sided(radicand, _d_side(a - b))
    flagged = _on_cut(1.0 - mu) or _on_cut(radicand)

    value = -math.sqrt(2.0 / m.l) / (3.0 * math.pi) * kval / root
    return PeriodValue(complex(value.real / unit, value.imag / unit), "sigma1_axis", m, flagged)


def phi_prime(axis: str, m: ModuliPoint) -> PeriodValue:
    """Derivative of the rotation-number half-periods along one axis family.

    axis "p1" is S(a, b, c, d) itself; "p3" relabels to S(c, b, a, d);
    "p2" (the hyperbolic connecting family) is -i S(b, a, c, d).
    """
    if axis == "p1":
        return S_closed_form(m)
    if axis == "p3":
        inner = S_closed_form(m.reorder(_CLASS_ORDERS["S3"]))
        return PeriodValue(inner.value, "sigma3_axis", m, inner.branch_flagged)
    if axis == "p2":
        inner = S_closed_form(m.reorder(_CLASS_ORDERS["S2"]))
        return PeriodValue(-1j * inner.value, "gamma_hyperbolic", m, inner.branch_flagged)
    raise ValueError(f"axis must be 'p1', 'p2' or 'p3', got {axis!r}")


def euler_period(m: ModuliPoint, axis: str = "p1") -> float:
    """Rotation period T = 6 pi |S| of the orbit family around an axis."""
    return 6.0 * math.pi * abs(phi_prime(axis, m).value)


# ----------------------------------------------------------------------
# Double-exponential quadrature with endpoint-distance bookkeeping.

# Nodes span |t| <= T_MAX; the spacing halves until the sum moves by TOL, at most LEVELS times.
_TANH_SINH_TOL = 5e-14
_TANH_SINH_LEVELS = 8
_TANH_SINH_T_MAX = 4.5


def tanh_sinh(g, lo: float, hi: float):
    """Tanh-sinh quadrature of g over (lo, hi) for inverse-sqrt endpoints.

    The integrand is called as g(x, dist_lo, dist_hi) where the distances to
    the endpoints are computed in a cancellation-free way, so dividing by
    their square roots stays accurate all the way into the corners.
    """
    mid = 0.5 * (lo + hi)
    hal = 0.5 * (hi - lo)

    def node(t: float):
        w = 0.5 * math.pi * math.sinh(t)
        e2 = math.exp(-2.0 * abs(w))
        near = hal * 2.0 * e2 / (1.0 + e2)   # distance to the nearer endpoint
        far = hal * 2.0 / (1.0 + e2)
        sech2 = (2.0 * math.sqrt(e2) / (1.0 + e2)) ** 2
        weight = hal * 0.5 * math.pi * math.cosh(t) * sech2
        if t >= 0.0:
            x = hi - near
            return x, far, near, weight
        x = lo + near
        return x, near, far, weight

    def sum_at(ts):
        total = 0.0
        for t in ts:
            x, dlo, dhi, w = node(t)
            if dlo == 0.0 or dhi == 0.0:
                continue  # beyond double precision: contribution underflows
            total += w * g(x, dlo, dhi)
        return total

    h = 1.0
    ts = np.arange(-_TANH_SINH_T_MAX, _TANH_SINH_T_MAX + 0.5 * h, h)
    acc = h * sum_at(ts)
    for _ in range(_TANH_SINH_LEVELS):
        h *= 0.5
        new_ts = np.arange(-_TANH_SINH_T_MAX + h, _TANH_SINH_T_MAX, 2.0 * h)
        new = 0.5 * acc + h * sum_at(new_ts)
        if abs(new - acc) <= _TANH_SINH_TOL * max(abs(new), 1e-300):
            return new
        acc = new
    return acc


# ----------------------------------------------------------------------
# Real arc quadratures.  Both require the real elliptic chamber; the sign
# pattern of (a-d, d-b, b-c) must be uniform (the two elliptic families are
# mirror images of each other under reversing all three).

def _real_chamber_coords(m: ModuliPoint) -> tuple[float, float, float, float, float]:
    if not m.is_real(_REAL_RTOL * m.scale()):
        raise DomainError("quadratures require a real moduli point")
    a, b, c, d = m.coords()
    a, b, c, d = a.real, b.real, c.real, d.real
    s1, s2, s3 = np.sign([a - d, d - b, b - c])
    if not (s1 == s2 == s3) or s1 == 0.0:
        raise DomainError(
            "moduli point must lie in an elliptic chamber "
            "(a > d > b > c or its full reversal)"
        )
    return a, b, c, d, m.l


def quadrature_sigma_integral(m: ModuliPoint, s: float = 0.0) -> PeriodValue:
    """S on the elliptic family by real quadrature, bypassing K entirely.

    The period integral splits into two arcs; ``s`` interpolates between the
    p2-parameterized arc (s = 0) and the p3-parameterized arc (s = 1).  Both
    evaluate to the same number (a sixth of the rotation number integral),
    so s is a pure consistency dial:

        S = -(1/pi) [(1 - s) I1 + s I2].

    Oracle for ``S_closed_form``: the quadrature route of the three period
    routes, sharing no code with the AGM or the ODE route.
    """
    unit = _unit(m)
    a, b, c, d, l = _real_chamber_coords(m)
    a, b, c, d = a / unit, b / unit, c / unit, d / unit

    # The arcs are integrated on the sphere with 2 l = 1; l enters only as
    # the prefactor 1/sqrt(2 l).
    # Arc in the p2 coordinate: p2 ranges over (-P, P).
    P = math.sqrt((a - d) / (a - b))

    def g1(x, dlo, dhi):
        # Q1 = (a - b)(P - x)(P + x), Q2 = (d - c) - (b - c) x^2;
        # the product is positive in both chamber orientations.
        q2 = (d - c) - (b - c) * x * x
        prod = (a - b) * dlo * dhi * q2
        return 1.0 / math.sqrt(prod)

    # Arc in the p3 coordinate: p3 ranges over (-P3, P3).
    P3 = math.sqrt((a - d) / (a - c))

    def g2(x, dlo, dhi):
        g1v = (d - b) + (b - c) * x * x
        prod = (a - c) * dlo * dhi * g1v
        return 1.0 / math.sqrt(prod)

    # An arc of weight 0 is not integrated.
    i1 = tanh_sinh(g1, -P, P) / 3.0 if s != 1.0 else 0.0
    i2 = tanh_sinh(g2, -P3, P3) / 3.0 if s != 0.0 else 0.0
    value = -((1.0 - s) * i1 + s * i2) / (math.pi * math.sqrt(2.0 * l)) / unit
    return PeriodValue(value, "sigma1_axis", m)


def quadrature_tau_integral(m: ModuliPoint) -> PeriodValue:
    """The connecting-cycle period by real quadrature of hyperbolic arcs.

    The cycle decomposes into two conjugate arcs crossing the separatrix and
    a pair of arcs whose contributions cancel; parameterizing by u = tanh of
    the hyperbolic angle gives two real integrals J1 (inner, 0 to u*) and J2
    (outer, u* to 1) with u* = 1/sqrt(1 - lam) and lam the classical
    cross-ratio (negative in the chamber).  The total is

        value = -(2 / (2 pi)) * pref * (J2 - i J1),

    which lands on S(c, b, a, d) = S1 + S2 evaluated at d - i0.

    Oracle for ``S_closed_form`` on the connecting cycle: it never calls K.
    """
    a, b, c, d, l = _real_chamber_coords(m)
    lam = lambda_proof(m).real
    if lam >= 0.0:
        raise DomainError(f"connecting cycle needs lambda < 0, got {lam!r}")
    ustar = 1.0 / math.sqrt(1.0 - lam)
    one_m = 1.0 - lam

    def g_inner(u, dlo, dhi):
        # dhi = u* - u; regular at u = 0, inverse-sqrt at u*.
        prod = one_m * dhi * (ustar + u) * (1.0 - u) * (1.0 + u)
        return 1.0 / math.sqrt(prod)

    def g_outer(u, dlo, dhi):
        # dlo = u - u*, dhi = 1 - u; inverse-sqrt at both ends.
        prod = one_m * dlo * (u + ustar) * dhi * (1.0 + u)
        return 1.0 / math.sqrt(prod)

    j1 = tanh_sinh(g_inner, 0.0, ustar)
    j2 = tanh_sinh(g_outer, ustar, 1.0)

    pref = 2.0 / (3.0 * math.sqrt(2.0 * l * abs(a - c) * abs(d - b)))
    value = -pref * (j2 - 1j * j1) / math.pi
    return PeriodValue(value, "tau", m)


# ----------------------------------------------------------------------
# Identity and covariance checks.

def verify_connection_identity(m: ModuliPoint) -> float:
    """|S(a,b,c,d) + S(b,a,c,d) - S(c,b,a,d)| with the d - i0 convention.

    Vanishes identically (the three are values of one period lattice); the
    returned residual is limited only by rounding.
    """
    s1, s2, s3 = (S_closed_form(m.reorder(order)).value for order in _CLASS_ORDERS.values())
    return abs(s1 + s2 - s3)


@dataclass(frozen=True)
class SymmetryRow:
    order: str
    value: complex
    class_key: str
    deviation: float
    cut_resolved: bool
    flagged: bool


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of evaluating S on all 24 slot orderings of one point.

    The orderings partition into three classes of eight by which label shares
    a slot pair with d (the class key); within a class, rows that stayed on
    the principal branch agree to rounding, and rows that crossed a cut are
    flagged.  Every summary is read from the rows; ``stabilizer`` lists the
    orderings in the identity's class.
    """

    moduli: ModuliPoint
    rows: tuple[SymmetryRow, ...]

    @property
    def class_values(self) -> dict:
        """Each class's value, that of its representative ordering."""
        return {r.class_key: r.value for r in self.rows if r.order == _CLASS_ORDERS[r.class_key]}

    @property
    def class_sizes(self) -> dict:
        out: dict = {}
        for row in self.rows:
            out[row.class_key] = out.get(row.class_key, 0) + 1
        return out

    @property
    def max_unflagged_deviation(self) -> float:
        return max([0.0] + [r.deviation for r in self.rows if not r.flagged])

    @property
    def flagged_count(self) -> int:
        return len(self.flagged_rows)

    @property
    def cut_resolved_count(self) -> int:
        return sum(r.cut_resolved for r in self.rows)

    @property
    def stabilizer(self) -> tuple[str, ...]:
        """The orderings in the identity's class S1: the relabellings that
        keep d paired with a, a group of order 8 under composition."""
        return tuple(r.order for r in self.rows if r.class_key == "S1")

    @property
    def flagged_rows(self) -> tuple[SymmetryRow, ...]:
        return tuple(r for r in self.rows if r.flagged)


def verify_symmetries(m: ModuliPoint, rtol: float = 1e-9) -> SymmetryReport:
    """Evaluate S on all 24 orderings and report the class structure.

    A row is flagged when its value deviates from its class representative
    by more than rtol (relatively); every flagged row must have crossed a
    branch cut on the way (``cut_resolved``), so the flag count is bounded
    by the number of cut-resolved rows.

    The point must be real, to _REAL_RTOL of its scale, and is evaluated at
    its real parts: off the axis, even by 1e-13, the principal square root
    puts some orderings on the other sheet without crossing a cut.
    """
    from itertools import permutations

    if not m.is_real(_REAL_RTOL * m.scale()):
        raise DomainError("the covariance report requires a real moduli point")
    real = ModuliPoint(*(z.real for z in m.coords()), l=m.l)
    reps: dict[str, complex] = {}
    raw = []
    for order in map("".join, permutations("abcd")):
        pv = S_closed_form(real.reorder(order))
        # Slot pairing is {1,4} vs {2,3}; the class is named after the first
        # label of its representative, the one sharing a slot pair with d.
        partner = order[3 - order.index("d")]
        key = next(k for k, rep in _CLASS_ORDERS.items() if rep[0] == partner)
        raw.append((order, pv, key))
        if order == _CLASS_ORDERS[key]:
            reps[key] = pv.value

    rows = []
    for order, pv, key in raw:
        rep = reps[key]
        dev = abs(pv.value - rep) / max(abs(rep), 1e-300)
        flagged = dev > rtol
        if flagged and not pv.branch_flagged:
            raise AssertionError(
                f"ordering {order} deviates without crossing a cut; branch bookkeeping is broken"
            )
        rows.append(SymmetryRow(order, pv.value, key, dev, pv.branch_flagged, flagged))
    return SymmetryReport(m, tuple(rows))
