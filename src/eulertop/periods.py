"""Periods of the reduced rigid body as functions on moduli space.

The central object is the normalized period

    S(a, b, c, d) = -(1/(3 pi)) sqrt(2/l) K(mu) / sqrt((d - c)(a - b)),

    mu = (d - a)(b - c) / ((d - c)(b - a)),

evaluated with a definite branch convention: every on-cut quantity is taken
at the d - i0 limit (the energy approaches real values from below).  K gets
1 - mu as its own cross-ratio, (d - b)(a - c) / ((d - c)(a - b)), so S keeps
its digits next to the separatrix, where mu is near 1.  The
rotation period of the body on the orbit with energy ratio d is
T = 6 pi |S| in the elliptic chambers.

The module provides the closed form, two independent quadrature routes
(one real arc for the elliptic cycles and a hyperbolic-arc decomposition
for the connecting cycle), the three-term identity checker,
the 24-fold covariance report, and ``period_report``, which sets the closed
form, the real-arc quadrature and the ODE route side by side on a grid.  Each period route returns the number it
computes: a complex, or a float for the real arc.  The exact rational series
of the inverse Birkhoff normal form lives in ``birkhoff``.
"""

from __future__ import annotations

import functools
import math

from .core import (
    CoincidentModuliError,
    DomainError,
    FrozenRecord,
    InertiaSpec,
    ModuliPoint,
    cross_ratio,
    ldexp,
)
from .special import _K_sided, _sqrt_sided

__all__ = [
    "S_closed_form",
    "SymmetryReport",
    "euler_period",
    "period_report",
    "phi_prime",
    "quadrature_sigma_integral",
    "quadrature_tau_integral",
    "tanh_sinh",
    "verify_connection_identity",
    "verify_symmetries",
]

# The period classes as reorderings of one point: S1 = S(a,b,c,d),
# S2 = S(b,a,c,d) and S3 = S(c,b,a,d), the values behind the axis families
# p1, p2 and p3.
_CLASS_ORDERS = {"S1": "abcd", "S2": "bacd", "S3": "cbad"}


def _d_side(dq_dd: complex) -> int:
    """The side q takes at d - i0: under d -> d - i delta, q picks up
    -i delta dq/dd."""
    return -1 if complex(dq_dd).real > 0.0 else +1


def S_closed_form(m: ModuliPoint) -> complex:
    """The normalized period S at a moduli point, branch-resolved at d - i0,
    as a complex number.

    Singular loci: (d - c)(b - a) = 0 makes the cross-ratio undefined and
    (d - b)(c - a) = 0 puts K at its logarithmic singularity; both raise.
    The coincidences d = a and b = c are regular (mu = 0) and allowed.
    Evaluated at ``m.at_unit_scale()`` and scaled back by 2**(k + j).
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

    u, k, j = m.at_unit_scale()
    a, b, c, d = u.coords()
    # Coincident pairs c, d and a, b, the poles of mu, were refused above.
    # K takes 1 - mu as the cross-ratio with a and b swapped,
    # (d - b)(a - c) / ((d - c)(a - b)), exact to rounding where mu is near 1.
    mu, mu_c = cross_ratio(a, b, c, d), cross_ratio(b, a, c, d)
    # Both cuts are taken at d - i0; K ignores the side off its cut.
    dmu_dd = (b - c) * (a - c) / ((b - a) * (d - c) ** 2)
    # mu_c is nonzero, since coincidences b, d and a, c were refused above.
    kval = _K_sided(mu, mu_c, _d_side(dmu_dd))
    radicand = (d - c) * (a - b)
    root = _sqrt_sided(radicand, _d_side(a - b))

    value = -math.sqrt(2.0 / u.l) / (3.0 * math.pi) * kval / root
    return ldexp(value, k + j, lambda: f"S at {m!r}")


def phi_prime(axis: str, m: ModuliPoint) -> complex:
    """Derivative of the rotation-number half-periods along one axis family,
    as a complex number.

    axis "p1" is S(a, b, c, d) itself; "p3" relabels to S(c, b, a, d);
    "p2" (the hyperbolic connecting family) is -i S(b, a, c, d).
    """
    if axis == "p1":
        return S_closed_form(m)
    if axis == "p3":
        return S_closed_form(m.reorder(_CLASS_ORDERS["S3"]))
    if axis == "p2":
        return -1j * S_closed_form(m.reorder(_CLASS_ORDERS["S2"]))
    raise ValueError(f"axis must be 'p1', 'p2' or 'p3', got {axis!r}")


def euler_period(m: ModuliPoint, axis: str = "p1") -> float:
    """Rotation period T = 6 pi |S| of the orbit family around an axis.

    Check reference: the ODE route's tests compare ``orbit_period`` with it.
    """
    return 6.0 * math.pi * abs(phi_prime(axis, m))


def period_report(a: float, b: float, c: float, axis: str, grid_d, grid_l, tol: float) -> dict:
    """What ``eulertop period --format json`` prints: the three period routes
    on the (d, l) rows of the grid, l-major, at reciprocal moments a, b, c.

    A row holds a, b, c, d, l, ``S_closed``, ``S_quadrature``, ``S_ode`` =
    -T / (6 pi), and ``dev_quad`` and ``dev_ode``, the other two routes'
    deviations from the closed form relative to it; ``max_deviation`` is
    the largest.  Axis "p1" is S(a, b, c, d) and "p3" is S(c, b, a, d):
    each row is reordered once, and the closed form and the quadrature take
    that point; an S outside the float range is refused as S, or as
    S(c, b, a, d), at the row's own point.  The ODE route is
    ``orbit_period`` on the row's p2 = 0 orbit at tolerance
    min(1e-12, tol); no route loads numpy.  The three routes run row by
    row, so a route's refusal names the first row that fails.

    Refused before any route runs: moments that ``InertiaSpec`` refuses,
    then a b not strictly between a and c (DomainError), then a d within
    ``dynamics.SEPARATRIX_RTOL`` of b (SeparatrixError),
    then a d outside the axis's open gap, (b, a) for p1 and (c, b) for p3
    (DomainError), then a row that is no ``ModuliPoint``.
    """
    from .dynamics import SEPARATRIX_RTOL, MomentumState, SeparatrixError, orbit_period

    if axis not in ("p1", "p3"):
        raise ValueError(f"axis must be 'p1' or 'p3', got {axis!r}")
    grid = [(d, l) for l in grid_l for d in grid_d]
    # A degenerate a, b, c is named before the grid it puts on d = b.
    inertia = InertiaSpec.from_reciprocals(a, b, c)
    # Such moments have no elliptic chamber for any d; named by the moments.
    if not min(a, c) < b < max(a, c):
        raise DomainError(f"reciprocal moment b = {b!r} must lie strictly between a = {a!r} and c = {c!r}")
    # orbit_period refuses these rows too, but by energy and after the
    # other two routes have run on the row; here they are named by d, first.
    for d, _ in grid:
        if abs(d - b) < SEPARATRIX_RTOL * abs(b):
            raise SeparatrixError(
                f"grid point d = {d} sits on the separatrix (d = b); "
                "the rotation period diverges there"
            )
    far = a if axis == "p1" else c
    for d, _ in grid:
        if not min(b, far) < d < max(b, far):
            raise DomainError(f"grid point d = {d} lies outside the open gap ({b}, {far}) of axis {axis}")
    points = [ModuliPoint(a, b, c, d, l=l) for d, l in grid]
    order = _CLASS_ORDERS["S1" if axis == "p1" else "S3"]
    label = "S" if axis == "p1" else f"S({', '.join(order)})"
    rows = []
    for m in points:
        # Each row is taken at unit scale once.  The closed form and the
        # quadrature run there, where they do not scale back; the one
        # scaling here names a refusal at the point the caller gave.
        u, k, j = m.at_unit_scale()
        r = u.reorder(order)
        closed, quad = (
            ldexp(route(r), k + j, lambda: f"{label} at {m!r}")
            for route in (S_closed_form, quadrature_sigma_integral)
        )
        # The orbit's state, where 2 l (d - c) cannot overflow; bit for bit
        # the unscaled value wherever that is a normal float.
        ua, _, uc, ud = (z.real for z in u.coords())
        p1, p3 = (ldexp(math.sqrt(abs(2.0 * u.l * x / (ua - uc))), -j) for x in (ud - uc, ua - ud))
        s_ode = -orbit_period(MomentumState(p1, 0.0, p3), inertia, tol=min(1e-12, tol)) / (6.0 * math.pi)
        rows.append({
            "a": a, "b": b, "c": c, "d": m.d, "l": m.l,
            "S_closed": closed.real,
            "S_quadrature": quad,
            "S_ode": s_ode,
            "dev_quad": abs(closed - quad) / abs(closed),
            "dev_ode": abs(abs(closed) - abs(s_ode)) / abs(closed),
        })
    return {"rows": rows, "max_deviation": max(max(r["dev_quad"], r["dev_ode"]) for r in rows)}


# ----------------------------------------------------------------------
# Double-exponential quadrature with endpoint-distance bookkeeping.

# Nodes span |t| <= T_MAX; the spacing halves until the sum moves by TOL, at most LEVELS times.
_TANH_SINH_TOL = 5e-14
_TANH_SINH_LEVELS = 8
_TANH_SINH_T_MAX = 4.5


@functools.cache
def _tanh_sinh_nodes(level: int) -> tuple[tuple[bool, float, float, float], ...]:
    """The nodes that level ``level`` adds, on (-1, 1), built once per process.

    Each node is (upper, near, far, weight): whether it lies nearer the upper
    endpoint, its distances to the nearer and the farther endpoint, and its
    weight, all per unit half-width.  The nodes in t are dyadic, so each is
    exact: -T_MAX + i h on level 0, where h = 1, and the odd multiples
    -T_MAX + (2i + 1) h that each later level adds, h = 2**-level.
    """
    h = 2.0 ** -level
    if level == 0:
        ts = [-_TANH_SINH_T_MAX + i * h for i in range(int(2.0 * _TANH_SINH_T_MAX / h) + 1)]
    else:
        ts = [-_TANH_SINH_T_MAX + (2 * i + 1) * h for i in range(int(_TANH_SINH_T_MAX / h))]
    nodes = []
    for t in ts:
        w = 0.5 * math.pi * math.sinh(t)
        e2 = math.exp(-2.0 * abs(w))
        sech2 = (2.0 * math.sqrt(e2) / (1.0 + e2)) ** 2
        nodes.append((t >= 0.0, 2.0 * e2 / (1.0 + e2), 2.0 / (1.0 + e2), 0.5 * math.pi * math.cosh(t) * sech2))
    return tuple(nodes)


def tanh_sinh(g, lo: float, hi: float):
    """Tanh-sinh quadrature of g over (lo, hi) for inverse-sqrt endpoints.

    The integrand is called as g(x, dist_lo, dist_hi) where the distances to
    the endpoints are computed in a cancellation-free way, so dividing by
    their square roots stays accurate all the way into the corners.  The
    nodes come from one table per process, scaled by the half-width.
    """
    hal = 0.5 * (hi - lo)

    def sum_at(level):
        total = 0.0
        for upper, near, far, weight in _tanh_sinh_nodes(level):
            near, far = hal * near, hal * far
            if near == 0.0:
                continue  # beyond double precision: contribution underflows
            if upper:
                total += hal * weight * g(hi - near, far, near)
            else:
                total += hal * weight * g(lo + near, near, far)
        return total

    h = 1.0
    acc = h * sum_at(0)
    for level in range(1, _TANH_SINH_LEVELS + 1):
        h *= 0.5
        new = 0.5 * acc + h * sum_at(level)
        if abs(new - acc) <= _TANH_SINH_TOL * max(abs(new), 1e-300):
            return new
        acc = new
    return acc


# ----------------------------------------------------------------------
# Real arc quadratures.  Both require the real elliptic chamber; the sign
# pattern of (a-d, d-b, b-c) must be uniform (the two elliptic families are
# mirror images of each other under reversing all three).

def _real_chamber_coords(m: ModuliPoint) -> tuple[float, float, float, float, float]:
    if not m.is_real():
        raise DomainError("quadratures require a real moduli point")
    a, b, c, d = m.coords()
    a, b, c, d = a.real, b.real, c.real, d.real
    gaps = (a - d, d - b, b - c)
    if not (all(g > 0.0 for g in gaps) or all(g < 0.0 for g in gaps)):
        raise DomainError(
            "moduli point must lie in an elliptic chamber "
            "(a > d > b > c or its full reversal)"
        )
    return a, b, c, d, m.l


def quadrature_sigma_integral(m: ModuliPoint) -> float:
    """S on the elliptic family by real quadrature, bypassing K entirely, as
    a float.

    The cycle is one arc in the p2 coordinate, p2 over (-P, P) with
    P = sqrt((a - d)/(a - b)):

        S = -(1/(3 pi sqrt(2 l))) int dx / sqrt((a - b)(P^2 - x^2) Q(x)),

    Q(x) = (d - c) - (b - c) x^2.  Toward the separatrix d -> b, Q tends to
    zero only at the endpoints, where tanh-sinh places its nodes; the arc in
    p3 would put that near-zero at its midpoint, between the nodes, and lose
    digits there (7e-2 at 1e-6 of the gap).  Q is formed as
    (a - c)(d - b)/(a - b) + (b - c)(P - x)(P + x), from the endpoint
    distances, so it does not cancel at the nodes next to the endpoints.

    Oracle for ``S_closed_form``: the quadrature route of the three period
    routes, sharing no code with the AGM or the ODE route.
    """
    u, k, j = m.at_unit_scale()
    a, b, c, d, l = _real_chamber_coords(u)

    # The arc is integrated on the sphere with 2 l = 1; l enters only as
    # the prefactor 1/sqrt(2 l).
    P = math.sqrt((a - d) / (a - b))
    q_end = (a - c) * (d - b) / (a - b)

    def g(x, dlo, dhi):
        # (a - b)(P - x)(P + x) Q(x) is positive in both chamber orientations.
        q = q_end + (b - c) * dlo * dhi
        return 1.0 / math.sqrt((a - b) * dlo * dhi * q)

    value = -tanh_sinh(g, -P, P) / 3.0 / (math.pi * math.sqrt(2.0 * l))
    return ldexp(value, k + j, lambda: f"S at {m!r}")


def quadrature_tau_integral(m: ModuliPoint) -> complex:
    """The connecting-cycle period by real quadrature of hyperbolic arcs, as
    a complex number.

    The cycle decomposes into two conjugate arcs crossing the separatrix and
    a pair of arcs whose contributions cancel; parameterizing by u = tanh of
    the hyperbolic angle gives two real integrals J1 (inner, u from 0 to u*)
    and J2 (outer, u* to 1) with u* = 1/sqrt(1 - lam) and lam the classical
    ordering cross_ratio(a, c, b, d) (negative in the chamber).  The total is

        value = -(2 / (2 pi)) * pref * (J2 - i J1),

    which lands on S(c, b, a, d) = S1 + S2 evaluated at d - i0; in the
    reversed chamber a < d < b < c, on its conjugate, the value at d + i0.

    Neither integral forms 1 - u*, which rounds to nothing as d -> a.  J1 is
    taken in t = u/u*, as int_0^1 dt / sqrt(w (w + |lam|)) with
    w = (1 - t)(1 + t), and J2 in s, where u**2 = 1 - s + s/(1 - lam), as
    int_0^1 ds / sqrt(s (1 - s) u**2) / (2 sqrt(1 - lam)); every factor
    comes from the endpoint distances and |lam|.  J1's integrand turns over
    at 1 - t of about |lam|, which the nodes resolve down to |lam| of about
    1e-32, so the coincidences d = a and b = c, where S(c, b, a, d) is
    singular and |lam| vanishes, are refused as ``S_closed_form`` refuses
    them for that ordering; that keeps |lam| above about 2.5e-25.

    Oracle for ``S_closed_form`` on the connecting cycle: it never calls K.
    """
    for x, y in (("a", "d"), ("b", "c")):
        if (x, y) in m.coincident_pairs():
            raise CoincidentModuliError((x, y), f"S(c, b, a, d) is singular where {y} = {x}")
    u, k, j = m.at_unit_scale()
    a, b, c, d, l = _real_chamber_coords(u)
    # The chamber keeps d - b and c - a off zero and puts lam below 0 in both
    # orientations.
    lam = cross_ratio(a, c, b, d)
    one_m = 1.0 - lam

    def g_inner(t, dlo, dhi):
        # dhi = 1 - t; regular at t = 0, like 1/w toward 1 until w falls
        # below |lam|, then inverse-sqrt.
        w = dhi * (1.0 + t)
        return 1.0 / math.sqrt(w * (w - lam))

    def g_outer(s, dlo, dhi):
        # dlo = s, dhi = 1 - s; inverse-sqrt at both ends.
        return 1.0 / math.sqrt(dlo * dhi * (dhi + dlo / one_m))

    j1 = tanh_sinh(g_inner, 0.0, 1.0)
    j2 = tanh_sinh(g_outer, 0.0, 1.0) / (2.0 * math.sqrt(one_m))

    pref = 2.0 / (3.0 * math.sqrt(2.0 * l * abs(a - c) * abs(d - b)))
    value = -pref * (j2 - 1j * j1) / math.pi
    return ldexp(value, k + j, lambda: f"S(c, b, a, d) at {m!r}")


# ----------------------------------------------------------------------
# Identity and covariance checks.

def verify_connection_identity(m: ModuliPoint) -> float:
    """|S(a,b,c,d) + S(b,a,c,d) - S(c,b,a,d)| with the d - i0 convention.

    Vanishes identically (the three are values of one period lattice); the
    returned residual is limited only by rounding.
    """
    s1, s2, s3 = (S_closed_form(m.reorder(order)) for order in _CLASS_ORDERS.values())
    return abs(s1 + s2 - s3)


class SymmetryRow(FrozenRecord):
    """One ordering's value and its lattice vector: the value is
    p S1 + q S2 for ``vector`` (p, q), to within ``residual`` relative to
    max(|S1|, |S2|)."""

    __slots__ = ("order", "value", "class_key", "vector", "residual")


class SymmetryReport(FrozenRecord):
    """Outcome of evaluating S on all 24 slot orderings of one point.

    The orderings partition into three classes of eight by which label shares
    a slot pair with d (the class key).  Every value is a vector of the
    period lattice that S1 and S2 span; a row whose evaluation crossed a cut
    is another vector than its class representative.  Every summary is read
    from the rows; ``stabilizer`` lists the orderings in the identity's class.
    """

    __slots__ = ("rows",)

    @property
    def class_sizes(self) -> dict:
        out: dict = {}
        for row in self.rows:
            out[row.class_key] = out.get(row.class_key, 0) + 1
        return out

    @property
    def max_residual(self) -> float:
        return max(r.residual for r in self.rows)

    @property
    def stabilizer(self) -> tuple[str, ...]:
        """The orderings in the identity's class S1: the relabellings that
        keep d paired with a, a group of order 8 under composition."""
        return tuple(r.order for r in self.rows if r.class_key == "S1")


def verify_symmetries(m: ModuliPoint) -> SymmetryReport:
    """Evaluate S on all 24 orderings and write each value in the lattice basis.

    Each value v is p S1 + q S2, with S1 = S(a,b,c,d) and S2 = S(b,a,c,d):
    one real 2x2 solve of the real and imaginary parts gives p and q, which
    are rounded to integers, and the row's residual is
    |v - (p S1 + q S2)| / max(|S1|, |S2|).

    The point must be real (``ModuliPoint.is_real``) and is evaluated at
    its real parts: off the axis, even by 1e-13, the principal square root
    puts some orderings on the other sheet without crossing a cut.  Rows
    are solved at ``at_unit_scale()``, their values then scaled back.
    """
    from itertools import permutations

    if not m.is_real():
        raise DomainError("the covariance report requires a real moduli point")
    u, k, j = ModuliPoint(*(z.real for z in m.coords()), l=m.l).at_unit_scale()
    values = {order: S_closed_form(u.reorder(order)) for order in map("".join, permutations("abcd"))}
    s1, s2 = values[_CLASS_ORDERS["S1"]], values[_CLASS_ORDERS["S2"]]
    det = s1.real * s2.imag - s2.real * s1.imag
    basis_scale = max(abs(s1), abs(s2))

    rows = []
    for order, v in values.items():
        # Slot pairing is {1,4} vs {2,3}; the class is named after the first
        # label of its representative, the one sharing a slot pair with d.
        partner = order[3 - order.index("d")]
        key = next(name for name, rep in _CLASS_ORDERS.items() if rep[0] == partner)
        p = round((v.real * s2.imag - s2.real * v.imag) / det)
        q = round((s1.real * v.imag - v.real * s1.imag) / det)
        residual = abs(v - (p * s1 + q * s2)) / basis_scale
        scaled = ldexp(v, k + j, lambda: f"S({', '.join(order)}) at {m!r}")
        rows.append(SymmetryRow(order, scaled, key, (p, q), residual))
    return SymmetryReport(tuple(rows))
