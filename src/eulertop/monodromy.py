"""Monodromy of the period lattice over the moduli space.

Loops move one coordinate of (a, b, c, d) around another while the remaining
coordinates stay frozen; the two-dimensional space of periods comes back
transformed by an integer matrix.  That matrix is topological: the
crossings of the induced cross-ratio path with the cuts (-inf, 0] and
(1, inf) spell a word in two exact generators, and the sign flips of the
square-root prefactors, kept continuous along the path, conjugate it into
the period frame.  One frame of value/derivative germs, seeded from F and
F' wherever the start's cross-ratio lies off the real axis and transported
along the same path, checks the word numerically: a loop's result is its
integer matrix and that check's residual.  F and F' come from the AGM that
gives K (``special._F_closed``), at every seed.

This module also holds the one transport kernel of the hypergeometric
equation, ``_transport_germs``: Taylor transport of germ rows (value,
derivative) along a path given as a sequence of points, followed as a
polyline, and the two errors it raises.  The local bases in the same rows,
the transport's check reference, live with the tests (``tests/oracles.py``).
The connection data between those bases live in the crossing word alone,
as its two exact generators.  The stated integer matrices the preset loops
realize, and their exact algebra, live in ``lattice``.

Everything here is scalar Python (``math``, ``cmath``, lists and tuples), so
this module needs no numpy; a 2x2 matrix is a tuple of two row
tuples.

Frames.  The engine's working frame is (S3, S1) = (S(c,b,a,d), S(a,b,c,d)).
All matrices act on column vectors of frame values, and loops are
counterclockwise for positive winding.  ``preset_monodromy`` alone turns a
result into the frame and orientation of its stated matrix.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from numbers import Integral

from .core import (
    DEGENERACY_RTOL,
    LABELS,
    CoincidentModuliError,
    ComputationError,
    DomainError,
    FrozenRecord,
    ModuliPoint,
    cross_ratio,
    ldexp,
    linspace,
    require_finite,
    unit_exponent,
)
from .lattice import GENERATOR_LABELS, PRESETS, IntegerMatrix2, MonodromyError
from .special import _F_closed

__all__ = [
    "BASEPOINT",
    "ContinuationStallError",
    "ModuliLoop",
    "MonodromyResult",
    "PathTooCloseError",
    "loop_monodromy",
    "preset_loop",
    "preset_monodromy",
]

# A 2x2 matrix, or a pair of (value, derivative) germs, as two row tuples.
Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

# The standard basepoint of every preset loop, in the chamber a > d > b > c.
# The non-energy coordinates sit 1e-3 below the real axis so that no
# cross-ratio sample is ever exactly on a cut; d stays real, matching the
# d - i0 convention of the period branch rules.
BASEPOINT = {"a": 3 - 1e-3j, "b": 2 - 1e-3j, "c": 1 - 1e-3j, "d": 2.5}

_EXTRACTION_TOL = 1e-6

# Transport samples on each turn of a loop's circle, the largest |winding|
# a loop may ask for, and the farthest its start may lie from the center in
# the loop's unit (see ``loop_monodromy``): the approach path takes 96 samples
# per unit of distance, so about 6,100 at this bound.
_SAMPLES_PER_TURN = 256
MAX_WINDING = 16
MAX_START_DISTANCE = 64.0


class PathTooCloseError(DomainError):
    """Continuation path passes too close to a singular point."""


class ContinuationStallError(ComputationError):
    """Continuation stepping stalled (required step below the minimum)."""


def _matmul(m: Matrix2, n: Matrix2) -> Matrix2:
    (p, q), (r, s) = m
    (w, x), (y, z) = n
    return ((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z))


# ----------------------------------------------------------------------
# Germ transport.  A germ is a (value, derivative) pair of one solution at an
# ordinary point.  The equation is linear, so one Taylor step from z0 to
# z0 + h maps every germ by the same 2x2 transition matrix; a path is the
# ordered product of its steps' matrices.

# A Taylor step reaches at most this share of the distance to 0 or 1.
_STEP_FRACTION = 0.35

# The most Taylor terms a step sums: the order rule's value at a step of
# _STEP_FRACTION is 41, so the cap only guards against a longer step.
_TAYLOR_TERMS = 64

# log of the relative truncation a step's order aims at.
_LOG_TAIL = math.log(2.0 ** -56)

# The recurrence's factors (n + 1/2)**2 / ((n + 2)(n + 1)) and
# (n + 1)**2 / ((n + 2)(n + 1)), by n.
_RECURRENCE = tuple(
    ((n + 0.5) ** 2 / ((n + 2) * (n + 1)), (n + 1) / (n + 2)) for n in range(_TAYLOR_TERMS - 2)
)

# The transport takes no Taylor step below this.  A polyline that comes
# within _MIN_STEP / _STEP_FRACTION of 0 or 1 would need one, so it is
# refused before the first step.
_MIN_STEP = 1e-12


def _step_matrices(z0: complex, h: complex) -> tuple[complex, complex, complex, complex]:
    """Transition matrix (m00, m01, m10, m11) of the Taylor step z0 -> z0 + h.

    Column j is the (value, derivative) germ at z0 + h of the solution whose
    germ at z0 is the unit vector e_j; both run through the Taylor recurrence
    of the equation together.  The step needs 0 < |h| < dist, the distance
    from z0 to the nearer of 0 and 1.

    Order rule: the step sums n = min(64, ceil(log 2**-56 / log(|h|/dist)) + 4)
    terms.  The terms fall off like (|h|/dist)**k, so the first one left
    out is about 2**-56 (|h|/dist)**4 of the leading one: 41 terms at a step
    of _STEP_FRACTION, 6 at a step of 1e-10 dist.  Value and derivative are
    summed by Horner's rule.

    The coefficients a_n grow like dist**-n, so they are carried as a_n r**n
    and the powers as (h / r)**n, with r the power of two just above |h|.
    Scaling by a power of two is exact, so the terms a_n h**n come out as if
    unscaled, but neither factor overflows or underflows near 0 or 1.
    """
    size = abs(h)
    dist = min(abs(z0), abs(z0 - 1.0))
    n = min(_TAYLOR_TERMS, math.ceil(_LOG_TAIL / math.log(size / dist)) + 4)
    r = math.ldexp(1.0, math.frexp(size)[1])
    s = z0 * (1.0 - z0)
    e = r * r / s
    f = (1.0 - 2.0 * z0) * r / s
    u = [1.0 + 0j, 0j]
    v = [0j, complex(r)]
    for k, (alpha, beta) in enumerate(_RECURRENCE[: n - 2]):
        p, q = alpha * e, beta * f
        u.append(p * u[k] - q * u[k + 1])
        v.append(p * v[k] - q * v[k + 1])
    x = h / r
    u_val, v_val, u_der, v_der = u[-1], v[-1], 0j, 0j
    for k in range(n - 2, -1, -1):
        u_der = u_der * x + u_val
        v_der = v_der * x + v_val
        u_val = u_val * x + u[k]
        v_val = v_val * x + v[k]
    return u_val, v_val, u_der / r, v_der / r


def _closest_approach(zs: Sequence[complex]) -> float:
    """Distance from the polyline zs to the nearer of 0 and 1."""
    best = min(min(abs(z), abs(z - 1.0)) for z in zs)
    for p, q in zip(zs, zs[1:]):
        d = q - p
        length2 = d.real * d.real + d.imag * d.imag
        for s in (0.0, 1.0):
            # The foot of the perpendicular from s, where it falls inside.
            t = ((s - p) * d.conjugate()).real / length2 if length2 else 0.0
            if 0.0 < t < 1.0:
                best = min(best, abs(p + t * d - s))
    return best


def _transport_germs(
    zs: Sequence[complex], germs: Iterable[tuple[complex, complex]]
) -> tuple[tuple[complex, complex], ...]:
    """Transport germ rows (value, derivative) along the polyline zs.

    Path gate: a polyline, segments included, that comes within
    _MIN_STEP / _STEP_FRACTION (about 2.86e-12) of 0 or 1 raises
    PathTooCloseError before the first step.  This is the one clearance
    rule for every path the engine follows.

    Step rule: a step from node z reaches at most _STEP_FRACTION times the
    distance from z to the nearer of 0 and 1.  It jumps to the farthest
    later sample such that every sample up to that one lies within this
    reach; the reach is a disc, which is convex and holds neither 0 nor 1,
    so the chord continues the germs as the polyline would.  If the next
    sample is already out of reach, the step goes that far toward it.
    Every node lies on the polyline, so after the gate no reach falls below
    _MIN_STEP; a reach that still does, or sub-stepping that does not end,
    raises ContinuationStallError.

    Each step's matrix (``_step_matrices``) is applied to the rows as soon
    as it is built.  Its oracle is the test-only ``_ode_transport`` in
    ``tests/test_monodromy.py``, next to the transport's tests, which
    integrates the same ODE with scipy's DOP853 instead, one chord at a time.
    """
    points = [complex(z) for z in zs]
    bound = _MIN_STEP / _STEP_FRACTION
    closest = _closest_approach(points)
    if closest < bound:
        raise PathTooCloseError(
            f"the path passes within {closest:.3g} of a singular point; "
            f"the germ transport needs {bound:.3g}"
        )
    rows = [(complex(f), complex(d)) for f, d in germs]
    z = points[0]
    i, last, partial = 0, len(points) - 1, 0
    while i < last:
        allowed = _STEP_FRACTION * min(abs(z), abs(z - 1.0))
        if allowed < _MIN_STEP:
            raise ContinuationStallError(
                f"step size collapsed to {allowed:.3g} near z = {z:.6g}"
            )
        gap = points[i + 1] - z
        if abs(gap) > allowed:
            target = z + gap * (allowed / abs(gap))
            partial += 1
            if partial > 100000:
                raise ContinuationStallError("sub-stepping did not terminate")
        else:
            i += 1
            while i < last and abs(points[i + 1] - z) <= allowed:
                i += 1
            target, partial = points[i], 0
        if target != z:
            m00, m01, m10, m11 = _step_matrices(z, target - z)
            rows = [(m00 * f + m01 * d, m10 * f + m11 * d) for f, d in rows]
        z = target
    return tuple(rows)


# ----------------------------------------------------------------------
# Loops in moduli space and the matrices they produce.


def _is_number(value) -> bool:
    """A JSON number: an int or a float, and not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ModuliLoop(FrozenRecord):
    """One coordinate circling a center while the other three stay frozen.

    Attributes
    ----------
    move : str
        Which coordinate moves.
    center : complex
        Center of the circle (normally a frozen coordinate's value).
    radius : float
        Must be smaller than the distance from the center to every frozen
        coordinate, so exactly one discriminant line is encircled.
    winding : int
        Nonzero and not a bool, at most ``MAX_WINDING`` in absolute value;
        positive is counterclockwise.
    frozen : dict
        Values of the three non-moving coordinates.
    start : complex, optional
        Where the mover begins and ends, at most ``MAX_START_DISTANCE``
        from the center in the loop's unit, the power of two that
        ``loop_monodromy`` divides by.  Defaults to a
        point on the ray from the center through theta = 0, two radii out.
        A start on the circle, to rounding, begins the circle itself.

    Every value must be finite, and no two of the four coordinates at the
    start may coincide (``ModuliPoint.coincident_pairs``); a bad value
    raises ValueError naming its key or pair.
    """

    # _unit is derived, not a field: the unit_exponent of the start's scale.
    __slots__ = ("move", "center", "radius", "winding", "frozen", "start", "_unit")

    def __init__(self, move: str, center: complex, radius: float, winding: int, frozen: dict,
                 start: complex | None = None) -> None:
        super().__init__(move, center, radius, winding, frozen, start)
        if self.move not in LABELS:
            raise ValueError(f"move must be one of {LABELS}, got {self.move!r}")
        expected = set(LABELS) - {self.move}
        if set(self.frozen) != expected:
            raise ValueError(f"frozen must have keys {sorted(expected)}, got {sorted(self.frozen)}")
        if not (isinstance(self.winding, Integral) and not isinstance(self.winding, bool) and self.winding != 0):
            raise ValueError(f"winding must be a nonzero integer, got {self.winding!r}")
        if abs(self.winding) > MAX_WINDING:
            raise ValueError(f"|winding| must be at most {MAX_WINDING}, got {self.winding!r}")
        values = {"center": self.center, "radius": self.radius, "start": self.start}
        values.update((f"frozen.{k}", v) for k, v in self.frozen.items())
        for key, value in values.items():
            if value is not None:
                require_finite(f"loop key {key!r}", value)
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        point = ModuliPoint(*_coordinates(self, self.effective_start()))
        object.__setattr__(self, "_unit", unit_exponent(point.scale()))
        distance = ldexp(abs(self.effective_start() - complex(self.center)), self._unit)
        if not distance <= MAX_START_DISTANCE:
            raise ValueError(
                f"start must lie within {MAX_START_DISTANCE:g} of the center in the loop's unit "
                f"2**{-self._unit}, got distance {distance:.6g}"
            )
        pairs = point.coincident_pairs()
        if pairs:
            x, y = pairs[0]
            raise CoincidentModuliError(pairs[0], f"the loop starts on the discriminant: coordinates {x} = {y}")
        # The circle may enclose at most the frozen coordinate at its center,
        # to DEGENERACY_RTOL of the start's scale; every other frozen value
        # must stay strictly outside.
        distances = [abs(complex(v) - complex(self.center)) for v in self.frozen.values()]
        clearance = min((x for x in distances if x > DEGENERACY_RTOL * point.scale()), default=math.inf)
        if self.radius >= clearance:
            raise ValueError(
                f"radius {self.radius} reaches another frozen coordinate "
                f"(clearance {clearance:.6g}); the loop must encircle exactly one line"
            )

    def effective_start(self) -> complex:
        if self.start is not None:
            return complex(self.start)
        return complex(self.center) + 2.0 * self.radius

    def to_json_dict(self) -> dict:
        frozen = {
            k: [complex(v).real, complex(v).imag] for k, v in self.frozen.items()
        }
        out = {
            "move": self.move,
            "center": [complex(self.center).real, complex(self.center).imag],
            "radius": self.radius,
            "winding": self.winding,
            "frozen": frozen,
        }
        if self.start is not None:
            out["start"] = [complex(self.start).real, complex(self.start).imag]
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ModuliLoop":
        """Read a loop from its JSON form; a missing, unknown or ill-typed key
        raises ValueError naming the key.  A number is an int or a float, not a
        bool, and a pair is a list of exactly two numbers.  Values are
        checked by ``__init__``."""
        if not isinstance(data, dict):
            raise ValueError(f"a loop must be a JSON object, got {type(data).__name__}")
        missing = [k for k in ("move", "center", "radius", "winding", "frozen") if k not in data]
        if missing:
            raise ValueError(f"loop is missing required keys {missing}")
        unknown = sorted(set(data) - set(ModuliLoop._fields))
        if unknown:
            raise ValueError(f"unknown loop keys {unknown}")

        def _c(key, v):
            if not (_is_number(v) or isinstance(v, list) and len(v) == 2 and all(map(_is_number, v))):
                raise ValueError(f"loop key {key!r} must be a number or [re, im] pair, got {v!r}")
            try:
                return complex(*v) if isinstance(v, list) else complex(v)
            except OverflowError:
                raise ValueError(f"loop key {key!r} must be finite, got {v!r}") from None

        if not isinstance(data["frozen"], dict):
            raise ValueError(f"loop key 'frozen' must be an object of coordinates, got {data['frozen']!r}")
        if not _is_number(data["radius"]):
            raise ValueError(f"loop key 'radius' must be a number, got {data['radius']!r}")
        try:
            radius = float(data["radius"])
        except OverflowError:
            raise ValueError(f"loop key 'radius' must be finite, got {data['radius']!r}") from None
        return ModuliLoop(
            move=data["move"],
            center=_c("center", data["center"]),
            radius=radius,
            winding=data["winding"],
            frozen={k: _c(f"frozen.{k}", v) for k, v in data["frozen"].items()},
            start=_c("start", data["start"]) if "start" in data else None,
        )


def preset_loop(move: str, around: str, winding: int = 1) -> ModuliLoop:
    """A loop of radius 0.2 at ``BASEPOINT``: ``move`` circles ``around``."""
    if move not in LABELS:
        raise ValueError(f"move must be one of {LABELS}, got {move!r}")
    if around not in LABELS or around == move:
        raise ValueError(f"around must be a coordinate other than {move!r}")
    frozen = {k: v for k, v in BASEPOINT.items() if k != move}
    return ModuliLoop(
        move=move,
        center=frozen[around],
        radius=0.2,
        winding=winding,
        frozen=frozen,
        start=BASEPOINT[move],
    )


def _approach_points(start: complex, entry: complex, frozen: Iterable[complex]) -> list[complex]:
    """Path from the basepoint to the circle entry.

    A straight chord unless it collides with a frozen coordinate, in which
    case it bows downward (the side all basepoint offsets live on).  Bowing
    is reserved for genuine collisions so that near misses keep the side
    the chord already chose.
    """
    chord = entry - start
    t = linspace(1.0, max(48, int(48 * abs(chord) / 0.5) + 1))
    blocked = False
    for value in frozen:
        w = (complex(value) - start) / chord
        if 0.02 < w.real < 0.98 and abs(w.imag) * abs(chord) < 1e-4:
            blocked = True
    if not blocked:
        return [start + s * chord for s in t]
    control = 0.5 * (start + entry) - 0.04j
    points = [(1 - s) ** 2 * start + 2 * s * (1 - s) * control + s**2 * entry for s in t]
    for value in frozen:
        if min(abs(p - value) for p in points) < 1e-4:
            raise MonodromyError(
                f"approach path cannot clear the frozen coordinate {value}"
            )
    return points


def _loop_point_samples(loop: ModuliLoop) -> list[complex]:
    """Sample the mover's path: radial approach, circle(s), and return; a
    start on the circle has no approach."""
    center = complex(loop.center)
    start = loop.effective_start()
    # Enter the circle where the radial ray from the start hits it, so the
    # approach never pierces the disc.
    theta0 = math.atan2((start - center).imag, (start - center).real)
    entry = center + loop.radius * cmath.exp(1j * theta0)
    turns = linspace(2.0 * math.pi * loop.winding, _SAMPLES_PER_TURN * abs(loop.winding) + 1)
    circle = [center + loop.radius * cmath.exp(1j * (theta0 + t)) for t in turns[1:]]
    if entry == start:
        # The start lies on the circle to rounding: no approach, and the
        # circle closes on the start itself.
        return [start, *circle[:-1], start]
    approach = _approach_points(start, entry, loop.frozen.values())
    return approach + circle + approach[-2::-1]


def _coordinates(loop: ModuliLoop, mover: complex) -> tuple[complex, complex, complex, complex]:
    """a, b, c, d with the mover's value in its slot."""
    return tuple(mover if name == loop.move else complex(loop.frozen[name]) for name in LABELS)


def _continuous_sqrt(values: Iterable[complex]) -> list[complex]:
    """Square root along a path, branch chosen by continuity from sample 0:
    each root's sign is the product of the flips of the principal roots up
    to it."""
    out, prev, negated = [], None, False
    for w in values:
        r = cmath.sqrt(w)
        if prev is not None and abs(r - prev) > abs(r + prev):
            negated = not negated
        out.append(-r if negated else r)
        prev = r
    return out


def _seed_germs(mu0: complex) -> Matrix2:
    """Germs (value, d/dmu) of the numerator solutions at the basepoint.

    Row 0 belongs to S3's numerator F(1 - mu) + sigma i F(mu), sigma the
    sign of Im mu0 (the atInf member, re-expressed through K(1 - mu) and
    K(mu) on the basepoint's side of the axis), row 1 to S1's numerator
    F(mu).  Off the real axis neither F is on its cut, so mu0 may lie
    anywhere there.
    """
    if mu0.imag == 0.0:
        raise MonodromyError("basepoint cross-ratio is real; offsets are required")
    sgn = 1.0 if mu0.imag > 0.0 else -1.0
    g1 = _F_closed(mu0)
    f, fd = _F_closed(1.0 - mu0)
    return (sgn * 1j * g1[0] + f, sgn * 1j * g1[1] - fd), g1


def _loop_path(loop: ModuliLoop):
    """The cross-ratio polyline of a loop's samples, with the start and end
    values of the two square-root prefactors sqrt(R2), sqrt(R1), where
    R1 = (d - c)(a - b) and R2 = (d - c)(b - a); the roots are continued
    by closeness so sign flips under full turns are captured.
    """
    coords = [_coordinates(loop, z) for z in _loop_point_samples(loop)]
    mu = [cross_ratio(*point) for point in coords]
    r1 = _continuous_sqrt([(d - c) * (a - b) for a, b, c, d in coords])
    r2 = _continuous_sqrt([(d - c) * (b - a) for a, b, c, d in coords])
    return mu, (r2[0], r1[0]), (r2[-1], r1[-1])


# The crossing word.  F(m) = (2/pi) K(m) = 2F1(1/2, 1/2; 1; m) is cut along
# [1, inf) and F(1 - mu) along (-inf, 0].  Carried along a path, the seed rows
# g5 = F(1 - mu) + sigma i F(mu), g1 = F(mu), sigma = sign Im mu0, are T @ the
# principal (g5, g1), T = I at the start.  T changes where the path crosses a
# cut, by the jump K(m + i0) - K(m - i0) = 2i K(1 - m), m > 1, of the branch
# it leaves.  Down through (-inf, 0] (counterclockwise about 0) 1 - mu crosses
# (1, inf) upward: the continued F(1 - mu) is the principal one minus 2i F(mu)
# and F(mu) does not jump, so T <- T @ [[1, -2i], [0, 1]].  Up through (1, inf)
# (counterclockwise about 1) the continued F(mu) is g1 - 2i F(1 - mu), with
# F(1 - mu) = g5 - sigma i g1 unjumped: g1 -> -2i g5 + (1 - 2 sigma) g1 and
# g5 -> (1 + 2 sigma) g5 - 2i g1, so T <- T @ [[1 + 2 sigma, -2i], [-2i, 1 - 2 sigma]].
# A crossing the other way multiplies by the inverse; (0, 1) is no cut.

def _word_matrix(mu: Sequence[complex], roots0: tuple[complex, complex],
                 roots1: tuple[complex, complex]) -> Matrix2:
    """Monodromy of the closed cross-ratio polyline mu in the engine frame,
    from its chords' cut crossings; a sample with Im mu = 0 counts as above
    the axis, so touching a cut without crossing it adds nothing.  With the
    prefactor roots D = diag(sqrt(R2), sqrt(R1)) at the start and f D at the
    end, f = diag(+-1), the matrix f D^-1 T D is T_ij roots0[j] / roots1[i]."""
    sigma = 1 if mu[0].imag > 0.0 else -1
    g0, g0_inv = ((1, -2j), (0, 1)), ((1, 2j), (0, 1))
    g1 = ((1 + 2 * sigma, -2j), (-2j, 1 - 2 * sigma))
    g1_inv = ((1 - 2 * sigma, 2j), (2j, 1 + 2 * sigma))
    word = ((1, 0), (0, 1))
    for p, q in zip(mu, mu[1:]):
        down = p.imag >= 0.0 > q.imag
        if down or q.imag >= 0.0 > p.imag:
            x = p.real + (q.real - p.real) * (p.imag / (p.imag - q.imag))
            if x < 0.0:
                word = _matmul(word, g0 if down else g0_inv)
            elif x > 1.0:
                word = _matmul(word, g1_inv if down else g1)
    return tuple(tuple(t * r / e for t, r in zip(row, roots0)) for row, e in zip(word, roots1))


class MonodromyResult(FrozenRecord):
    """A loop's integer matrix (its crossing word) and the residual of the
    one transported frame against it."""

    __slots__ = ("matrix", "residual")


def loop_monodromy(loop: ModuliLoop) -> MonodromyResult:
    """Monodromy matrix of one loop in the engine frame (S3, S1).

    ``matrix`` is the loop's crossing word (``_word_matrix``), rounded; a word
    more than 1e-9 from an integer matrix of determinant +1 raises
    MonodromyError.  One frame seeded at the basepoint is transported along
    the same path: ``residual`` is the largest entry of |end - M @ start|,
    and above 1e-6 raises MonodromyError.  A path too close to 0 or 1
    raises PathTooCloseError before any step.

    The loop is evaluated with every coordinate and the radius times 2**k,
    k the ``unit_exponent`` of the start's scale.  The cross-ratio is
    scale-free and the prefactor roots share one factor, which cancels, so
    the residual is absolute at the loop's unit scale.
    """
    k = loop._unit
    frozen = {x: ldexp(complex(v), k) for x, v in loop.frozen.items()}
    start = None if loop.start is None else ldexp(complex(loop.start), k)
    center, radius = ldexp(complex(loop.center), k), ldexp(loop.radius, k)
    loop = loop.replace(center=center, radius=radius, frozen=frozen, start=start)
    mu, roots0, roots1 = _loop_path(loop)
    germs = _seed_germs(mu[0])
    # The period germs S3, S1 as rows, each numerator over its root.
    first, last = (tuple(tuple(x / root for x in g) for g, root in zip(rows, roots))
                   for rows, roots in ((germs, roots0), (_transport_germs(mu, germs), roots1)))
    word = _word_matrix(mu, roots0, roots1)
    (p, q), (r, s) = rounded = tuple(tuple(round(x.real) for x in row) for row in word)
    if max(abs(x - n) for row, ns in zip(word, rounded) for x, n in zip(row, ns)) > 1e-9 or p * s - q * r != 1:
        raise MonodromyError(f"the crossing word {word} is not an integer matrix of determinant +1")
    predicted = _matmul(rounded, first)
    resid = max(abs(x - y) for row, want in zip(last, predicted) for x, y in zip(row, want))
    if resid > _EXTRACTION_TOL:
        raise MonodromyError(
            f"the transported frame disagrees with the crossing word {rounded}: "
            f"residual {resid:.3g} exceeds {_EXTRACTION_TOL}"
        )
    return MonodromyResult(IntegerMatrix2(rounded), resid)


def preset_monodromy(label: str) -> MonodromyResult:
    """The monodromy of a preset loop, in the frame and orientation of its
    stated matrix, so that ``matrix == PRESETS[label][2]``.

    The alphas are stated in the engine frame as counterclockwise loops and
    are reported as computed.  The generators are stated in the (S1, S3)
    frame as clockwise loops: the counterclockwise loop's ((p, q), (r, s))
    is swapped into that frame, which reverses both rows and columns, and
    inverted, both exactly, to ((p, -r), (-q, s)), with that loop's residual.
    """
    if label not in PRESETS:
        raise ValueError(f"unknown preset {label!r}")
    move, around, _ = PRESETS[label]
    got = loop_monodromy(preset_loop(move, around))
    if label not in GENERATOR_LABELS:
        return got
    (p, q), (r, s) = got.matrix.entries
    return MonodromyResult(IntegerMatrix2(((p, -r), (-q, s))), got.residual)
