"""Monodromy of the period lattice over the moduli space.

Loops move one coordinate of (a, b, c, d) around another while the remaining
coordinates stay frozen; the two-dimensional space of periods comes back
transformed by an integer matrix.  The engine transports value/derivative
germs of the hypergeometric solutions along the induced path of the
cross-ratio, keeps the square-root prefactors continuous, and extracts the
matrix from an over-determined solve against two independently seeded start
frames.

This module also holds the continuation engine of the hypergeometric
equation: the exact connection matrices between the local bases of
``special``, Taylor transport of germs along a path given as a 1-D array of
points (followed as a polyline; its winding is read from the points), and
``continue_frame``, which carries a whole ``SolutionFrame`` along such a
path.  The stated integer matrices the loops are compared with, and their
exact algebra, live in ``lattice``.

Frames and bases.  The engine's working frame is (S3, S1) = (S(c,b,a,d),
S(a,b,c,d)); stated generator matrices live in the (S1, S3) frame, one swap
away, and the swap reverses both rows and columns.  All matrices act on
column vectors of frame values, and loops are counterclockwise for positive
winding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable

import numpy as np

from .core import LABELS, cross_ratio
from .lattice import GENERATOR_LABELS, PRESETS, IntegerMatrix2, MonodromyError
from .special import (
    BASIS_IDS,
    LOG16,
    ContinuationStallError,
    PathTooCloseError,
    SolutionFrame,
    _local_frame,
)

__all__ = [
    "ConnectionMatrix",
    "ModuliLoop",
    "MonodromyResult",
    "chamber_basepoint",
    "connection",
    "continue_frame",
    "loop_monodromy",
    "numeric_vs_stated",
    "preset_loop",
    "preset_monodromy",
]

# Base chamber point for all preset loops.  The non-energy coordinates are
# pushed slightly below the real axis so that no cross-ratio sample is ever
# exactly on a cut; d stays real, matching the d - i0 convention of the
# period branch rules.
BASE_CHAMBER = {"a": 3.0, "b": 2.0, "c": 1.0, "d": 2.5}
PEER_OFFSET = -1e-3j

_EXTRACTION_TOL = 1e-6

# Transport samples on each turn of a loop's circle, the largest |winding|
# a loop may ask for, and the farthest its start may lie from the center:
# the approach path takes 96 samples per unit of distance, so about 6,100
# at this bound.
_SAMPLES_PER_TURN = 256
MAX_WINDING = 16
MAX_START_DISTANCE = 64.0


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
# Loops in moduli space and the matrices they produce.


@dataclass(frozen=True)
class ModuliLoop:
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
        Nonzero, at most ``MAX_WINDING`` in absolute value; positive is
        counterclockwise.
    frozen : dict
        Values of the three non-moving coordinates.
    start : complex, optional
        Where the mover begins and ends, at most ``MAX_START_DISTANCE``
        from the center.  Defaults to a point on the ray from the center
        through theta = 0, two radii out.
    """

    move: str
    center: complex
    radius: float
    winding: int
    frozen: dict
    start: complex | None = None

    def __post_init__(self) -> None:
        if self.move not in LABELS:
            raise ValueError(f"move must be one of {LABELS}, got {self.move!r}")
        expected = set(LABELS) - {self.move}
        if set(self.frozen) != expected:
            raise ValueError(f"frozen must have keys {sorted(expected)}, got {sorted(self.frozen)}")
        if not (isinstance(self.winding, Integral) and self.winding != 0):
            raise ValueError(f"winding must be a nonzero integer, got {self.winding!r}")
        if abs(self.winding) > MAX_WINDING:
            raise ValueError(f"|winding| must be at most {MAX_WINDING}, got {self.winding!r}")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        distance = abs(self.effective_start() - complex(self.center))
        if not distance <= MAX_START_DISTANCE:
            raise ValueError(
                f"start must lie within {MAX_START_DISTANCE:g} of the center, got distance {distance:.6g}"
            )
        # The circle may enclose at most the frozen coordinate at its center;
        # every other frozen value must stay strictly outside.
        others = [
            abs(complex(v) - complex(self.center))
            for v in self.frozen.values()
            if abs(complex(v) - complex(self.center)) > 1e-9
        ]
        clearance = min(others) if others else math.inf
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
        """Read a loop from its JSON form; a missing or ill-typed key raises
        ValueError naming the key."""
        if not isinstance(data, dict):
            raise ValueError(f"a loop must be a JSON object, got {type(data).__name__}")
        missing = [k for k in ("move", "center", "radius", "winding", "frozen") if k not in data]
        if missing:
            raise ValueError(f"loop is missing required keys {missing}")

        def _c(key, v):
            try:
                z = complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                finite = cmath.isfinite(z)
            except (TypeError, ValueError, IndexError):
                finite = False
            if not finite:
                raise ValueError(f"loop key {key!r} must be a finite number or [re, im] pair, got {v!r}")
            return z

        if not isinstance(data["frozen"], dict):
            raise ValueError(f"loop key 'frozen' must be an object of coordinates, got {data['frozen']!r}")
        try:
            radius = float(data["radius"])
        except (TypeError, ValueError):
            radius = math.nan
        if not math.isfinite(radius):
            raise ValueError(f"loop key 'radius' must be a finite number, got {data['radius']!r}")
        return ModuliLoop(
            move=data["move"],
            center=_c("center", data["center"]),
            radius=radius,
            winding=data["winding"],
            frozen={k: _c(f"frozen.{k}", v) for k, v in data["frozen"].items()},
            start=_c("start", data["start"]) if "start" in data else None,
        )


def chamber_basepoint(offset_scale: float = 1.0) -> dict:
    """The standard basepoint: chamber values with peers nudged off-axis."""
    out = {}
    for name, value in BASE_CHAMBER.items():
        out[name] = value if name == "d" else value + PEER_OFFSET * offset_scale
    return out


def preset_loop(move: str, around: str, winding: int = 1, *, radius: float = 0.2,
                offset_scale: float = 1.0) -> ModuliLoop:
    """A coordinate loop at the standard basepoint: ``move`` circles ``around``."""
    if move not in LABELS:
        raise ValueError(f"move must be one of {LABELS}, got {move!r}")
    if around not in LABELS or around == move:
        raise ValueError(f"around must be a coordinate other than {move!r}")
    base = chamber_basepoint(offset_scale)
    frozen = {k: v for k, v in base.items() if k != move}
    return ModuliLoop(
        move=move,
        center=frozen[around],
        radius=radius,
        winding=winding,
        frozen=frozen,
        start=base[move],
    )


def _approach_points(start: complex, entry: complex, frozen: Iterable[complex]) -> np.ndarray:
    """Path from the basepoint to the circle entry.

    A straight chord unless it collides with a frozen coordinate, in which
    case it bows downward (the side all basepoint offsets live on).  Bowing
    is reserved for genuine collisions so that near misses keep the side
    the chord already chose.
    """
    chord = entry - start
    n = max(48, int(48 * abs(chord) / 0.5) + 1)
    t = np.linspace(0.0, 1.0, n)
    points = start + t * chord
    blocked = False
    for value in frozen:
        w = (complex(value) - start) / chord
        if 0.02 < w.real < 0.98 and abs(w.imag) * abs(chord) < 1e-4:
            blocked = True
    if blocked:
        control = 0.5 * (start + entry) - 0.04j
        points = (1 - t) ** 2 * start + 2 * t * (1 - t) * control + t**2 * entry
        for value in frozen:
            if float(np.min(np.abs(points - value))) < 1e-4:
                raise MonodromyError(
                    f"approach path cannot clear the frozen coordinate {value}"
                )
    return points


def _loop_point_samples(loop: ModuliLoop, start_shift: complex = 0.0j) -> np.ndarray:
    """Sample the mover's path: radial approach, circle(s), and return."""
    center = complex(loop.center)
    start = loop.effective_start() + start_shift
    # Enter the circle where the radial ray from the start hits it, so the
    # approach never pierces the disc.
    theta0 = math.atan2((start - center).imag, (start - center).real)
    entry = center + loop.radius * np.exp(1j * theta0)
    approach = _approach_points(start, entry, loop.frozen.values())
    n_arc = _SAMPLES_PER_TURN * abs(loop.winding)
    theta = theta0 + np.linspace(0.0, 2.0 * math.pi * loop.winding, n_arc + 1)
    circle = center + loop.radius * np.exp(1j * theta)
    return np.concatenate([approach, circle[1:], approach[::-1][1:]])


def _coordinates(loop: ModuliLoop, mover) -> list:
    """a, b, c, d with the mover's value (a point or a sample array) in its
    slot and the frozen values as scalars."""
    return [mover if name == loop.move else complex(loop.frozen[name]) for name in LABELS]


def _continuous_sqrt(values: np.ndarray) -> np.ndarray:
    """Square root along a path, branch chosen by continuity from sample 0:
    each root's sign is the product of the flips up to it."""
    r = np.sqrt(values)
    flips = np.abs(r[1:] - r[:-1]) > np.abs(r[1:] + r[:-1])
    negated = np.concatenate([[False], np.logical_xor.accumulate(flips)])
    return np.where(negated, -r, r)


def _seed_germs(mu0: complex) -> np.ndarray:
    """Germs (value, d/dmu) of the numerator solutions at the basepoint.

    Row 0 belongs to S3's numerator (the atInf member, re-expressed through
    K(1 - mu) and K(mu) on the basepoint's side of the axis), row 1 to S1's
    numerator F(mu).  The side passed resolves only the frames' log members.
    """
    if mu0.imag == 0.0:
        raise MonodromyError("basepoint cross-ratio is real; offsets are required")
    sgn = 1.0 if mu0.imag > 0.0 else -1.0
    at0 = _local_frame("at0", mu0, sgn)
    at1 = _local_frame("at1", mu0, sgn)
    g1 = np.array([at0.values[0], at0.derivs[0]])
    g3 = np.array([at1.values[0], at1.derivs[0]])
    g5 = sgn * 1j * g1 + g3
    return np.vstack([g5, g1])


def _transport_block(coords: list, germs: np.ndarray):
    """Transport germs and prefactors along a loop's samples.

    ``coords`` is a, b, c, d from ``_coordinates`` with the mover's sample
    array.  Returns the continued germs together with the start and end
    values of the two square-root prefactors sqrt(R2), sqrt(R1), where
    R1 = (d - c)(a - b) and R2 = (d - c)(b - a); the roots are continued
    by closeness so sign flips under full turns are captured.
    """
    a, b, c, d = coords
    mu = cross_ratio(a, b, c, d)
    r1 = _continuous_sqrt((d - c) * (a - b))
    r2 = _continuous_sqrt((d - c) * (b - a))
    new_germs = _transport_germs(mu, germs, min_step=1e-12)
    return new_germs, (r2[0], r1[0]), (r2[-1], r1[-1])


def _frame_vectors(germs: np.ndarray, roots: tuple) -> np.ndarray:
    """Column-stack the two period germs S3, S1 including their prefactors."""
    r2, r1 = roots
    s3 = germs[0] / r2
    s1 = germs[1] / r1
    return np.column_stack([s3, s1])


def _extract_matrix(starts: list, ends: list) -> tuple[np.ndarray, float]:
    """Solve end = start @ M^T for M over stacked frames, least squares.

    Each element of starts/ends is a 2x2 array whose columns are the frame
    vectors (S3, S1) as (value, derivative) germs.  The monodromy acts by
    S_i -> sum_j M_ij S_j, i.e. columns transform by M^T on the right.
    """
    A = np.vstack(starts)          # (2k, 2): rows are germ components
    B = np.vstack(ends)
    # Solve A @ X = B with X = M^T.
    X, *_ = np.linalg.lstsq(A, B, rcond=None)
    resid = float(np.max(np.abs(A @ X - B)))
    return X.T, resid


@dataclass(frozen=True)
class MonodromyResult:
    """An extracted monodromy: the integer matrix, the float matrix it was
    rounded from, and the extraction residual."""

    matrix: IntegerMatrix2
    raw: np.ndarray
    residual: float


# Shift applied to the mover's start for the second frame; pushed further
# into the lower half-plane so the basepoint stays on the same sheet, and
# large enough to decorrelate rounding in the over-determined solve.
_SECOND_FRAME_SHIFT = -3e-4 - 4e-4j


def loop_monodromy(loop: ModuliLoop) -> MonodromyResult:
    """Monodromy matrix of one loop in the engine frame (S3, S1).

    Two start frames seeded at independently scaled basepoint offsets make
    the linear extraction over-determined; disagreement shows up in the
    residual.  The result must round to integers within 1e-6 and have unit
    determinant, else MonodromyError.
    """
    starts, ends = [], []
    for shift in (0.0j, _SECOND_FRAME_SHIFT):
        zs = _loop_point_samples(loop, start_shift=shift)
        germs = _seed_germs(complex(cross_ratio(*_coordinates(loop, zs[0]))))
        new_germs, roots0, roots1 = _transport_block(_coordinates(loop, zs), germs)
        starts.append(_frame_vectors(germs, roots0))
        ends.append(_frame_vectors(new_germs, roots1))
    raw, lsq_resid = _extract_matrix(starts, ends)
    rounded = np.round(raw.real)
    resid = max(
        float(np.max(np.abs(raw - rounded))), lsq_resid
    )
    if resid > _EXTRACTION_TOL:
        raise MonodromyError(
            f"monodromy entries are not integral: residual {resid:.3g} exceeds {_EXTRACTION_TOL}"
        )
    det = rounded[0, 0] * rounded[1, 1] - rounded[0, 1] * rounded[1, 0]
    if abs(det - 1.0) > 0.5:
        raise MonodromyError(f"monodromy determinant is {det}, expected +1")
    return MonodromyResult(IntegerMatrix2.from_array(rounded), raw, resid)


def preset_monodromy(label: str) -> MonodromyResult:
    """Compute the monodromy of a preset loop realization numerically.

    Accepts alpha1/alpha2/alpha3 (reported in the engine frame) and the six
    generator labels (reported in the stated (S1, S3) frame).
    """
    if label not in PRESETS:
        raise ValueError(f"unknown preset {label!r}")
    move, around, _ = PRESETS[label]
    got = loop_monodromy(preset_loop(move, around))
    if label not in GENERATOR_LABELS:
        return got
    # Swapping the frame reverses both rows and columns, exactly.
    (p, q), (r, s) = got.matrix.entries
    return MonodromyResult(IntegerMatrix2(((s, r), (q, p))), got.raw[::-1, ::-1], got.residual)


@dataclass(frozen=True)
class ComparisonReport:
    label: str
    stated: IntegerMatrix2
    computed: IntegerMatrix2
    orientation: int
    mismatch_count: int
    float_residual: float


def numeric_vs_stated(label: str) -> ComparisonReport:
    """Compare a computed generator (or alpha) matrix against its stated value.

    The arc orientations behind the stated table depend on orientation
    choices for the discriminant lines that the labels alone do not fix, so
    the comparison accepts either the matrix or its inverse and reports
    which orientation matched; mismatch_count counts differing entries for
    the better orientation.
    """
    got = preset_monodromy(label)
    stated = PRESETS[label][2]

    def mismatches(m: IntegerMatrix2) -> int:
        return sum(x != y for row, want in zip(m.entries, stated.entries) for x, y in zip(row, want))

    direct, inverse = mismatches(got.matrix), mismatches(got.matrix.inverse())
    if direct <= inverse:
        return ComparisonReport(label, stated, got.matrix, +1, direct, got.residual)
    return ComparisonReport(label, stated, got.matrix, -1, inverse, got.residual)
