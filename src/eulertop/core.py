"""Shared parameter types for the reduced free rigid body.

The reduced dynamics lives on a momentum sphere of radius sqrt(2*l) and is
controlled by four numbers: the reciprocal moments of inertia a = 1/I1,
b = 1/I2, c = 1/I3 and the energy ratio d = h/l.  Everything downstream
(periods, quadratures, monodromy loops) is parameterized by the quadruple
(a, b, c, d) together with the Casimir level l, so those live here as small
immutable value types, with the one cross-ratio attached.  Every record of
the package derives from ``FrozenRecord``, a frozen record on ``__slots__``:
it needs no import, so a command that loads no numpy loads no ``inspect``
either.

Every period of the body is a function of one cross-ratio of (a, b, c, d),
``cross_ratio(a, b, c, d) = (d-a)(b-c) / ((d-c)(b-a))``.  Two of its
orderings appear in the period formulas and are easy to mix up:

    mu  = cross_ratio(a, b, c, d) = (d-a)(b-c) / ((d-c)(b-a))   (argument of K)
    lam = cross_ratio(a, c, b, d) = (d-a)(c-b) / ((d-b)(c-a))   (classical normalization)

They are related by mu = lam/(lam - 1); every downstream formula states which
one it uses.  The complement 1 - mu is ``cross_ratio(b, a, c, d)``,
(d-b)(a-c) / ((d-c)(a-b)): formed that way it keeps its digits where mu is
near 1, as it is next to the separatrix.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import combinations

__all__ = [
    "CoincidentModuliError",
    "ComputationError",
    "DomainError",
    "FrozenRecord",
    "InertiaSpec",
    "LABELS",
    "MAX_SAMPLES",
    "ModuliPoint",
    "cross_ratio",
    "ldexp",
    "require_finite",
    "require_positive",
    "unit_exponent",
]

LABELS = ("a", "b", "c", "d")
_PAIRS = tuple(combinations(LABELS, 2))  # (a, b), (a, c), ..., (c, d)

# Scale-aware coincidence threshold: pairs closer than this (relative to the
# largest coordinate) are treated as sitting on the discriminant.
DEGENERACY_RTOL = 1e-12

# Imaginary parts up to this times the point's scale count as real.
_REAL_RTOL = 1e-12

# The most samples an orbit may ask for: ``dynamics.integrate_orbit`` and the
# CLI's --samples refuse more before allocating them.  It lives here, not in
# ``dynamics``, so that checking it loads no numpy.
MAX_SAMPLES = 100001


class DomainError(ValueError):
    """Parameter combination outside an operation's domain."""


class ComputationError(RuntimeError):
    """A computation on valid input did not converge or failed its own check."""


class CoincidentModuliError(DomainError):
    """Two moduli coordinates coincide (the point is on the discriminant)."""

    def __init__(self, pair: tuple[str, str], message: str | None = None):
        self.pair = tuple(sorted(pair))
        if message is None:
            message = f"moduli coordinates {self.pair[0]} = {self.pair[1]}: point is on the discriminant"
        super().__init__(message)


def _is_finite(value) -> bool:
    """``cmath.isfinite``, False for an int beyond the float range."""
    try:
        return cmath.isfinite(value)
    except OverflowError:
        return False


def require_finite(name: str, value):
    """``value`` if it is a finite real or complex number, else DomainError naming it."""
    if not _is_finite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def require_positive(name: str, value):
    """``value`` if it is a finite int or float above zero, else DomainError naming it."""
    if not (isinstance(value, (int, float)) and _is_finite(value) and value > 0):
        raise DomainError(f"{name} must be positive and finite, got {value!r}")
    return value


def unit_exponent(x: float) -> int:
    """The k that puts x * 2**k in [2, 4), for a finite x > 0."""
    return 2 - math.frexp(x)[1]


def ldexp(z, k: int, what=None):
    """z * 2**k for a float or complex z, part by part so zeros keep their
    sign: exact unless subnormal.  DomainError outside the float range,
    naming the value as ``what()`` where a caller gives that callable: the
    message is formatted only on refusal."""
    try:
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k)) if isinstance(z, complex) else math.ldexp(z, k)
    except OverflowError:
        name = what() if what else f"{z!r} * 2**{k}"
        raise DomainError(f"{name} is outside the float range") from None


class FrozenRecord:
    """An immutable record whose fields are its class's ``__slots__``, in order.

    Equality, hash and repr work over the fields as those of a frozen
    dataclass do; a slot named with a leading underscore is derived state,
    outside all three.  The base ``__init__`` stores its arguments in field
    order; a record with checks overrides it, stores, then validates.
    Assigning to or deleting any attribute raises AttributeError, and
    ``replace`` rebuilds the record through ``__init__``, so its checks run
    again; so do ``copy`` and ``pickle``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, got {len(values)}")
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def replace(self, **changes):
        """A copy with the named fields changed, built and checked by ``__init__``."""
        values = tuple(changes.pop(name, getattr(self, name)) for name in self._fields)
        if changes:
            raise TypeError(f"{type(self).__name__} has no fields {sorted(changes)}")
        return type(self)(*values)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class InertiaSpec(FrozenRecord):
    """Principal moments of inertia, pairwise distinct and positive, each
    with a reciprocal that is a normal float.

    Attributes
    ----------
    I1, I2, I3 : float
        Moments of inertia in arbitrary mass * length**2 units.
    """

    __slots__ = ("I1", "I2", "I3")

    def __init__(self, I1: float, I2: float, I3: float) -> None:
        super().__init__(I1, I2, I3)
        for name in ("I1", "I2", "I3"):
            value = require_positive(name, getattr(self, name))
            if not sys.float_info.min <= 1.0 / value <= sys.float_info.max:
                raise DomainError(
                    f"moment of inertia {name} = {value!r} has the reciprocal {1.0 / value!r}, "
                    "outside the normal float range"
                )
        if self.I1 == self.I2 or self.I2 == self.I3 or self.I1 == self.I3:
            raise DomainError("moments of inertia must be pairwise distinct")

    def reciprocals(self) -> tuple[float, float, float]:
        """The parameters (a, b, c) = (1/I1, 1/I2, 1/I3)."""
        return 1.0 / self.I1, 1.0 / self.I2, 1.0 / self.I3

    @staticmethod
    def from_reciprocals(a: float, b: float, c: float) -> "InertiaSpec":
        """The moments (1/a, 1/b, 1/c); each reciprocal must be positive and finite."""
        for name, value in (("a", a), ("b", b), ("c", c)):
            require_positive(f"reciprocal moment {name}", value)
        return InertiaSpec(1.0 / a, 1.0 / b, 1.0 / c)


class ModuliPoint(FrozenRecord):
    """A point (a, b, c, d) of the parameter space with its Casimir level l.

    Coordinates are affine and complex; the Casimir level l > 0 enters only
    through prefactors (the mechanics fixes an affine chart, so no projective
    bookkeeping happens here).  The energy is h = d * l.  A point with one
    coordinate changed is ``m.replace(d=...)``, checked as a new point.
    """

    __slots__ = ("a", "b", "c", "d", "l")

    def __init__(self, a: complex, b: complex, c: complex, d: complex, l: float = 1.0) -> None:
        super().__init__(a, b, c, d, l)
        require_positive("Casimir level l", self.l)
        for name in LABELS:
            require_finite(f"coordinate {name}", getattr(self, name))

    def coords(self) -> tuple[complex, complex, complex, complex]:
        return (complex(self.a), complex(self.b), complex(self.c), complex(self.d))

    def scale(self) -> float:
        """The largest |coordinate|: coincidence and reality tolerances are
        relative to it, so a point and its multiples are treated alike."""
        return max(abs(z) for z in self.coords())

    def at_unit_scale(self) -> tuple["ModuliPoint", int, int]:
        """(u, k, j): u has this point's coordinates times 2**k, the largest
        |coordinate| in [2, 4), and the level u.l = l * 4**j in [1, 4).  S is
        homogeneous, so S(self) = S(u) * 2**(k + j); cross-ratios are equal.
        A point already at unit scale is its own u."""
        k, j = unit_exponent(self.scale()), unit_exponent(self.l) // 2
        if k == j == 0:
            return self, 0, 0
        return ModuliPoint(*(ldexp(z, k) for z in self.coords()), l=math.ldexp(self.l, 2 * j)), k, j

    def coincident_pairs(self) -> list[tuple[str, str]]:
        """All label pairs at most DEGENERACY_RTOL * scale apart, in a fixed
        order; where all four coordinates are equal, zero included, every pair."""
        tol = DEGENERACY_RTOL * self.scale()
        return [(x, y) for x, y in _PAIRS if abs(complex(getattr(self, x)) - complex(getattr(self, y))) <= tol]

    def is_real(self) -> bool:
        """Whether every imaginary part is at most _REAL_RTOL times the scale:
        a point and its multiples are treated alike."""
        tol = _REAL_RTOL * self.scale()
        return all(abs(z.imag) <= tol for z in self.coords())

    def reorder(self, order: str) -> "ModuliPoint":
        """The point whose slots a, b, c, d hold this point's values at the
        labels ``order`` names, with l unchanged: ``reorder("cbad")`` swaps a
        and c, so (3, 2, 1, 2.5) becomes (1, 2, 3, 2.5)."""
        if sorted(order) != list(LABELS):
            raise ValueError(f"order must name each of {LABELS} once, got {order!r}")
        return ModuliPoint(*(getattr(self, x) for x in order), l=self.l)


def cross_ratio(a, b, c, d):
    """(d-a)(b-c) / ((d-c)(b-a)) of complex scalars, unchecked: callers
    take it at unit scale, after refusing the pairs that zero its denominator."""
    return (d - a) * (b - c) / ((d - c) * (b - a))

