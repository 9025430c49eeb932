"""The stated integer monodromy of the period lattice, in exact integers.

The three local monodromies alpha1..alpha3 and the six line generators
h12..h34 are 2x2 integer matrices of unit determinant.  This module holds
their stated table, the exact algebra on it, and the two structure checks
built from it alone: the confluence product of the local matrices and the
braid relations of the generators.  ``monodromy`` realizes the same labels
as loops in moduli space and reports each in its stated matrix's frame and
orientation.

Everything here is integer arithmetic on tuples, so this module imports
no numeric library, and a caller can catch ``MonodromyError`` without
loading the numeric engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from numbers import Integral

from .core import ComputationError

__all__ = [
    "BRAID_RELATIONS",
    "CENTER_WORD",
    "GENERATOR_LABELS",
    "IntegerMatrix2",
    "MonodromyError",
    "PRESETS",
    "verify_braid_relations",
    "verify_confluence_product",
]


class MonodromyError(ComputationError):
    """A loop's monodromy failed, e.g. its frame disagrees with its crossing word."""


@dataclass(frozen=True)
class IntegerMatrix2:
    """A 2x2 integer matrix with unit determinant; its algebra is exact."""

    entries: tuple[tuple[int, int], tuple[int, int]]

    def __post_init__(self) -> None:
        (p, q), (r, s) = self.entries
        for x in (p, q, r, s):
            if not isinstance(x, Integral):
                raise ValueError(f"entries must be ints, got {x!r}")
        if p * s - q * r != 1:
            raise ValueError(f"determinant must be +1, got {p * s - q * r}")

    def tolist(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def __matmul__(self, other: "IntegerMatrix2") -> "IntegerMatrix2":
        (p, q), (r, s) = self.entries
        (w, x), (y, z) = other.entries
        return IntegerMatrix2(((p * w + q * y, p * x + q * z), (r * w + s * y, r * x + s * z)))

    def __neg__(self) -> "IntegerMatrix2":
        (p, q), (r, s) = self.entries
        return IntegerMatrix2(((-p, -q), (-r, -s)))

    def inverse(self) -> "IntegerMatrix2":
        (p, q), (r, s) = self.entries
        return IntegerMatrix2(((s, -q), (-r, p)))

    @staticmethod
    def identity() -> "IntegerMatrix2":
        return IntegerMatrix2(((1, 0), (0, 1)))


_U = IntegerMatrix2(((1, 2), (0, 1)))
_A = IntegerMatrix2(((-1, 2), (-2, 3)))
_LINV = IntegerMatrix2(((1, 0), (-2, 1)))

# Every preset as label -> (move, around, stated matrix): one turn of the
# coordinate move around the coordinate around.  This is the one statement
# of the table's convention.  The alphas are the local monodromies around
# the three finite singular values of the cross-ratio, stated in the engine
# frame (S3, S1) as counterclockwise loops.  The six line generators h_ij
# are stated in the (S1, S3) frame as clockwise loops.  The h13 approach
# must cross the line of the blocking coordinate b; the downward bow of the
# loop's approach path (``monodromy._approach_points``) fixes which side,
# and that choice is what reproduces the stated matrix.
PRESETS = {
    "alpha1": ("a", "d", _U),     # cross-ratio circles 0
    "alpha2": ("d", "b", _A),     # cross-ratio circles infinity
    "alpha3": ("d", "c", _LINV),  # cross-ratio circles 1 (after rescaling)
    "h12": ("b", "a", _U),
    "h13": ("c", "a", _A),
    "h14": ("d", "a", _LINV),
    "h23": ("b", "c", _LINV),
    "h24": ("b", "d", _A),
    "h34": ("c", "d", _U),
}

GENERATOR_LABELS = tuple(label for label in PRESETS if label.startswith("h"))


# ----------------------------------------------------------------------
# Structure checks on the stated matrices.

def verify_confluence_product() -> dict:
    """Products of the three local matrices in all six orderings.

    The confluence constraint makes the product over one cyclic class equal
    to minus the identity; the report maps each ordering to its product and
    whether it equals -I.
    """
    out = {}
    for order in permutations(("alpha1", "alpha3", "alpha2")):
        first, second, third = (PRESETS[label][2] for label in order)
        prod = first @ second @ third
        out[" ".join(order)] = {
            "product": prod.tolist(),
            "is_minus_identity": prod == -IntegerMatrix2.identity(),
        }
    return out


# Relations of the planar braid presentation, as words in the generators.
# Each relation lists words that must agree; "1" marks the center relation
# whose word is reported rather than asserted.
BRAID_RELATIONS = {
    "R1": (("h12", "h23", "h13"), ("h23", "h13", "h12"), ("h13", "h12", "h23")),
    "R2": (("h23", "h34", "h24"), ("h34", "h24", "h23"), ("h24", "h23", "h34")),
    "R3": (("h12", "h24", "h14"), ("h24", "h14", "h12"), ("h14", "h12", "h24")),
    "R4": (("h34", "h14", "h13"), ("h14", "h13", "h34"), ("h13", "h34", "h14")),
    "R5": (("h12", "h34"), ("h34", "h12")),
    "R6": (("h13", "h23^-1", "h24", "h23"), ("h23^-1", "h24", "h23", "h13")),
    "R7": (("h23", "h14"), ("h14", "h23")),
}

CENTER_WORD = ("h13", "h12", "h23", "h34", "h24", "h14")


def _word_product(word) -> IntegerMatrix2:
    acc = IntegerMatrix2.identity()
    for token in word:
        if token.endswith("^-1"):
            acc = acc @ PRESETS[token[:-3]][2].inverse()
        else:
            acc = acc @ PRESETS[token][2]
    return acc


def verify_braid_relations() -> dict:
    """Evaluate the braid relations on the stated per-generator matrices.

    The stated table records each generator's conjugacy class, not a strict
    homomorphism on the presentation, so some relations fail under naive
    substitution; the report classifies each as exact, up_to_sign, or fail,
    and reports the center word's product without asserting it.
    """
    report: dict = {}
    for name, words in BRAID_RELATIONS.items():
        prods = [_word_product(w) for w in words]
        first = prods[0]
        if all(p == first for p in prods[1:]):
            status = "exact"
        elif all(p in (first, -first) for p in prods[1:]):
            status = "up_to_sign"
        else:
            status = "fail"
        report[name] = {
            "status": status,
            "words": [" ".join(w) for w in words],
            "products": [p.tolist() for p in prods],
        }
    center = _word_product(CENTER_WORD)
    report["center"] = {
        "word": " ".join(CENTER_WORD),
        "product": center.tolist(),
        "is_minus_identity": center == -IntegerMatrix2.identity(),
    }
    return report
