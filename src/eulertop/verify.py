"""The check battery of ``eulertop verify`` as one library report.

``CHECKS`` is the ordered table of checks.  It maps each name to the check,
which takes verify's tolerance and returns its fields and whether it passed,
and to the field that its CSV row shows; a structural check names none and
shows 1 or 0.  The connection identity and the covariance read the
tolerance.  Every
check is scalar, exact or integer work, so this module does not load numpy.
"""

from __future__ import annotations

import math
from typing import Callable

from .birkhoff import birkhoff_series
from .core import ModuliPoint
from .lattice import verify_confluence_product
from .periods import verify_connection_identity, verify_symmetries
from .special import elliptic_K

__all__ = ["CHECKS", "verify_report"]


def _connection_identity(tol: float) -> tuple[dict, bool]:
    """The three-term identity on a d, l grid in the chamber, below tol."""
    rows = [
        {"d": d, "l": l, "residual": verify_connection_identity(ModuliPoint(3.0, 2.0, 1.0, d, l=l))}
        for l in (0.5, 1.0, 2.0, 4.0, 8.0)
        for d in (2.1, 2.3, 2.5, 2.7, 2.9)
    ]
    worst = max(r["residual"] for r in rows)
    return {"rows": rows, "max_residual": worst, "tol": tol}, worst < tol


# The 24 orderings at (3, 2, 1, 2.5) as lattice vectors (p, q) of
# p S1 + q S2.  Rows off their class's vector, (1, 0), (0, 1) or (1, 1),
# crossed a cut at d - i0.
_COVARIANCE_VECTORS = {
    (1, 0): "abcd acbd badc bdac cadb cdab dbca dcba",
    (0, 1): "bacd cbda cdba dacb",
    (1, 1): "cabd cbad dabc",
    (0, -1): "abdc adbc bcad dcab",
    (1, -1): "acdb adcb bcda",
    (-1, 1): "bdca",
    (-1, -1): "dbac",
}


def _covariance(tol: float) -> tuple[dict, bool]:
    """Three covariance classes at the base point, every ordering the stated
    lattice vector, and the worst residual below tol."""
    sym = verify_symmetries(ModuliPoint(3.0, 2.0, 1.0, 2.5))
    vectors = {r.order: r.vector for r in sym.rows}
    stated = {order: v for v, orders in _COVARIANCE_VECTORS.items() for order in orders.split()}
    fields = {
        "class_sizes": sym.class_sizes,
        "vectors": {order: list(v) for order, v in vectors.items()},
        "max_residual": sym.max_residual,
        "stabilizer": list(sym.stabilizer),
    }
    return fields, len(sym.class_sizes) == 3 and vectors == stated and sym.max_residual < tol


def _modular_identity(tol: float) -> tuple[dict, bool]:
    """K(lam/(lam - 1)) = sqrt(1 - lam) K(lam), within 1e-10, at the 101
    points of numpy's linspace(-5.0, 0.5, 101), bit for bit."""
    lams = [-5.0 + i * 0.055 for i in range(100)] + [0.5]
    worst = max(abs(elliptic_K(lam / (lam - 1.0)) - math.sqrt(1.0 - lam) * elliptic_K(lam)) for lam in lams)
    return {"points": len(lams), "max_abs_error": worst}, worst < 1e-10


def _series_palindromes(tol: float) -> tuple[dict, bool]:
    """Every order of the exact series through 12 is palindromic."""
    series = birkhoff_series(order=12)
    orders = {n: series.is_palindromic(n) for n in range(13)}
    return {"orders": orders}, all(orders.values())


def _confluence(tol: float) -> tuple[dict, bool]:
    """Some ordering of the stated local matrices multiplies to -I."""
    orderings = verify_confluence_product()
    return {"orderings": orderings}, any(v["is_minus_identity"] for v in orderings.values())


CHECKS: dict[str, tuple[Callable[[float], tuple[dict, bool]], str | None]] = {
    "connection_identity": (_connection_identity, "max_residual"),
    "covariance": (_covariance, "max_residual"),
    "modular_identity": (_modular_identity, "max_abs_error"),
    "series_palindromes": (_series_palindromes, None),
    "confluence": (_confluence, None),
}


def verify_report(tol: float = 1e-10) -> dict:
    """What ``eulertop verify --format json`` prints: each check of ``CHECKS``
    with its fields and ``status``, then the overall ``status`` and the
    ``failures``.  JSON writes the palindromes' int order keys as strings."""
    report = {}
    for name, (check, _) in CHECKS.items():
        fields, ok = check(tol)
        report[name] = {**fields, "status": "pass" if ok else "fail"}
    report["failures"] = [name for name in CHECKS if report[name]["status"] == "fail"]
    report["status"] = "fail" if report["failures"] else "pass"
    return report
