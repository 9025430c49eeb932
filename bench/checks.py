"""Output checks and accuracy measures for every benchmark command.

``check(cmd, rc, out, err)`` returns an ``Outcome``: whether the command
passed its checks and, for the commands that have one, the worst relative
error (or residual) behind each accuracy metric.  The references are the
benchmark's own: an mpmath evaluation of the closed form, an exact
Fraction formula for the series, the stated generator table, and the
captured JSON of the two table-only presets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath

from workloads import Command

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Acceptance-battery tolerances (criterion 1) and the extraction tolerance.
QUAD_RTOL = 1e-9
ODE_RTOL = 1e-6
CLOSED_RTOL = 1e-10
MONODROMY_RESIDUAL = 1e-6
SERIES_VALUE_RTOL = 1e-12
DIGITS_CAP = 16.0

# Stated generator matrices in the (S1, S3) frame (U, A and L^-1).
_U = ((1, 2), (0, 1))
_A = ((-1, 2), (-2, 3))
_LINV = ((1, 0), (-2, 1))
STATED_GENERATORS = {"h12": _U, "h34": _U, "h13": _A, "h24": _A, "h14": _LINV, "h23": _LINV}

# Winding-1 matrix, in the engine frame (S3, S1), of a loop at the standard
# basepoint whose mover circles the other coordinate of the pair.  Recorded
# from the program; it depends only on the pair, not on the radius, and
# equals the frame-swapped stated generator of that line or its inverse.
PAIR_MATRICES = {
    frozenset("ab"): _LINV,
    frozenset("cd"): _LINV,
    frozenset("ac"): _A,
    frozenset("bd"): _A,
    frozenset("ad"): _U,
    frozenset("bc"): _U,
}


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    errors: dict = field(default_factory=dict)  # accuracy key -> worst error


def digits(worst_error: float) -> float:
    """-log10 of a worst relative error, capped; no comparison gives the cap."""
    if worst_error <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(worst_error))


def mat_mul(x, y) -> tuple:
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2)
    )


def mat_inv(m) -> tuple:
    (p, q), (r, s) = m
    return ((s, -q), (-r, p))


def _as_matrix(rows) -> tuple:
    return tuple(tuple(int(x) for x in row) for row in rows)


@lru_cache(maxsize=None)
def closed_form_reference(a: float, b: float, c: float, d: float, l: float) -> float:
    """S(a, b, c, d) at level l from mpmath's K at 30 digits (real chamber)."""
    with mpmath.workdps(30):
        a, b, c, d, l = (mpmath.mpf(x) for x in (a, b, c, d, l))
        mu = (d - a) * (b - c) / ((d - c) * (b - a))
        value = -mpmath.sqrt(2 / l) / (3 * mpmath.pi) * mpmath.ellipk(mu) / mpmath.sqrt((d - c) * (a - b))
        return float(value)


@lru_cache(maxsize=None)
def series_reference(order: int) -> tuple:
    """P_0..P_order from the closed form of the generating function.

    sum_n P_n(s) Z^n = (1 - 4sZ)^(-1/2) F(4Z(1 - s)/(1 - 4sZ)) with
    F = 2F1(1/2, 1/2; 1; .), so
    P_N(s) = 4^N sum_n c_n^2 (n + 1/2)_(N-n) / (N-n)! (1 - s)^n s^(N-n).
    """
    def rising(x: Fraction, j: int) -> Fraction:
        out = Fraction(1)
        for i in range(j):
            out *= x + i
        return out

    polys = []
    for total in range(order + 1):
        coef = [Fraction(0)] * (total + 1)
        for n in range(total + 1):
            j = total - n
            cn2 = (rising(Fraction(1, 2), n) / math.factorial(n)) ** 2
            weight = Fraction(4) ** total * cn2 * rising(Fraction(2 * n + 1, 2), j) / math.factorial(j)
            for k in range(n + 1):
                coef[j + k] += weight * math.comb(n, k) * (-1) ** k
        polys.append(tuple(coef))
    return tuple(polys)


@lru_cache(maxsize=None)
def _reference_json(name: str):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def _check_period(cmd: Command, out: dict) -> Outcome:
    exp = cmd.expect
    a, b, c = exp["abc"]
    rows = out["rows"]
    inputs = [(l, d) for l in exp["ls"] for d in exp["ds"]]
    if len(rows) != len(inputs):
        return Outcome(False, f"{len(rows)} rows for {len(inputs)} grid points")
    worst = {"quad": 0.0, "ode": 0.0, "closed": 0.0}
    for row, (l, d) in zip(rows, inputs):
        if (row["a"], row["b"], row["c"], row["d"], row["l"]) != (a, b, c, d, l):
            return Outcome(False, f"row echoes {row['a'], row['b'], row['c'], row['d'], row['l']}")
        closed = row["S_closed"]
        if exp["axis"] == "p1":
            ref = closed_form_reference(a, b, c, d, l)
        else:
            ref = closed_form_reference(c, b, a, d, l)
        errs = {
            "quad": abs(row["S_quadrature"] - closed) / abs(closed),
            "ode": abs(abs(row["S_ode"]) - abs(closed)) / abs(closed),
            "closed": abs(closed - ref) / abs(ref),
        }
        for key, value in errs.items():
            if not value <= worst[key]:
                worst[key] = value
        if not (errs["quad"] <= QUAD_RTOL and errs["ode"] <= ODE_RTOL and errs["closed"] <= CLOSED_RTOL):
            return Outcome(False, f"row d={d!r} l={l!r} errors {errs}", worst)
    return Outcome(True, errors=worst)


def _check_all_generators(cmd: Command, out: dict) -> Outcome:
    entries = {e["generator"]: e for e in out["generators"]}
    if set(entries) != set(STATED_GENERATORS):
        return Outcome(False, f"generators {sorted(entries)}")
    worst = max(e["residual"] for e in entries.values())
    for label, stated in STATED_GENERATORS.items():
        e = entries[label]
        computed = _as_matrix(e["computed"])
        if _as_matrix(e["stated"]) != stated or computed not in (stated, mat_inv(stated)):
            return Outcome(False, f"{label}: computed {computed}, stated {stated}", {"monodromy": worst})
    if not (out["all_match"] is True and worst <= MONODROMY_RESIDUAL):
        return Outcome(False, f"all_match {out['all_match']}, residual {worst}", {"monodromy": worst})
    return Outcome(True, errors={"monodromy": worst})


def _check_loop(cmd: Command, out: dict) -> Outcome:
    exp = cmd.expect
    pair = PAIR_MATRICES[frozenset(exp["move"] + exp["center"])]
    want = pair
    for _ in range(exp["winding"] - 1):
        want = mat_mul(want, pair)
    got = _as_matrix(out["matrix"])
    resid = out["residual"]
    ok = got == want and resid <= MONODROMY_RESIDUAL
    return Outcome(ok, "" if ok else f"matrix {got}, want {want}, residual {resid}", {"monodromy": resid})


def _check_verify(cmd: Command, out: dict) -> Outcome:
    worst = max(out["connection_identity"]["max_residual"], out["modular_identity"]["max_abs_error"])
    ok = out["status"] == "pass"
    return Outcome(ok, "" if ok else f"status {out['status']}: {out['failures']}", {"verify": worst})


def _check_series(cmd: Command, out: dict) -> Outcome:
    exp = cmd.expect
    ref = series_reference(exp["n"])
    polys = tuple(tuple(Fraction(x) for x in poly) for poly in out["coeffs"])
    if out["n"] != exp["n"] or polys != ref:
        return Outcome(False, "coefficients differ from the exact reference")
    if any(tuple(reversed(p)) != p for p in polys):
        return Outcome(False, "a coefficient polynomial is not palindromic")
    if "s" not in exp:
        return Outcome(True)
    s = exp["s"]
    pn = [sum(coef * s**k for k, coef in enumerate(p)) for p in ref]
    if Fraction(out["s"]) != s or [Fraction(x) for x in out["pn_at_s"]] != pn:
        return Outcome(False, "P_n(s) values differ from the exact reference")
    exact = float(sum(v * Fraction(exp["z"]) ** n for n, v in enumerate(pn)))
    if abs(out["value_at_z"] - exact) > SERIES_VALUE_RTOL * abs(exact):
        return Outcome(False, f"value_at_z {out['value_at_z']!r}, exact {exact!r}")
    return Outcome(True)


def _check_reference(name: str):
    def check(cmd: Command, out: dict) -> Outcome:
        ok = out == _reference_json(name)
        return Outcome(ok, "" if ok else f"{name} JSON differs from the reference")
    return check


def _check_simulate(cmd: Command, text: str, err: str) -> Outcome:
    lines = text.splitlines()
    if not lines or lines[0] != "t,p1,p2,p3,H,L":
        return Outcome(False, "missing CSV header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if len(rows) != cmd.expect["samples"] or any(len(r) != 6 for r in rows):
        return Outcome(False, f"{len(rows)} CSV rows for {cmd.expect['samples']} samples")
    if rows[0][0] != 0.0 or rows[-1][0] != cmd.expect["t"]:
        return Outcome(False, f"time runs from {rows[0][0]} to {rows[-1][0]}")
    if "relative drift over run" not in err:
        return Outcome(False, "no drift report")
    h0, l0 = rows[0][4], rows[0][5]
    drift = max(max(abs(r[4] - h0) / abs(h0), abs(r[5] - l0) / abs(l0)) for r in rows)
    return Outcome(True, errors={"drift": drift})


_JSON_CHECKS = {
    "period": _check_period,
    "all_generators": _check_all_generators,
    "loop": _check_loop,
    "verify": _check_verify,
    "series": _check_series,
    "confluence": _check_reference("confluence"),
    "braid": _check_reference("braid"),
}


def check(cmd: Command, rc: int, out: str, err: str) -> Outcome:
    """Check one command's exit code and output."""
    if rc != 0:
        return Outcome(False, f"exit code {rc}: {err.strip()[-300:]}")
    try:
        if cmd.kind == "simulate":
            return _check_simulate(cmd, out, err)
        return _JSON_CHECKS[cmd.kind](cmd, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return Outcome(False, f"unparsable output: {exc!r}")
