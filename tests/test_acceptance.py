"""Acceptance battery: one test (and one pass/fail line) per criterion.

Each criterion pins its tolerance and wall-clock budget; run with -s (or
look at the verbose test lines) to see the per-criterion report.
"""

import math
import time
from fractions import Fraction

import numpy as np
from oracles import basis_eval, gauss_ode_residual

from eulertop.birkhoff import birkhoff_series
from eulertop.core import InertiaSpec, ModuliPoint
from eulertop.dynamics import MomentumState, integrate_orbit, orbit_period
from eulertop.lattice import GENERATOR_LABELS, PRESETS, verify_confluence_product
from eulertop.monodromy import preset_monodromy
from eulertop.periods import (
    S_closed_form,
    quadrature_sigma_integral,
    quadrature_tau_integral,
    verify_connection_identity,
    verify_symmetries,
)
from eulertop.special import elliptic_K

ABC = (3.0, 2.0, 1.0)
D_GRID = (2.1, 2.3, 2.5, 2.7, 2.9)
L_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)
INERTIA = InertiaSpec(1 / 3, 1 / 2, 1.0)


def report(num: int, name: str, elapsed: float, budget: float) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def section_state(d: float, l: float = 1.0) -> MomentumState:
    a, b, c = ABC
    p1 = math.sqrt(2 * l * (d - c) / (a - c))
    p3 = math.sqrt(2 * l * (a - d) / (a - c))
    return MomentumState(p1, 0.0, p3)


def test_criterion_01_oracle_triangle():
    start = time.perf_counter()
    for d in D_GRID:
        m = ModuliPoint(*ABC, d, 1.0)
        s_closed = S_closed_form(m)
        s_quad = quadrature_sigma_integral(m)
        assert abs(s_closed - s_quad) / abs(s_closed) < 1e-9
        t_ode = orbit_period(section_state(d), INERTIA)
        assert abs(6.0 * math.pi * s_closed + t_ode) / t_ode < 1e-6
    report(1, "oracle triangle", time.perf_counter() - start, 30.0)


def test_criterion_02_connection_identity_grid():
    start = time.perf_counter()
    worst = 0.0
    for l in L_GRID:
        for d in D_GRID:
            worst = max(worst, verify_connection_identity(ModuliPoint(*ABC, d, l)))
    assert worst < 1e-10
    report(2, "connection identity on 25-point grid", time.perf_counter() - start, 5.0)


def test_criterion_03_tau_cycle():
    start = time.perf_counter()
    for d in D_GRID:
        m = ModuliPoint(*ABC, d, 1.0)
        tau = quadrature_tau_integral(m)
        reference = S_closed_form(m.reorder("cbad"))
        assert abs(tau - reference) < 1e-7
    report(3, "tau cycle quadrature", time.perf_counter() - start, 10.0)


def test_criterion_04_imaginary_modulus_identity():
    start = time.perf_counter()
    worst = 0.0
    for lam in np.linspace(-5.0, 0.5, 101):
        lhs = elliptic_K(lam / (lam - 1.0))
        rhs = math.sqrt(1.0 - lam) * elliptic_K(lam)
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-10
    report(4, "imaginary-modulus identity", time.perf_counter() - start, 1.0)


def test_criterion_05_covariance_classes():
    start = time.perf_counter()
    rep = verify_symmetries(ModuliPoint(*ABC, 2.5, 1.0))
    assert rep.class_sizes == {"S1": 8, "S2": 8, "S3": 8}
    # Every row is an integer vector of the lattice that S1 and S2 span.
    assert all(isinstance(n, int) for r in rep.rows for n in r.vector)
    assert rep.max_residual < 1e-9
    assert len(rep.stabilizer) == 8
    assert {"acbd", "bdac"} <= set(rep.stabilizer)  # (bc) and (abdc)
    m = ModuliPoint(*ABC, 2.5, 1.0)
    images = {m.reorder(order).coords() for order in rep.stabilizer}
    assert all(m.reorder(p).reorder(q).coords() in images for p in rep.stabilizer for q in rep.stabilizer)
    report(5, "covariance partition", time.perf_counter() - start, 2.0)


def test_criterion_06_local_monodromy():
    start = time.perf_counter()
    expected = {
        "alpha1": ((1, 2), (0, 1)),
        "alpha2": ((-1, 2), (-2, 3)),
        "alpha3": ((1, 0), (-2, 1)),
    }
    computed = {}
    for label, entries in expected.items():
        result = preset_monodromy(label)
        matrix = result.matrix
        assert result.residual < 1e-6
        assert matrix.entries == entries
        assert matrix.entries[0][0] + matrix.entries[1][1] == 2  # each family is unipotent
        computed[label] = np.array(matrix.entries)
    # Conjugacy witnesses; the alpha2 witness has determinant -1 because the
    # class of [[1,-2],[0,1]] belongs to the other loop orientation.
    u = np.array([[1, 2], [0, 1]])
    u_inv = np.array([[1, -2], [0, 1]])
    w2 = np.array([[1, 0], [1, -1]])
    w3 = np.array([[0, -1], [1, 0]])
    assert np.array_equal(w2 @ u_inv @ np.linalg.inv(w2).astype(int), computed["alpha2"])
    assert np.array_equal(w3 @ u @ np.linalg.inv(w3).astype(int), computed["alpha3"])
    report(6, "local monodromy triple", time.perf_counter() - start, 60.0)


def test_criterion_07_global_monodromy():
    start = time.perf_counter()
    for label in GENERATOR_LABELS:
        result = preset_monodromy(label)
        assert result.matrix == PRESETS[label][2]
        assert result.residual < 1e-6
    report(7, "global monodromy generators", time.perf_counter() - start, 120.0)


def test_criterion_08_confluence_product():
    start = time.perf_counter()
    out = verify_confluence_product()
    assert out["alpha1 alpha3 alpha2"]["is_minus_identity"]
    assert out["alpha1 alpha3 alpha2"]["product"] == [[-1, 0], [0, -1]]
    report(8, "confluence product", time.perf_counter() - start, 1.0)


def test_criterion_09_birkhoff_series():
    start = time.perf_counter()
    series = birkhoff_series(order=12)
    for n in range(13):
        poly = series.polys[n]
        assert all(isinstance(c, Fraction) for c in poly)
        assert tuple(reversed(poly)) == poly
    for n in range(1, 9):
        roots = np.roots([float(x) for x in reversed(series.polys[n])])
        assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-6
    report(9, "Birkhoff palindromes and roots", time.perf_counter() - start, 10.0)


def test_criterion_10_conservation():
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    regimes = ((2.05, 2.95), (1.05, 1.95))
    for lo, hi in regimes:
        for _ in range(5):
            d = rng.uniform(lo, hi)
            l = rng.uniform(0.5, 2.0)
            state = section_state(d, l)
            period = orbit_period(state, INERTIA, tol=1e-12)
            traj = integrate_orbit(state, INERTIA, 100.0 * period, tol=1e-12)
            assert traj.drift_h < 1e-9
            assert traj.drift_l < 1e-9
    report(10, "conservation over 100 periods", time.perf_counter() - start, 30.0)


def test_criterion_11_hypergeometric_residuals():
    start = time.perf_counter()
    rng = np.random.default_rng(11)

    def sample(region: str) -> complex:
        # Margin from the singular points and the real axis (where the cuts
        # run) keeps the finite-difference stencil well conditioned.
        while True:
            w = complex(rng.uniform(-0.75, 0.75), rng.uniform(-0.75, 0.75))
            if not 0.25 < abs(w) < 0.75 or abs(w.imag) < 0.08:
                continue
            if region == "at0":
                return w
            if region == "at1":
                return 1.0 - w
            return 1.0 / w  # atInf: 1.33 < |z| < 4

    worst = 0.0
    for region in ("at0", "at1", "atInf"):
        for _ in range(10):
            z = sample(region)
            for k in range(2):
                res = gauss_ode_residual(
                    lambda w, k=k, b=region: basis_eval(b, w)[k][0], z
                )
                worst = max(worst, abs(res))
    assert worst < 1e-8
    report(11, "hypergeometric ODE residuals", time.perf_counter() - start, 1.0)
