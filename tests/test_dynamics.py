"""Rigid-body vector field, invariants, equilibria, and return times."""

import math

import warnings

import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from eulertop.core import DomainError, InertiaSpec, ModuliPoint
from eulertop.dynamics import (
    MAX_CHARACTERISTIC_TIMES,
    IntegrationError,
    MomentumState,
    SeparatrixError,
    classify_equilibria,
    conserved,
    euler_rhs,
    integrate_orbit,
    orbit_period,
    orbit_periods,
    _dop853,
    _field,
)
from eulertop.periods import euler_period

INERTIA = InertiaSpec(1 / 3, 1 / 2, 1.0)


def chamber_state(d: float, l: float = 1.0) -> MomentumState:
    """Point on the p2 = 0 section of the orbit with energy h = d * l."""
    a, b, c = INERTIA.reciprocals()
    p1 = math.sqrt(2 * l * (d - c) / (a - c))
    p3 = math.sqrt(2 * l * (a - d) / (a - c))
    return MomentumState(p1, 0.0, p3)


def test_rhs_matches_cyclic_formula():
    p = np.array([0.7, -1.1, 0.4])
    got = euler_rhs(p, INERTIA)
    a, b, c = INERTIA.reciprocals()
    want = np.array([
        -(b - c) * p[1] * p[2],
        -(c - a) * p[2] * p[0],
        -(a - b) * p[0] * p[1],
    ])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_rhs_is_tangent_to_both_invariants():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=3)
        v = euler_rhs(p, INERTIA)
        grad_l = p
        grad_h = p * INERTIA.reciprocals()
        assert abs(v @ grad_l) < 1e-12
        assert abs(v @ grad_h) < 1e-12


def test_conserved_values():
    h, l = conserved(np.array([1.0, 0.0, 1.0]), INERTIA)
    assert h == pytest.approx(2.0)
    assert l == pytest.approx(1.0)


def test_classify_equilibria_axes_and_stability():
    eqs = classify_equilibria(INERTIA, 1.0)
    assert len(eqs) == 6
    by_axis = {}
    for e in eqs:
        by_axis.setdefault(e.axis, []).append(e)
        np.testing.assert_allclose(
            np.linalg.norm(e.state.as_array()), math.sqrt(2.0), rtol=1e-14
        )
        np.testing.assert_allclose(euler_rhs(e.state.as_array(), INERTIA), 0.0, atol=1e-14)
    assert {axis: {e.stability for e in group} for axis, group in by_axis.items()} == {
        "p1": {"elliptic"},
        "p2": {"hyperbolic"},
        "p3": {"elliptic"},
    }


def test_integrate_orbit_conserves_invariants():
    traj = integrate_orbit(chamber_state(2.5), INERTIA, 50.0)
    assert traj.drift_h < 1e-10
    assert traj.drift_l < 1e-10
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(50.0)
    assert traj.p.shape == (len(traj.t), 3)


def test_integrate_orbit_rejects_bad_horizon():
    with pytest.raises(DomainError):
        integrate_orbit(chamber_state(2.5), INERTIA, -1.0)
    # The characteristic time 1/sqrt(2 l (a - c)(a - b)) is 1/2 here.
    with pytest.raises(DomainError, match="characteristic times"):
        integrate_orbit(chamber_state(2.5), INERTIA, 1.001 * MAX_CHARACTERISTIC_TIMES / 2.0, n_samples=3)


@pytest.mark.parametrize("d", [2.1, 2.5, 2.9])
def test_orbit_period_matches_closed_form(d):
    period = orbit_period(chamber_state(d), INERTIA)
    want = euler_period(ModuliPoint(3, 2, 1, d, 1.0))
    assert period == pytest.approx(want, rel=1e-9)


def test_orbit_period_frozen_value():
    # 6 pi |S| at the base chamber point.
    assert orbit_period(chamber_state(2.5), INERTIA) == pytest.approx(
        4.004309521824426, rel=1e-10
    )


def test_orbit_period_is_phase_independent():
    d = 2.5
    t0 = orbit_period(chamber_state(d), INERTIA)
    traj = integrate_orbit(chamber_state(d), INERTIA, 0.37, n_samples=11)
    moved = MomentumState(*traj.p[-1])
    t1 = orbit_period(moved, INERTIA)
    assert t1 == pytest.approx(t0, rel=1e-9)


def test_orbit_period_other_family():
    # Same section construction mirrored into the p3-rotation regime.
    state = chamber_state(1.5)
    period = orbit_period(state, INERTIA)
    want = euler_period(ModuliPoint(3, 2, 1, 1.5, 1.0), axis="p3")
    assert period == pytest.approx(want, rel=1e-9)


def test_orbit_period_separatrix_refusal():
    with pytest.raises(SeparatrixError):
        orbit_period(chamber_state(2.0), INERTIA)
    with pytest.raises(SeparatrixError):
        orbit_period(chamber_state(2.0 * (1.0 + 1e-10)), INERTIA)


def test_orbit_period_equilibrium_refusal():
    with pytest.raises(DomainError, match="equilibrium"):
        orbit_period(MomentumState(math.sqrt(2.0), 0.0, 0.0), INERTIA)
    with pytest.raises(DomainError):
        orbit_period(MomentumState(0.0, 0.0, 0.0), INERTIA)


@pytest.mark.parametrize("reciprocals, p0, message", [
    # 2 L (a - c)(a - b) overflows, or underflows below the normal floats.
    ((1e155, 1.0, 0.5), (1.0, 0.0, 1.0), "2 L \\(a - c\\)\\(a - b\\) = inf"),
    ((3.0, 2.0, 1.0), (1e-160, 0.0, 1e-160), "2 L \\(a - c\\)\\(a - b\\) = 4e-320"),
    # The time scale is fine, but |f| on the unit sphere, about (b - c)/2, is not.
    ((3e155, 2.997e155, 1.0), (0.0, 1e-3, 1e-3), "speed on the unit sphere"),
])
def test_orbit_periods_refuse_moments_outside_the_float_range(reciprocals, p0, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message) as info:
            orbit_periods([MomentumState(*p0)], InertiaSpec.from_reciprocals(*reciprocals))
    assert f"a > b > c = {reciprocals[0]!r}" in str(info.value)


def test_orbit_periods_batch_matches_closed_form():
    # Both families, l from 1e-300 to 1e300, rows at 1e-4 of the separatrix
    # gap, and one state flowed off the p2 = 0 plane, all in one call, in
    # row order.
    rows = [(2.5, 1.0, "p1"), (1.5, 0.3, "p3"), (2.0001, 7.0, "p1"), (1.9999, 1.0, "p3"), (2.9, 0.05, "p1"),
            (2.5, 1e-300, "p1"), (1.5, 1e300, "p3")]
    states = [chamber_state(d, l) for d, l, _ in rows]
    traj = integrate_orbit(chamber_state(1.2, 2.0), INERTIA, 0.37, n_samples=11)
    states.append(MomentumState(*traj.p[-1]))
    rows.append((1.2, 2.0, "p3"))
    got = orbit_periods(states, INERTIA)
    want = [euler_period(ModuliPoint(3, 2, 1, d, l), axis=axis) for d, l, axis in rows]
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_orbit_periods_batch_refuses_one_bad_row():
    good = [chamber_state(2.5), chamber_state(1.5, 2.0)]
    with pytest.raises(SeparatrixError):
        orbit_periods([*good, chamber_state(2.0)], INERTIA)
    with pytest.raises(DomainError, match="equilibrium"):
        orbit_periods([good[0], MomentumState(0.0, 0.0, math.sqrt(2.0)), good[1]], INERTIA)


def _step_beside_scipy(fun, y0, t_bound, rtol, atol):
    """Step _dop853 and scipy's DOP853 together, asserting bit-identical t,
    y, step sizes and dense output at interior points of every step.
    Returns the number of steps and scipy's count of rhs evaluations."""
    ref = DOP853(fun, 0.0, y0, t_bound, rtol=rtol, atol=atol)
    every = np.arange(len(y0))[:, None]
    t_old, steps = 0.0, 0
    for t, y, dense in _dop853(fun, 0.0, y0, t_bound, rtol=rtol, atol=atol):
        assert ref.step() is None
        assert (t, t - t_old) == (ref.t, ref.step_size)
        assert np.array_equal(y, ref.y)
        times = t_old + np.array([0.1, 0.5, 0.9]) * (t - t_old)
        at, want = dense(), ref.dense_output()
        assert np.array_equal(at(times, every), want(times))
        assert np.array_equal(at(times[1]), want(times[1]))
        t_old, steps = t, steps + 1
    assert ref.status == "finished" and t == t_bound
    return steps, ref.nfev


@pytest.mark.parametrize("n", [1, 64])
def test_dop853_steps_the_batched_system_like_scipy(n):
    # orbit_periods' system and tolerances, on n random unit-sphere orbits.
    rng = np.random.default_rng(n)
    q0 = rng.normal(size=(3, n))
    q0 /= np.linalg.norm(q0, axis=0)
    reciprocals = INERTIA.reciprocals()
    batch_tol = 0.5e-12 / math.sqrt(n)

    def fun(t, y):
        return (0.7 * _field(y.reshape(3, n), reciprocals)).ravel()
    steps, _ = _step_beside_scipy(fun, q0.ravel(), 20.0, batch_tol, batch_tol)
    assert steps > 10
    # orbit_periods reads each row's three components at the row's own time.
    t, _, dense = next(_dop853(fun, 0.0, q0.ravel(), 20.0, rtol=batch_tol, atol=batch_tol))
    rows = np.arange(0, n, 3)
    mid = t * rng.uniform(size=rows.size)
    want = DOP853(fun, 0.0, q0.ravel(), 20.0, rtol=batch_tol, atol=batch_tol)
    want.step()
    picked = want.dense_output()(mid).reshape(3, n, rows.size)[:, rows, np.arange(rows.size)]
    assert np.array_equal(dense()(mid, np.arange(3)[:, None] * n + rows), picked)


def test_dop853_rejects_steps_like_scipy():
    steps, nfev = _step_beside_scipy(lambda t, y: -50.0 * (y - np.cos(t)), np.array([0.0, 2.0]), 3.0, 1e-6, 1e-9)
    # An accepted step costs 12 evaluations and the start 2; the rest are
    # rejected steps.
    assert nfev > 12 * steps + 2


def test_dop853_clips_the_last_step_like_scipy():
    steps, _ = _step_beside_scipy(lambda t, y: np.array([y[1], -y[0]]), np.array([1.0, 0.0]), 1.2345, 1e-10, 1e-10)
    assert steps >= 2


def test_dop853_fails_on_a_too_small_step_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="less than spacing between numbers"):
            for _ in _dop853(lambda t, y: np.array([y[1], -y[0]]), 0.0, np.array([1.0, 0.0]), 1.0, rtol=0.0, atol=1e-300):
                pass


@pytest.mark.parametrize("p0, t_end, samples", [
    ((1.0, 0.5, 0.2), 10.0, 101), ((0.3, -1.2, 0.7), 200.0, 2001), ((0.0, 0.0, 0.0), 1.0, 5),
])
def test_integrate_orbit_matches_solve_ivp(p0, t_end, samples):
    inertia = InertiaSpec(1.0, 2.0, 3.0)
    reciprocals = inertia.reciprocals()
    traj = integrate_orbit(MomentumState(*p0), inertia, t_end, n_samples=samples)
    sol = solve_ivp(lambda t, p: _field(p, reciprocals), (0.0, t_end), np.array(p0), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=np.linspace(0.0, t_end, samples))
    assert np.array_equal(traj.t, sol.t)
    assert np.array_equal(traj.p, sol.y.T)


@pytest.mark.parametrize("p0", [(1e200, 1.0, 1.0), (1e-200, 1e-200, 1e-200), (math.nan, 1.0, 1.0)])
def test_integrate_orbit_refuses_a_casimir_outside_the_float_range(p0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="Casimir"):
            integrate_orbit(MomentumState(*p0), INERTIA, 1.0, n_samples=3)
