"""Rigid-body vector field, invariants, orbits, and return times."""

import math
import random
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from eulertop import dynamics
from eulertop.core import MAX_SAMPLES, DomainError, InertiaSpec, ModuliPoint
from eulertop.dynamics import (
    MAX_CHARACTERISTIC_TIMES,
    IntegrationError,
    MomentumState,
    SeparatrixError,
    conserved,
    integrate_orbit,
    orbit_period,
    _characteristic_time,
    _dense_value,
    _dop853,
    _field,
)
from eulertop.periods import euler_period, period_report
from test_branch_properties import PROPERTY

INERTIA = InertiaSpec(1 / 3, 1 / 2, 1.0)


def chamber_state(d: float, l: float = 1.0) -> MomentumState:
    """Point on the p2 = 0 section of the orbit with energy h = d * l."""
    a, b, c = INERTIA.reciprocals()
    p1 = math.sqrt(2 * l * (d - c) / (a - c))
    p3 = math.sqrt(2 * l * (a - d) / (a - c))
    return MomentumState(p1, 0.0, p3)


def test_rhs_matches_cyclic_formula():
    p = (0.7, -1.1, 0.4)
    got = _field(p, INERTIA.reciprocals())
    a, b, c = INERTIA.reciprocals()
    want = (
        -(b - c) * p[1] * p[2],
        -(c - a) * p[2] * p[0],
        -(a - b) * p[0] * p[1],
    )
    assert type(got) is tuple
    assert got == pytest.approx(want, rel=1e-15)


def test_rhs_is_tangent_to_both_invariants():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.normal(size=3)
        v = np.array(_field(tuple(p.tolist()), INERTIA.reciprocals()))
        grad_l = p
        grad_h = p * INERTIA.reciprocals()
        assert abs(v @ grad_l) < 1e-12
        assert abs(v @ grad_h) < 1e-12


def test_conserved_values():
    # A state, three floats, or the rows of a stack (3, N) through its own
    # elementwise arithmetic.
    for p in (MomentumState(1.0, 0.0, 1.0), (1.0, 0.0, 1.0), np.array([1.0, 0.0, 1.0])):
        h, l = conserved(p, INERTIA)
        assert h == pytest.approx(2.0)
        assert l == pytest.approx(1.0)
    h, l = conserved(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]), INERTIA)
    np.testing.assert_allclose(h, [2.0, 1.0])
    np.testing.assert_allclose(l, [1.0, 0.5])


def test_integrate_orbit_conserves_invariants():
    traj = integrate_orbit(chamber_state(2.5), INERTIA, 50.0)
    assert traj.drift_h < 1e-10
    assert traj.drift_l < 1e-10
    assert traj.t[0] == 0.0
    assert traj.t[-1] == pytest.approx(50.0)
    # Tuples of floats, the momenta as 3-tuples.
    assert all(type(x) is tuple for x in (traj.t, traj.p, traj.H, traj.L))
    assert len(traj.p) == len(traj.H) == len(traj.L) == len(traj.t)
    assert {type(q) for q in traj.p} == {tuple} and {len(q) for q in traj.p} == {3}


def test_integrate_orbit_rejects_bad_horizon():
    with pytest.raises(DomainError):
        integrate_orbit(chamber_state(2.5), INERTIA, -1.0)
    # The characteristic time 1/sqrt(2 l (a - c)(a - b)) is 1/2 here.
    with pytest.raises(DomainError, match="characteristic times"):
        integrate_orbit(chamber_state(2.5), INERTIA, 1.001 * MAX_CHARACTERISTIC_TIMES / 2.0, n_samples=3)


@pytest.mark.parametrize("t_end, kw, message", [
    (math.nan, {}, "t_end must be positive and finite, got nan"),
    (math.inf, {}, "t_end must be positive and finite, got inf"),
    (1.0, {"tol": -1.0}, "tol must be positive and finite, got -1.0"),
    (1.0, {"tol": math.nan}, "tol must be positive and finite, got nan"),
    (1.0, {"n_samples": 0}, "n_samples must be an integer from 1 to 100001, got 0"),
    (1.0, {"n_samples": MAX_SAMPLES + 1}, "n_samples must be an integer from 1 to 100001, got 100002"),
    (1.0, {"n_samples": 2.0}, "n_samples must be an integer"),
    (1.0, {"n_samples": True}, "n_samples must be an integer from 1 to 100001, not the bool True"),
    # Any integer type is taken, a numpy integer too: it reaches the stepper.
    (1.0, {"n_samples": np.int64(5)}, None),
    # A relative tolerance of 1 or more asks for no digit.
    (1.0, {"tol": 10.0}, "tol must be below 1, got 10.0"),
])
def test_integrate_orbit_refuses_bad_scalars_before_any_work(t_end, kw, message):
    # Refused before the stepper runs: a nan t_end would leave the samples
    # unfilled, and a negative tol would step at the wrong tolerance.
    with mock.patch.object(dynamics, "_dop853", side_effect=AssertionError("integrated")):
        with pytest.raises(AssertionError if message is None else DomainError, match=message or "integrated"):
            integrate_orbit(MomentumState(1.0, 0.5, 0.2), InertiaSpec(1, 2, 3), t_end, **kw)


@pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
def test_orbit_periods_refuse_a_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        orbit_period(MomentumState(1.0, 0.5, 0.2), InertiaSpec(1, 2, 3), tol=tol)


@pytest.mark.parametrize("tol", [1.0, 10.0])
def test_orbit_period_refuses_a_tolerance_of_one_or_more_before_stepping(tol):
    # tol = 10 once returned 31.9 for a period of 10.75.
    with mock.patch.object(dynamics, "_dop853", side_effect=AssertionError("integrated")):
        with pytest.raises(DomainError, match=f"tol must be below 1, got {tol!r}"):
            orbit_period(MomentumState(1.0, 0.5, 0.2), InertiaSpec(1, 2, 3), tol=tol)


def test_characteristic_time_names_an_underflowing_level_at_its_scale():
    # The caller's L, about 4.4 * 4**-1063, is below every float: the
    # refusal names the scaled level and its power of four.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"at Casimir L = 4\.39\d* \* 4\*\*-1063 put .* at L \* 4\*\*1063 = 4\.39"):
            orbit_period(MomentumState(3e-320, 0.0, 5e-324), INERTIA)


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
    # Below the separatrix energy the orbit circles the p3 axis; the zeros
    # of p1 and p2 then mark its quarter periods.
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
    with pytest.raises(DomainError, match="equilibrium"):
        orbit_period(MomentumState(0.0, 0.0, math.sqrt(2.0)), INERTIA)
    with pytest.raises(DomainError):
        orbit_period(MomentumState(0.0, 0.0, 0.0), INERTIA)


@pytest.mark.parametrize("reciprocals, p0, message", [
    # 2 L (a - c)(a - b) overflows, or underflows below the normal floats, at
    # the level each row is scaled to, its largest component in [2, 4); the
    # refusal names the caller's L.
    ((1e155, 1.0, 0.5), (1.0, 0.0, 1.0), "2 L \\(a - c\\)\\(a - b\\) = inf at L \\* 4\\*\\*1 = 4.0"),
    ((3e-160, 2e-160, 1e-160), (1.0, 0.0, 2.0), "2 L \\(a - c\\)\\(a - b\\) = 1e-319, or"),
    # The time scale is fine, but |f| on the unit sphere, about (a - c)/2, is not.
    ((3e154, 2.98e154, 1.0), (1.0, 0.0, 1.0), "speed on the unit sphere"),
    ((3e155, 2.997e155, 1.0), (0.0, 1e-3, 1e-3), "L = 1e-06 put 2 L \\(a - c\\)\\(a - b\\) = inf at L \\* 4\\*\\*11 = "),
])
def test_orbit_periods_refuse_moments_outside_the_float_range(reciprocals, p0, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=message) as info:
            orbit_period(MomentumState(*p0), InertiaSpec.from_reciprocals(*reciprocals))
    assert f"a > b > c = {reciprocals[0]!r}" in str(info.value)


@pytest.mark.parametrize("p0", [(1e-160, 0.0, 2e-160), (1e200, 0.0, 2e200)])
def test_orbit_periods_take_states_whose_casimir_is_outside_the_float_range(p0):
    # |p0|^2 / 2 underflows or overflows; each row is scaled by a power of two
    # before its invariants are formed.  (1e-160, 0, 1e-160) would sit on the
    # separatrix, d = (3 + 1) / 2 = b.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orbit_period(MomentumState(*p0), INERTIA)
    assert got == pytest.approx(_reference_period(p0, INERTIA.reciprocals()), rel=1e-11)


def test_orbit_periods_match_closed_form():
    # Both families, l from 1e-300 to 1e300, rows at 1e-4 of the separatrix
    # gap, and one state flowed off the p2 = 0 plane.
    rows = [(2.5, 1.0, "p1"), (1.5, 0.3, "p3"), (2.0001, 7.0, "p1"), (1.9999, 1.0, "p3"), (2.9, 0.05, "p1"),
            (2.5, 1e-300, "p1"), (1.5, 1e300, "p3")]
    states = [chamber_state(d, l) for d, l, _ in rows]
    traj = integrate_orbit(chamber_state(1.2, 2.0), INERTIA, 0.37, n_samples=11)
    states.append(MomentumState(*traj.p[-1]))
    rows.append((1.2, 2.0, "p3"))
    got = [orbit_period(state, INERTIA) for state in states]
    want = [euler_period(ModuliPoint(3, 2, 1, d, l), axis=axis) for d, l, axis in rows]
    np.testing.assert_allclose(got, want, rtol=1e-10)


def _reference_period(p, reciprocals) -> float:
    """The period through p from mpmath at p's own energy ratio d = h/l:
    T = 2 sqrt(2/l) K(mu) / sqrt((d - c)(a - b)), a > b > c the sorted
    reciprocals, relabelled a <-> c below the separatrix d = b."""
    with mpmath.workdps(40):
        p = [mpmath.mpf(x) for x in p]
        r = [mpmath.mpf(x) for x in reciprocals]
        l = sum(x * x for x in p) / 2
        d = sum(ri * x * x for ri, x in zip(r, p)) / (2 * l)
        a, b, c = sorted(r, reverse=True)
        if d < b:
            a, c = c, a
        mu = (d - a) * (b - c) / ((d - c) * (b - a))
        return float(2 * mpmath.sqrt(2 / l) * mpmath.ellipk(mu) / mpmath.sqrt((d - c) * (a - b)))


@PROPERTY
@given(
    axis=st.sampled_from(["p1", "p3"]),
    near_axis=st.booleans(),
    log_distance=st.floats(-4.0, math.log10(0.5)),
    log_l=st.floats(-300.0, 300.0),
    start=st.sampled_from(["p2 = 0", "other zero plane", "flowed"]),
    turn=st.floats(0.01, 0.99),
)
def test_orbit_period_matches_mpmath_at_its_own_energy(axis, near_axis, log_distance, log_l, start, turn):
    # Distances of 1e-4 to 1 - 1e-4 of the gap from the separatrix, starts on
    # either zero plane or flowed off them; the reference is taken at the
    # energy of the state actually passed, so only the ODE route is tested.
    a, b, c = INERTIA.reciprocals()
    gap, sign = (a - b, 1.0) if axis == "p1" else (b - c, -1.0)
    distance = 10.0 ** log_distance
    d = b + sign * gap * (1.0 - distance if near_axis else distance)
    l = 10.0 ** log_l
    if start == "other zero plane":
        # p3 = 0 on a p1 orbit, p1 = 0 on a p3 orbit: the circled component
        # k, of reciprocal r, and p2 share the unit sphere.
        r, k = (a, 0) if axis == "p1" else (c, 2)
        q = [0.0, math.sqrt((r - d) / (r - b)), 0.0]
        q[k] = math.sqrt((d - b) / (r - b))
    else:
        q = [math.sqrt((d - c) / (a - c)), 0.0, math.sqrt((a - d) / (a - c))]
    if start == "flowed":
        # Flowed on the unit sphere, then scaled, so the flow is accurate at any l.
        period = euler_period(ModuliPoint(a, b, c, d, 0.5), axis=axis)
        q = list(integrate_orbit(MomentumState(*q), INERTIA, turn * period, n_samples=2).p[-1])
    p = [math.sqrt(2.0 * l) * x for x in q]
    got = orbit_period(MomentumState(*p), INERTIA)
    assert got == pytest.approx(_reference_period(p, INERTIA.reciprocals()), rel=1e-11)


def _record_orbits(monkeypatch) -> list:
    """Each _dop853 run from here on, as the list of its states: the start,
    then the state after each accepted step, with the step's end."""
    runs = []

    def recording(fun, t0, y0, t_bound, **kwargs):
        runs.append([(t0, y0)])
        for step in _dop853(fun, t0, y0, t_bound, **kwargs):
            runs[-1].append(step[:2])
            yield step

    monkeypatch.setattr(dynamics, "_dop853", recording)
    return runs


def test_orbit_stepped_alone_stops_within_a_step_of_its_quarter(monkeypatch):
    # Each orbit runs alone and stops in the step that passes its own
    # quarter period, in characteristic time.
    runs = _record_orbits(monkeypatch)
    rows = [(2.5, 1.0, "p1"), (2.0001, 7.0, "p1"), (1.5, 0.3, "p3"), (1.9999, 1.0, "p3")]
    for d, l, _ in rows:
        orbit_period(chamber_state(d, l), INERTIA)
    assert len(runs) == len(rows)
    for (d, l, axis), run in zip(rows, runs):
        period = euler_period(ModuliPoint(3, 2, 1, d, l), axis=axis) / _characteristic_time(l, INERTIA.reciprocals())
        assert run[-2][0] < period / 4.0 <= run[-1][0]


def test_orbit_stepped_alone_counts_both_zeros_a_step_passes(monkeypatch):
    # Each orbit alone at a tolerance loose enough that one step passes
    # a zero of each watched component, on an orbit of each family.
    rows = [(2.9, "p1"), (1.1, "p3")]
    periods = [euler_period(ModuliPoint(3, 2, 1, d, 0.5), axis=axis) for d, axis in rows]
    states = [
        MomentumState(*integrate_orbit(chamber_state(d, 0.5), INERTIA, period / 8, n_samples=2).p[-1])
        for (d, _), period in zip(rows, periods)
    ]
    runs = _record_orbits(monkeypatch)
    got = [orbit_period(state, INERTIA, tol=0.1) for state in states]
    # Row 0 watches p2 and p3, row 1 p1 and p2.
    for watched, run in zip([(1, 2), (0, 1)], runs):
        signs = np.sign([y for _, y in run])
        flips = signs[1:] != signs[:-1]
        assert np.any(flips[:, watched[0]] & flips[:, watched[1]])
    np.testing.assert_allclose(got, periods, rtol=1e-3)


# The mean log10 relative error against mpmath on the rows of the test
# below, per share of the gap, when the ODE route stepped the rows of a
# call as one numpy batch (measured before each orbit was stepped alone,
# rounded down).
_BATCH_DIGITS = {1e-2: -13.42, 1e-4: -12.80, 1e-6: -10.99}


@pytest.mark.parametrize("share", sorted(_BATCH_DIGITS, reverse=True))
def test_orbits_stepped_alone_keep_the_batch_digits_near_the_separatrix(share):
    # Four levels l, on three seeded sets of moments per family, at a share
    # of the gap from the separatrix.
    # Near the separatrix a row's error is mostly its energy's rounding,
    # which follows the moments more than the route, so the bound is on the
    # mean digits: the batch's own on these rows.
    rng = random.Random(f"separatrix:{share}")
    errors = []
    for family in ("p1", "p3"):
        for _ in range(3):
            c = rng.uniform(0.2, 2.0)
            b = c + rng.uniform(0.2, 3.0)
            a = b + rng.uniform(0.2, 3.0)
            d = b + (a - b) * share if family == "p1" else b - (b - c) * share
            levels = [10.0 ** rng.uniform(-2.0, 2.0) for _ in range(4)]
            states = [MomentumState(*(math.sqrt(2.0 * l * x / (a - c)) for x in (d - c, 0.0, a - d))) for l in levels]
            inertia = InertiaSpec.from_reciprocals(a, b, c)
            got = [orbit_period(state, inertia) for state in states]
            for state, period in zip(states, got):
                want = _reference_period((state.p1, state.p2, state.p3), (a, b, c))
                errors.append(max(abs(period - want) / want, 1e-17))
    assert sum(map(math.log10, errors)) / len(errors) <= _BATCH_DIGITS[share]


def test_a_rows_period_does_not_depend_on_its_call():
    # 90 rows, 9 shares from 1e-4 to 0.4 of the gap at 5 levels l on each
    # family, in one grid and in grid parts of 4 d values: each row's orbit
    # is stepped alone, so every S_ode keeps its bits.
    a, b, c = INERTIA.reciprocals()
    shares = [10.0 ** (-4.0 + 3.6 * k / 8) for k in range(9)]
    levels = [10.0 ** k for k in range(-2, 3)]
    for axis, grid_d in (("p1", [b + (a - b) * s for s in shares]), ("p3", [b - (b - c) * s for s in shares])):
        whole = period_report(a, b, c, axis, grid_d, levels, 1e-7)["rows"]
        parts = [row for k in range(0, len(grid_d), 4)
                 for row in period_report(a, b, c, axis, grid_d[k:k + 4], levels, 1e-7)["rows"]]
        assert len(whole) == len(parts) == 45
        assert {(r["d"], r["l"]): r["S_ode"] for r in parts} == {(r["d"], r["l"]): r["S_ode"] for r in whole}


def test_dop853_rejects_a_step_that_overflows():
    # The field is 0 until t = 1, so the steps grow tenfold each, then
    # -1e6 y**3: the first step across t = 1 overflows in its stages.
    # The stepper rejects such steps, without an exception or a warning,
    # and ends on t_bound at y = 1 / sqrt(1 / y0**2 + 2e6 (t - 1)).
    y0 = (1.0, 2.0, 0.5)
    overflowed = []

    def fun(t, y):
        f = [0.0 if t < 1.0 else -1e6 * x * x * x for x in y]
        overflowed.append(not all(map(math.isfinite, f)))
        return tuple(f)

    want = [1.0 / math.sqrt(1.0 / (x * x) + 4e6) for x in y0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *_, (t, y, _) = _dop853(fun, 0.0, y0, 3.0, rtol=1e-10, atol=1e-12)
    assert any(overflowed) and t == 3.0
    np.testing.assert_allclose(y, want, rtol=1e-10)


def test_dense_value_is_the_dense_output_of_one_component():
    # The first step of an orbit starts where scipy's DOP853 starts and
    # takes its step size; each component's interpolant agrees with scipy's
    # dense output to rounding, and is the step's start at x = 0.
    reciprocals = INERTIA.reciprocals()
    q0 = (0.6, 0.0, 0.8)
    t, _, dense = next(_dop853(lambda t, q: _field(q, reciprocals), 0.0, q0, 10.0, rtol=1e-12, atol=1e-12))
    ref = DOP853(lambda t, q: np.array(_field(q, reciprocals)), 0.0, np.array(q0), 10.0, rtol=1e-12, atol=1e-12)
    ref.step()
    assert t == ref.t
    t_old, h, F, y_old = dense()
    want = ref.dense_output()
    for x in (0.0, 0.3, 0.7, 1.0):
        got = [_dense_value([coeff[i] for coeff in F], y_old[i], x) for i in range(3)]
        np.testing.assert_allclose(got, want(t_old + x * h), rtol=1e-15, atol=1e-16)
        assert x or got == list(y_old)


def _count_beside_scipy(fun, y0, t_bound, rtol, atol):
    """Step _dop853 and scipy's DOP853 over y' = fun(t, y), three Python
    floats, to t_bound, and assert that they take as many accepted steps and
    evaluations of fun, that the last step ends on t_bound, and that the end
    states agree within the tolerances asked.  Their bits differ: scipy sums with numpy, the
    stepper left to right and with compensation.  Returns the number of
    steps and of evaluations."""
    ref = DOP853(lambda t, y: np.array(fun(t, tuple(y.tolist()))), 0.0, np.array(y0), t_bound, rtol=rtol, atol=atol)
    ref_steps = 0
    while ref.status == "running":
        assert ref.step() is None
        ref_steps += 1
    calls = []

    def counted(t, y):
        calls.append(t)
        return fun(t, y)

    steps = [step[:2] for step in _dop853(counted, 0.0, y0, t_bound, rtol=rtol, atol=atol)]
    assert (len(steps), len(calls)) == (ref_steps, ref.nfev)
    t, y = steps[-1]
    assert t == t_bound == ref.t
    np.testing.assert_allclose(y, ref.y, rtol=rtol, atol=atol)
    return len(steps), len(calls)


@pytest.mark.parametrize("p0, t_end, counts", [((1.0, 0.5, 0.2), 10.0, (32, 386)), ((0.3, -1.2, 0.7), 200.0, (604, 7250))])
def test_dop853_steps_euler_top_orbits_like_scipy(p0, t_end, counts):
    # Orbits as integrate_orbit steps them, at its default tolerance.
    reciprocals = InertiaSpec(1.0, 2.0, 3.0).reciprocals()
    assert _count_beside_scipy(lambda t, p: _field(p, reciprocals), p0, t_end, 1e-12, 1e-12) == counts


def test_dop853_rejects_steps_like_scipy():
    steps, nfev = _count_beside_scipy(lambda t, y: tuple(-500.0 * (x - math.cos(t)) for x in y), (0.0, 2.0, -1.0),
                                      3.0, 1e-6, 1e-9)
    # An accepted step costs 12 evaluations and the start 2; the rest are
    # 22 rejected steps.
    assert (steps, nfev) == (277, 3590) and nfev > 12 * steps + 2


def test_dop853_clips_the_last_step_like_scipy():
    steps, _ = _count_beside_scipy(lambda t, y: (y[1], -y[0], 0.5 * y[2]), (1.0, 0.0, 1.0), 1.2345, 1e-10, 1e-10)
    assert steps == 5


def test_dop853_fails_on_a_too_small_step_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="less than spacing between numbers"):
            for _ in _dop853(lambda t, y: (y[1], -y[0], 0.0), 0.0, (1.0, 0.0, 0.0), 1.0, rtol=0.0, atol=1e-300):
                pass


@pytest.mark.parametrize("p0, t_end, samples", [
    ((1.0, 0.5, 0.2), 10.0, 101), ((0.3, -1.2, 0.7), 200.0, 2001), ((0.0, 0.0, 0.0), 1.0, 5),
])
def test_integrate_orbit_matches_solve_ivp(p0, t_end, samples):
    # The sample times are numpy's linspace, bit for bit.  The momenta stay
    # within 1e-15 t_end of scipy's, relative to the largest: rounding grows
    # with the number of steps (1.1e-13 measured at t = 200).
    inertia = InertiaSpec(1.0, 2.0, 3.0)
    reciprocals = inertia.reciprocals()
    traj = integrate_orbit(MomentumState(*p0), inertia, t_end, n_samples=samples)
    sol = solve_ivp(lambda t, p: _field(p, reciprocals), (0.0, t_end), np.array(p0), method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=np.linspace(0.0, t_end, samples))
    assert traj.t == tuple(sol.t.tolist())
    assert np.max(np.abs(np.array(traj.p) - sol.y.T)) <= 1e-15 * t_end * np.max(np.abs(sol.y))


@pytest.mark.parametrize("t_end, samples", [(5e-324, 3), (3e-323, 100), (1.0, 2), (108.37877678873703, 2001)])
def test_integrate_orbit_samples_at_numpys_linspace(t_end, samples):
    # Where t_end / (samples - 1) underflows to 0, numpy spaces the times
    # as i / (samples - 1) * t_end instead.
    traj = integrate_orbit(MomentumState(1.0, 0.5, 0.2), InertiaSpec(1.0, 2.0, 3.0), t_end, n_samples=samples)
    assert traj.t == tuple(np.linspace(0.0, t_end, samples).tolist())


@pytest.mark.parametrize("samples", [1, 5, 2001, 20001])
def test_integrate_orbit_samples_like_each_steps_interpolant(samples):
    # The reference reads each step's samples from that step's own
    # interpolant, one component at a time by _dense_value, and finds the
    # samples of a step by numpy's searchsorted; integrate_orbit must give
    # the same bits.  The orbit takes about 1,900 steps.
    inertia = InertiaSpec(1.6854392932156403, 0.9288621276165752, 0.3212160890504273)
    p0 = (1.1846703691020275, 0.36118512848764794, 1.1015098068379459)
    t_end = 108.37877678873703
    reciprocals = inertia.reciprocals()
    traj = integrate_orbit(MomentumState(*p0), inertia, t_end, n_samples=samples)
    t_eval = np.linspace(0.0, t_end, samples)
    want, done, step_ends = [], 0, {0.0}
    for t, _, dense in _dop853(lambda t, p: _field(p, reciprocals), 0.0, p0, t_end, rtol=1e-12, atol=1e-12):
        step_ends.add(t)
        reached = np.searchsorted(t_eval, t, side="right")
        if reached > done:
            t_old, h, F, y_old = dense()
            for s in t_eval[done:reached].tolist():
                want.append(tuple(_dense_value([coeff[i] for coeff in F], y_old[i], (s - t_old) / h) for i in range(3)))
            done = reached
    assert traj.t == tuple(t_eval.tolist())
    assert traj.p == tuple(want)
    assert (traj.H, traj.L) == tuple(zip(*(conserved(q, inertia) for q in want)))
    # Samples on step ends: t = 0 starts the first step, t_end ends the last.
    assert {t_eval[0], t_eval[-1]} <= step_ends


@pytest.mark.parametrize("p0", [(1e200, 1.0, 1.0), (1e-200, 1e-200, 1e-200), (math.nan, 1.0, 1.0)])
def test_integrate_orbit_refuses_a_casimir_outside_the_float_range(p0):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="Casimir"):
            integrate_orbit(MomentumState(*p0), INERTIA, 1.0, n_samples=3)
