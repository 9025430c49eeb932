"""Elliptic integrals, F and F' from the AGM, the hypergeometric check
references of ``oracles``, germ transport."""

import cmath
import math
import random
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import LOG16, RegionError, basis_eval, gauss_ode_residual, hyper_series
from scipy.integrate import solve_ivp
from test_branch_properties import PROPERTY

from eulertop import monodromy, special
from eulertop.monodromy import PathTooCloseError, _step_matrices, _transport_germs
from eulertop.special import BranchCutError, DivergenceError, _F_closed, _sqrt_sided, elliptic_K

# Frozen reference values (AGM / series, cross-checked against scipy.special).
K_HALF = 1.8540746773013719
K_MINUS_ONE = 1.3110287771460598
F_03 = 1.0910959103627813
FSTAR_03 = 0.18808374835689526


def _lasso(z0, center, entry, spacing=0.02):
    """Points from z0 to entry, once counterclockwise round the circle about
    center through entry, and back, at most spacing apart."""
    line = np.linspace(z0, entry, int(np.ceil(abs(entry - z0) / spacing)) + 1)
    r, t0 = abs(entry - center), np.angle(entry - center)
    theta = t0 + np.linspace(0.0, 2 * np.pi, int(np.ceil(2 * np.pi * r / spacing)) + 1)
    return np.concatenate([line, (center + r * np.exp(1j * theta))[1:], line[::-1][1:]])


def test_elliptic_K_at_zero_is_quarter_turn():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)


def test_elliptic_K_real_values():
    assert elliptic_K(0.5) == pytest.approx(K_HALF, rel=1e-14)
    assert elliptic_K(-1.0) == pytest.approx(K_MINUS_ONE, rel=1e-14)


def test_elliptic_K_complex_argument():
    got = elliptic_K(0.3 + 0.4j)
    assert got == pytest.approx(1.6502419256419398 + 0.20951070412398679j, rel=1e-13)


def _agm_stopping_on_the_means_only(m):
    # special._agm's loop as it was before it also stopped on an iteration
    # that leaves the pair of means unchanged.
    x = complex(1.0, 0.0)
    y = cmath.sqrt(1.0 - m)
    weight, c2, term, s = 0.5, complex(m), 1.0 + 0j, 0j
    for _ in range(64):
        if abs(x - y) <= 1e-17 * abs(x):
            break
        x1 = 0.5 * (x + y)
        y1 = cmath.sqrt(x * y)
        ds, dd = abs(x1 + y1), abs(x1 - y1)
        if dd > ds or (dd == ds and (y1 / x1).imag < 0.0):
            y1 = -y1
        weight *= 2.0
        ratio = c2 / (16.0 * x1 * x1)
        c2 *= ratio
        term *= ratio
        s += weight * term
        x, y = x1, y1
    return math.pi / (2.0 * x), s


def test_agm_stop_on_a_repeated_pair_keeps_K_and_its_sum_bit_identical():
    # About a quarter of the real m in (-5, 1) settle on a fixed pair of
    # means an ulp or so apart; the old loop ran on to 64 iterations there.
    rng = random.Random(14)
    points = (
        [0.5, 3 + 0.1j]
        + [rng.uniform(-5.0, 1.0) for _ in range(1000)]
        + [complex(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(1000)]
        + [rng.uniform(1.0, 50.0) for _ in range(500)]
    )
    for m in points:
        assert repr(special._agm(m, 1.0 - m)) == repr(_agm_stopping_on_the_means_only(m)), m


@pytest.mark.parametrize("m", [0.5, 3 + 0.1j])
def test_agm_stops_where_the_means_settle(m):
    # One square root before the loop and one per iteration.
    calls = []
    sqrt = cmath.sqrt
    with mock.patch.object(special.cmath, "sqrt", lambda w: calls.append(w) or sqrt(w)):
        special._agm(m, 1.0 - m)
    assert len(calls) - 1 <= 8


def _F_reference(w):
    with mpmath.workdps(40):
        x = mpmath.mpc(w)
        return complex(mpmath.hyp2f1(0.5, 0.5, 1, x)), complex(mpmath.hyp2f1(1.5, 1.5, 2, x) / 4)


def test_F_and_its_derivative_from_the_agm_match_mpmath():
    # |w| log-uniform in [1e-6, 3] at random angles, and points 1e-12 to
    # 1e-3 above and below both cuts, (-50, 0) and (1, 50).  F' as
    # (E - (1 - m) K) / (2 m (1 - m)) was 5.5e-9 off at 1e-8 + 1e-12i.  The
    # bound is 2e-15 but 3e-15 next to (1, 50): there the AGM starts next to
    # its sided root, and K itself is up to 2.6e-15 off on (1.1, 10) from
    # that start (hence the two AGMs on K's cut), so F is 2.2e-15 off at
    # 5.04 + 1.6e-10i.
    rng = random.Random(32)
    points = [1e-8 + 1e-12j]
    points += [10.0 ** rng.uniform(-6.0, math.log10(3.0)) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
               for _ in range(200)]
    for _ in range(26):
        off = 10.0 ** rng.uniform(-12.0, -3.0)
        for x in (-(10.0 ** rng.uniform(-3.0, math.log10(50.0))), 1.0 + 10.0 ** rng.uniform(-3.0, math.log10(49.0))):
            points += [complex(x, off), complex(x, -off)]
    for w in points:
        bound = 3e-15 if w.real > 1.0 and abs(w.imag) <= 1e-3 else 2e-15
        for got, want in zip(_F_closed(w), _F_reference(w)):
            assert abs(got - want) / abs(want) < bound, w


def test_F_and_its_derivative_from_the_agm_match_the_series():
    # Two independent routes on |w| <= 0.9: the AGM and the series at 0,
    # which is itself 2.6e-15 from mpmath at |w| = 0.9.  At w = 0 both are
    # exact, where (E - (1 - m) K) / (2 m (1 - m)) would be 0/0.
    assert _F_closed(0.0) == hyper_series(0.0)[:2] == (1.0, 0.25)
    rng = random.Random(33)
    for _ in range(500):
        w = 0.9 * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        for got, want in zip(_F_closed(w), hyper_series(w)[:2]):
            assert abs(got - want) / abs(want) < 5e-15, w


def test_elliptic_K_diverges_at_one():
    with pytest.raises(DivergenceError):
        elliptic_K(1.0)


def test_elliptic_K_cut_needs_a_side():
    with pytest.raises(BranchCutError):
        elliptic_K(2.0)
    up = elliptic_K(2.0, side=+1)
    down = elliptic_K(2.0, side=-1)
    # Reciprocal-modulus formula: K(1/2)(1 +- i)/sqrt(2) on the two sides.
    want = K_HALF / math.sqrt(2.0)
    assert up == pytest.approx(want + 1j * want, rel=1e-13)
    assert down == pytest.approx(np.conj(up), rel=1e-13)


def test_elliptic_K_sided_matches_offcut_limit():
    eps = 1e-9
    for side in (+1, -1):
        lim = elliptic_K(2.0 + side * 1j * eps)
        assert elliptic_K(2.0, side=side) == pytest.approx(lim, rel=1e-7)


def test_elliptic_K_on_its_cut_matches_mpmath():
    # K(m +/- i0) against 50 digits, on m in (1.1, 10) and on m - 1
    # log-uniform in [1e-14, 1e15].  The cut branch takes two AGMs, at 1/m
    # and 1 - 1/m; its worst here is 3.6e-16 on (1.1, 10) and 4.3e-16 on
    # the log-uniform set.  One AGM started at the sided root
    # -side i sqrt(m - 1) reaches 2.6e-15 on (1.1, 10), with 10 of those
    # 2,000 values above the bound: that is why the cut keeps two.
    rng = random.Random(2)
    points = [rng.uniform(1.1, 10.0) for _ in range(1000)]
    points += [1.0 + 10.0 ** rng.uniform(-14.0, 15.0) for _ in range(200)]
    for m in points:
        # mpmath's K at m +/- 1e-60 i rounds to the same doubles, 7 times slower.
        with mpmath.workdps(50):
            x = mpmath.mpf(m)
            k_inv, k_comp, root = mpmath.ellipk(1 / x), mpmath.ellipk(1 - 1 / x), mpmath.sqrt(x)
        for side in (+1, -1):
            want = complex((k_inv + side * 1j * k_comp) / root)
            assert abs(elliptic_K(m, side) - want) / abs(want) < 1e-15, (m, side)
    # Off the cut beyond Re m = 1, against 40 digits: next to the cut, |Im m|
    # log-uniform in [1e-12, 1e-3], and at |Im m| from 1 to 30.  One AGM at
    # m is up to 2.5e-15 off on both sets; the identity's worst is 5e-16 and
    # 8.7e-16.
    near = [complex(rng.uniform(1.05, 10.0), rng.choice((-1, 1)) * 10.0 ** rng.uniform(-12.0, -3.0))
            for _ in range(300)]
    far = [complex(rng.uniform(1.0, 50.0), rng.choice((-1, 1)) * rng.uniform(1.0, 30.0)) for _ in range(200)]
    for m in near + far:
        with mpmath.workdps(40):
            want = complex(mpmath.ellipk(mpmath.mpc(m.real, m.imag)))
        assert abs(elliptic_K(m) - want) / abs(want) < 1e-15, m


def test_hyper_series_matches_reference():
    f, _, fs, _ = hyper_series(0.3)
    assert f == pytest.approx(F_03, rel=1e-14)
    assert fs == pytest.approx(FSTAR_03, rel=1e-13)
    # F is (2/pi) K pointwise on the disc.
    z = 0.41 + 0.27j
    assert hyper_series(z)[0] == pytest.approx((2.0 / math.pi) * elliptic_K(z), rel=1e-13)


def test_hyper_series_region_guard():
    with pytest.raises(RegionError):
        hyper_series(1.2)


@pytest.mark.parametrize("value,deriv", [(0, 1), (2, 3)], ids=["F", "Fstar"])
def test_series_derivatives_match_finite_differences(value, deriv):
    z = 0.23 - 0.31j
    h = 1e-6
    fd = (hyper_series(z + h)[value] - hyper_series(z - h)[value]) / (2.0 * h)
    assert hyper_series(z)[deriv] == pytest.approx(fd, rel=1e-8)


def test_hyper_series_exact_at_zero():
    assert hyper_series(0.0) == (1.0, 0.25, 0.0, 0.5)


@pytest.mark.parametrize(
    "z", [1e-3, 0.3, 0.41 + 0.27j, 0.23 - 0.31j, -0.5 + 0.2j, 0.05j, 0.9, -0.6 - 0.65j, 0.9j]
)
def test_hyper_series_matches_mpmath(z):
    mp = mpmath.mp

    def f(x):
        return mp.hyp2f1(0.5, 0.5, 1, x)

    def fstar(x):
        return (4 * mp.log(2) - mp.log(x)) * f(x) - mp.pi * f(1 - x)

    with mpmath.workdps(30):
        w = mp.mpc(z)
        want = (f(w), mp.hyp2f1(1.5, 1.5, 2, w) / 4, fstar(w), mp.diff(fstar, w))
        for got, ref in zip(hyper_series(z), want):
            assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))


@pytest.mark.parametrize(
    "z", [0.995, 0.999, -0.999, 0.999 + 0.01j, -0.99, 0.99j, -0.3 + 0.95j, 0.9999, -0.995 - 0.05j]
)
def test_hyper_series_near_the_unit_circle_matches_mpmath(z):
    # Beyond |z| = 0.985 the four values come from closed forms in K and E.
    mp = mpmath.mp

    def f(x):
        return mp.hyp2f1(0.5, 0.5, 1, x)

    def fstar(x):
        return (4 * mp.log(2) - mp.log(x)) * f(x) - mp.pi * f(1 - x)

    with mpmath.workdps(30):
        # Fstar is analytic across (-1, 0); its formula's log and f(1 - x)
        # are cut there, so the oracle evaluates a hair above the axis.
        w = mp.mpc(z) + (mp.mpc(0, 1e-40) if z.imag == 0 and z.real < 0 else 0)
        want = (f(w), mp.hyp2f1(1.5, 1.5, 2, w) / 4, fstar(w), mp.diff(fstar, w))
        for got, ref in zip(hyper_series(z), want):
            assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))


@pytest.mark.parametrize("radius", [0.986, 0.989])
def test_hyper_series_beyond_the_series_radius_matches_mpmath(radius):
    # Just beyond _SERIES_RADIUS, where the series would still certify at
    # some angles, the closed forms answer at all of them.
    mp = mpmath.mp
    with mpmath.workdps(30):
        for k in range(72):
            z = radius * cmath.exp(2j * math.pi * k / 72)
            w = mp.mpc(z)
            f, fd = mp.hyp2f1(0.5, 0.5, 1, w), mp.hyp2f1(1.5, 1.5, 2, w) / 4
            g, gd = mp.hyp2f1(0.5, 0.5, 1, 1 - w), mp.hyp2f1(1.5, 1.5, 2, 1 - w) / 4
            lg = 4 * mp.log(2) - mp.log(w)
            # Fstar = (4 log 2 - log z) F(z) - pi F(1 - z), and its derivative.
            want = (f, fd, lg * f - mp.pi * g, lg * fd - f / w + mp.pi * gd)
            for got, ref in zip(hyper_series(z), want):
                assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref)), (z, got, ref)


@pytest.mark.parametrize(
    "z,side",
    [(2.5, +1), (2.5, -1), (2.5 + 0.3j, +1), (2.5 - 0.3j, -1), (-0.4 + 1.9j, +1), (0.3 + 0.4j, +1)],
)
def test_phi5_combination(z, side):
    # K's sided connection formula: K(1/z)/sqrt(-z) = side i K(z) + K(1 - z),
    # every value taken at z + side i0 (1/z, -z and 1 - z take the other side).
    lhs = elliptic_K(1.0 / z, side=-side) / _sqrt_sided(-z, -side)
    rhs = side * 1j * elliptic_K(z, side=side) + elliptic_K(1.0 - z, side=-side)
    assert lhs == pytest.approx(rhs, rel=1e-13)


@pytest.mark.parametrize("z,side", [(0.3 + 0.4j, +1), (0.3 - 0.4j, -1), (0.6, +1), (0.6, -1)])
def test_phi2s_combination(z, side):
    # Oracle pair: the at0 companion F log z + Fstar from the local series
    # against the global K (the AGM), which share no code.
    lhs = basis_eval("at0", z)[1][0]
    phi1 = (2.0 / math.pi) * elliptic_K(z, side=side)
    phi5 = (2.0 / math.pi) * elliptic_K(1.0 / z, side=-side) / _sqrt_sided(-z, -side)
    rhs = (LOG16 + side * 1j * math.pi) * phi1 - math.pi * phi5
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_basis_eval_regions_are_strict():
    with pytest.raises(RegionError):
        basis_eval("at0", 1.1)
    with pytest.raises(RegionError):
        basis_eval("at1", -0.1)
    with pytest.raises(RegionError):
        basis_eval("atInf", 0.9)
    with pytest.raises(BranchCutError):
        basis_eval("at0", -0.5)
    with pytest.raises(BranchCutError):
        basis_eval("atInf", 2.5)
    with pytest.raises(DivergenceError):
        basis_eval("at0", 0.0)
    with pytest.raises(ValueError, match="basis_id must be one of"):
        basis_eval("period", 0.3)


@PROPERTY
@given(w=st.complex_numbers(min_magnitude=1e-300, max_magnitude=0.999, allow_nan=False, allow_infinity=False))
def test_at1_is_at0_at_one_minus_z(w):
    # The basis at 1 is the basis at 0 under z -> 1 - z, bit for bit (repr
    # tells the zeros' signs apart), with d/dz = -d/dw.
    z = 1.0 - w
    assume(1e-300 <= abs(1.0 - z) < 1.0 and not special._on_cut(1.0 - z))
    (f1, d1), (g1, e1) = basis_eval("at1", z)
    (f0, d0), (g0, e0) = basis_eval("at0", 1.0 - z)
    assert repr((f1, g1)) == repr((f0, g0))
    assert repr((d1, e1)) == repr((-d0, -e0))


def test_basis_derivatives_match_finite_differences():
    for basis_id, z in [("at0", 0.3 + 0.2j), ("at1", 0.8 + 0.25j), ("atInf", 1.4 + 0.9j)]:
        rows = basis_eval(basis_id, z)
        h = 1e-6
        up = basis_eval(basis_id, z + h)
        dn = basis_eval(basis_id, z - h)
        for k in range(2):
            fd = (up[k][0] - dn[k][0]) / (2.0 * h)
            assert rows[k][1] == pytest.approx(fd, rel=1e-7)


def test_continuation_closes_trivial_loop():
    # The circle must enclose neither singular point for the frame to close.
    z0 = 0.3 + 0.2j
    germs = np.array(basis_eval("at0", z0))
    center = 0.35 + 0.35j
    out = np.array(_transport_germs(_lasso(z0, center, center + 0.15), germs))
    np.testing.assert_allclose(out[:, 0], germs[:, 0], rtol=1e-12)


def _ode_transport(zs: np.ndarray, germs: np.ndarray) -> np.ndarray:
    """Oracle for ``_transport_germs``: integrate the ODE along the polyline
    with scipy's DOP853, independent of the Taylor transport it checks.

    scipy's solvers want real systems, so the two germ rows are unpacked
    into 8 real components.  The path is parameterized by arc index.
    """
    zs = np.asarray(zs, dtype=complex)
    n = len(zs)

    def z_of(t: float) -> tuple[complex, complex]:
        i = min(int(t), n - 2)
        frac = t - i
        dz = zs[i + 1] - zs[i]
        return zs[i] + frac * dz, dz

    def rhs(t, y):
        z, dz = z_of(t)
        out = np.empty_like(y)
        for k in range(2):
            f = y[4 * k] + 1j * y[4 * k + 1]
            fp = y[4 * k + 2] + 1j * y[4 * k + 3]
            fpp = (f / 4.0 - (1.0 - 2.0 * z) * fp) / (z * (1.0 - z))
            df = dz * fp
            dfp = dz * fpp
            out[4 * k], out[4 * k + 1] = df.real, df.imag
            out[4 * k + 2], out[4 * k + 3] = dfp.real, dfp.imag
        return out

    y0 = np.empty(8)
    for k in range(2):
        f, fp = germs[k]
        y0[4 * k], y0[4 * k + 1] = f.real, f.imag
        y0[4 * k + 2], y0[4 * k + 3] = fp.real, fp.imag
    sol = solve_ivp(rhs, (0.0, n - 1.0), y0, method="DOP853", rtol=1e-13, atol=1e-13, max_step=1.0)
    assert sol.success, sol.message
    y = sol.y[:, -1]
    out = np.empty((2, 2), dtype=complex)
    for k in range(2):
        out[k, 0] = y[4 * k] + 1j * y[4 * k + 1]
        out[k, 1] = y[4 * k + 2] + 1j * y[4 * k + 3]
    return out


def test_continuation_taylor_and_ode_agree():
    z0 = 0.3 + 0.2j
    germs = np.array(basis_eval("at0", z0))
    zs = _lasso(z0, 0.0, 0.5 + 0.5j)
    taylor = np.array(_transport_germs(zs, germs))
    ode = _ode_transport(zs, germs)
    for u, v in zip(taylor.ravel(), ode.ravel()):
        assert abs(u - v) / max(1.0, abs(u)) < 1e-8


def _clearance(zs):
    # Distance from the polyline zs to the nearer of 0 and 1.
    p, d = zs[:-1], np.diff(zs)
    out = np.inf
    for s in (0.0, 1.0):
        t = np.clip(((s - p) * d.conj()).real / np.maximum(np.abs(d) ** 2, 1e-300), 0.0, 1.0)
        out = min(out, float(np.min(np.abs(p + t * d - s))))
    return out


@settings(PROPERTY, max_examples=15)
@given(
    around=st.sampled_from([0.0, 1.0, 0.5]),
    size=st.floats(0.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
    tail=st.floats(0.0, 1.0),
)
def test_merged_steps_match_the_ode_and_stay_in_reach(around, size, angle, tail):
    # A lasso round 0, round 1, or round both (center 1/2), sampled at a
    # tenth of its radius, so most steps span several samples.  Its
    # tail runs out along the radius, and the whole polyline keeps at least
    # 1e-3 from 0 and 1.
    if around == 0.5:
        radius = 0.501 + 1.5 * size
    else:
        radius = 1e-3 + 0.9 * size
    entry = around + radius * np.exp(1j * angle)
    z0 = around + (1.0 + tail) * radius * np.exp(1j * angle)
    zs = _lasso(z0, around, entry, spacing=0.1 * radius)
    assume(_clearance(zs) >= 1e-3)
    germs = np.eye(2, dtype=complex)
    with mock.patch.object(monodromy, "_step_matrices", wraps=monodromy._step_matrices) as steps:
        taylor = np.array(_transport_germs(zs, germs))
    ode = _ode_transport(zs, germs)
    assert np.max(np.abs(taylor - ode) / np.maximum(1.0, np.abs(taylor))) < 1e-8
    assert steps.call_count < len(zs) - 1
    for (z, h), _ in steps.call_args_list:
        # The slack is the rounding of the node z + h near z = 1.
        assert abs(h) <= monodromy._STEP_FRACTION * min(abs(z), abs(z - 1.0)) + 1e-15, (z, h)


def _per_germ_taylor_step(z0, f0, f1, h, nterms=64):
    # One germ at a time: the Taylor recurrence of the equation from (f0, f1)
    # at z0, summed at z0 + h.
    a = np.empty(nterms, dtype=complex)
    a[0], a[1] = f0, f1
    s, t = z0 * (1.0 - z0), 1.0 - 2.0 * z0
    for n in range(nterms - 2):
        a[n + 2] = ((n + 0.5) ** 2 * a[n] - t * (n + 1) ** 2 * a[n + 1]) / (s * (n + 2) * (n + 1))
    powers = h ** np.arange(nterms)
    return np.dot(a, powers), np.dot(a[1:] * np.arange(1, nterms), powers[:-1])


def test_step_matrices_match_per_germ_taylor_sum():
    # Steps of ratio 0.35 (the transport's largest) next to 0 and next to 1,
    # and shorter steps elsewhere, in several directions.
    z0 = np.array([0.02 + 0.01j, 0.97 - 0.02j, 0.3 + 0.2j, -0.4 + 0.1j, 1.5 - 0.7j, 0.5 + 0.5j])
    dist = np.minimum(np.abs(z0), np.abs(z0 - 1.0))
    h = np.array([0.35, 0.35, 0.2, 0.35, 0.1, 0.3]) * dist * np.exp(1j * np.array([0.3, 2.0, -1.2, 3.0, 0.7, -2.5]))
    for k in range(len(z0)):
        mat = np.reshape(_step_matrices(complex(z0[k]), complex(h[k])), (2, 2))
        for j, (f0, f1) in enumerate(((1.0, 0.0), (0.0, 1.0))):
            want = np.array(_per_germ_taylor_step(z0[k], f0, f1, h[k]))
            got = mat[:, j]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "z0,turns,per_turn",
    [(0.3 + 0.2j, 1, 400), (-0.4 + 0.1j, 1, 400), (0.05 - 0.02j, -6, 400), (0.3 + 0.2j, 1, 119)],
    ids=["(0.3+0.2j)-1", "(-0.4+0.1j)-1", "(0.05-0.02j)--6", "(0.3+0.2j)-1-119"],
)
def test_transport_around_zero_is_the_exact_at0_monodromy(z0, turns, per_turn):
    # Around z = 0 only, F comes back unchanged and F log z + Fstar gains
    # 2 pi i F per turn, in value and derivative alike.  Six turns near
    # z = 0 chain about a hundred steps; 119 chords make a coarse circle.
    # Each entry is held to 1e-12 of its own size.
    germs = np.array(basis_eval("at0", z0))
    theta = np.angle(z0) + np.linspace(0.0, 2.0 * np.pi * turns, per_turn * abs(turns) + 1)
    out = np.array(_transport_germs(abs(z0) * np.exp(1j * theta), germs))
    want = germs.copy()
    want[1] += 2j * np.pi * turns * want[0]
    assert np.all(np.abs(out - want) <= 1e-12 * np.abs(want))


@pytest.mark.parametrize("end", [1e-6, 1e-9])
def test_transport_close_to_a_singular_point(end):
    # Taylor coefficients grow like dist**-n; the kernel must stay finite
    # wherever the path gate lets a path go (steps down to 1e-12).
    got = np.array(_transport_germs(np.array([0.5, end]), basis_eval("at0", 0.5)))
    want = np.array(basis_eval("at0", end))
    np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=1e-13)


@pytest.mark.parametrize("end", [-0.5 + 1e-8j, -0.5 + 1e-11j])
def test_transport_along_a_chord_that_grazes_zero(end):
    # Both samples are 0.5 from 0, but the chord between them passes
    # Im(end) / 2 above it; the clearance rule reads the segment, not the
    # samples, and the transport follows the chord past 0.
    got = _transport_germs([0.5, end], basis_eval("at0", 0.5))
    np.testing.assert_allclose(np.array(got), np.array(basis_eval("at0", end)), rtol=1e-13)


# Closer than this to 0 or 1, the scipy oracle _ode_transport loses digits
# (about 2e-9 at 3e-7) and then fails to step.
_ODE_REACH = 1e-5


@PROPERTY
@given(
    singular=st.sampled_from([0.0, 1.0]),
    gap=st.floats(-14.0, -1.0),
    angle=st.floats(-math.pi, math.pi),
    before=st.floats(0.05, 1.0),
    after=st.floats(0.05, 1.0),
    extra=st.lists(st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False), max_size=2),
)
def test_transport_refuses_exactly_the_paths_too_close(singular, gap, angle, before, after, extra):
    # A segment that passes 10**gap from 0 or 1, at any angle, then up to
    # two more points within 1 of 1/2.
    u = cmath.exp(1j * angle)
    foot = singular + 1j * u * 10.0**gap
    zs = [foot - before * u, foot + after * u] + [0.5 + w for w in extra]
    germs = ((1.0 + 0j, 0j), (0j, 1.0 + 0j))
    closest = monodromy._closest_approach(zs)
    if closest < monodromy._MIN_STEP / monodromy._STEP_FRACTION:
        with pytest.raises(PathTooCloseError, match="the path passes within"):
            _transport_germs(zs, germs)
        return
    taylor = np.array(_transport_germs(zs, germs))
    assert np.all(np.isfinite(taylor))
    if closest >= _ODE_REACH:
        ode = _ode_transport(zs, np.eye(2, dtype=complex))
        assert np.max(np.abs(taylor - ode) / np.maximum(1.0, np.abs(taylor))) < 1e-8


@pytest.mark.parametrize("basis_id,z", [("at0", 0.4 + 0.1j), ("at1", 0.9 - 0.3j), ("atInf", 1.6 + 1.1j)])
def test_basis_solutions_satisfy_the_ode(basis_id, z):
    for k in range(2):
        res = gauss_ode_residual(lambda w, k=k, b=basis_id: basis_eval(b, w)[k][0], z)
        assert abs(res) < 1e-8


def test_ode_residual_flags_non_solutions():
    assert abs(gauss_ode_residual(lambda w: w * w, 0.4 + 0.1j)) > 1e-2
