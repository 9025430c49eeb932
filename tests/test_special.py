"""Elliptic integrals, F and F' from the AGM, the hypergeometric check
references of ``oracles``."""

import cmath
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import LOG16, RegionError, basis_eval, gauss_ode_residual, hyper_series
from test_branch_properties import PROPERTY

from eulertop import special
from eulertop.special import BranchCutError, DivergenceError, _F_closed, _sqrt_sided, elliptic_K

# Frozen reference values (AGM / series, cross-checked against scipy.special).
K_HALF = 1.8540746773013719
K_MINUS_ONE = 1.3110287771460598
F_03 = 1.0910959103627813
FSTAR_03 = 0.18808374835689526


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
def test_agm_stops_where_the_means_settle(m, monkeypatch):
    # One square root before the loop and one per iteration.
    calls = []
    sqrt = cmath.sqrt
    with monkeypatch.context() as patch:
        patch.setattr(special.cmath, "sqrt", lambda w: calls.append(w) or sqrt(w))
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


@pytest.mark.parametrize("basis_id,z", [("at0", 0.4 + 0.1j), ("at1", 0.9 - 0.3j), ("atInf", 1.6 + 1.1j)])
def test_basis_solutions_satisfy_the_ode(basis_id, z):
    for k in range(2):
        res = gauss_ode_residual(lambda w, k=k, b=basis_id: basis_eval(b, w)[k][0], z)
        assert abs(res) < 1e-8


def test_ode_residual_flags_non_solutions():
    assert abs(gauss_ode_residual(lambda w: w * w, 0.4 + 0.1j)) > 1e-2
