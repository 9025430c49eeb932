"""Period values: closed form, quadratures, covariance, Birkhoff series."""

import hashlib
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from eulertop.birkhoff import (
    PrecisionError,
    birkhoff_d_of_z,
    birkhoff_normalization,
    birkhoff_series,
)
from eulertop.core import CoincidentModuliError, DomainError, ModuliPoint
from eulertop.periods import (
    S_closed_form,
    euler_period,
    phi_prime,
    quadrature_sigma_integral,
    quadrature_tau_integral,
    tanh_sinh,
    verify_connection_identity,
    verify_symmetries,
)

BASE = ModuliPoint(3, 2, 1, 2.5, 1.0)

# Frozen anchors, established against independent quadrature and the AGM.
S1 = -0.21243521802276702
S2 = 0.24858306243877654j
S3 = -0.21243521802276696 + 0.2485830624387766j
S_REVERSED = -0.18089288904942458  # at (1, 2, 3, 1.2)


def test_closed_form_at_the_distinguished_corner():
    # d = a makes the elliptic integral complete at modulus zero.
    got = S_closed_form(ModuliPoint(3, 2, 1, 3.0, 1.0))
    assert got.value == pytest.approx(-1.0 / 6.0, rel=1e-14)
    assert not got.branch_flagged


def test_closed_form_base_anchor():
    got = S_closed_form(BASE)
    assert got.value == pytest.approx(S1, rel=1e-14)
    assert not got.branch_flagged
    assert got.cycle_label == "sigma1_axis"


def test_closed_form_reversed_chamber():
    got = S_closed_form(ModuliPoint(1, 2, 3, 1.2, 1.0))
    assert got.value == pytest.approx(S_REVERSED, rel=1e-14)


def test_closed_form_flagged_ordering():
    # Slot order (b, a, c, d): the radicand goes negative and the branch
    # rule resolves the square root; the value is purely imaginary here.
    got = S_closed_form(ModuliPoint(2, 3, 1, 2.5, 1.0))
    assert got.branch_flagged
    assert got.value == pytest.approx(S2, rel=1e-13)


def test_closed_form_scales_with_casimir():
    # S carries the 1/sqrt(l) prefactor.
    quarter = S_closed_form(ModuliPoint(3, 2, 1, 2.5, 4.0))
    assert quarter.value == pytest.approx(S1 / 2.0, rel=1e-13)


def test_closed_form_singular_pairs():
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 2, 1, 1.0, 1.0))  # d = c
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 3, 1, 2.5, 1.0))  # b = a
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 2, 1, 2.0, 1.0))  # d = b: divergence


def test_phi_prime_axes():
    assert phi_prime("p1", BASE).value == pytest.approx(S1, rel=1e-14)
    p2 = phi_prime("p2", BASE)
    assert p2.branch_flagged
    assert p2.value == pytest.approx(-1j * S2, rel=1e-13)
    p3 = phi_prime("p3", ModuliPoint(3, 2, 1, 1.5, 1.0))
    assert p3.value == pytest.approx(S1, rel=1e-13)
    with pytest.raises(ValueError):
        phi_prime("p4", BASE)


def test_euler_period_is_six_pi_S():
    assert euler_period(BASE) == pytest.approx(6.0 * math.pi * abs(S1), rel=1e-14)
    assert euler_period(BASE) == pytest.approx(4.004309521824426, rel=1e-13)


def test_tanh_sinh_endpoint_singularity():
    # Integrand weights receive distances to the endpoints, so inverse
    # square-root singularities integrate cleanly: arcsine mass is pi.
    val = tanh_sinh(lambda x, dlo, dhi: 1.0 / math.sqrt(dlo * dhi), 0.0, 1.0)
    assert val == pytest.approx(math.pi, rel=1e-13)


def test_tanh_sinh_smooth_integrand():
    val = tanh_sinh(lambda x, dlo, dhi: math.exp(x), 0.0, 2.0)
    assert val == pytest.approx(math.exp(2.0) - 1.0, rel=1e-13)


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_sigma_quadrature_matches_closed_form(s):
    # l enters only as the prefactor 1/sqrt(l), from 1e-300 to 1e300.
    for l in (1.0, 1e-300, 1e300):
        got = quadrature_sigma_integral(BASE.replace(l=l), s=s)
        assert got.value == pytest.approx(S1 / math.sqrt(l), rel=1e-12)


def test_sigma_quadrature_reversed_chamber():
    got = quadrature_sigma_integral(ModuliPoint(1, 2, 3, 1.2, 1.0))
    assert got.value == pytest.approx(S_REVERSED, rel=1e-12)


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_closed_form_and_sigma_quadrature_at_extreme_scale(scale):
    # S is homogeneous of degree -1; unscaled, (d - c)**2 overflows here.
    m = ModuliPoint(3.0 * scale, 2.0 * scale, 1.0 * scale, 2.5 * scale)
    assert S_closed_form(m).value == pytest.approx(S1 / scale, rel=1e-14, abs=0.0)
    assert quadrature_sigma_integral(m).value == pytest.approx(S1 / scale, rel=1e-13, abs=0.0)


def test_closed_form_at_widely_spread_moments():
    a, b, c, d = (mpmath.mpf(x) for x in (1e155, 1, 0.5, 5e154))
    with mpmath.workdps(30):
        mu = (d - a) * (b - c) / ((d - c) * (b - a))
        want = float(-mpmath.sqrt(2) / (3 * mpmath.pi) * mpmath.ellipk(mu) / mpmath.sqrt((d - c) * (a - b)))
    m = ModuliPoint(1e155, 1.0, 0.5, 5e154)
    assert S_closed_form(m).value == pytest.approx(want, rel=1e-15, abs=0.0)
    assert quadrature_sigma_integral(m).value == pytest.approx(want, rel=1e-14, abs=0.0)


def test_sigma_quadrature_needs_real_chamber():
    with pytest.raises(DomainError):
        quadrature_sigma_integral(ModuliPoint(3, 2, 1, 2.5 + 1e-3j, 1.0))
    with pytest.raises(DomainError):
        quadrature_sigma_integral(ModuliPoint(3, 2, 1, 1.5, 1.0))  # d below b


def test_tau_quadrature_matches_connecting_value():
    got = quadrature_tau_integral(BASE)
    assert got.value == pytest.approx(S3, rel=1e-12)


def test_tau_quadrature_needs_negative_lambda():
    with pytest.raises(DomainError):
        quadrature_tau_integral(ModuliPoint(3, 2, 1, 1.5, 1.0))


def test_connection_identity_residual():
    assert verify_connection_identity(BASE) < 1e-12
    assert verify_connection_identity(ModuliPoint(3, 2, 1, 2.2, 0.5)) < 1e-12


def test_symmetry_classes_partition():
    rep = verify_symmetries(BASE)
    assert rep.class_sizes == {"S1": 8, "S2": 8, "S3": 8}
    assert rep.max_unflagged_deviation < 1e-12
    assert len(rep.stabilizer) == 8
    assert {"acbd", "bdac"} <= set(rep.stabilizer)  # (bc) and (abdc)
    # A group: composing two of its relabellings gives a third.
    images = {BASE.reorder(order).coords() for order in rep.stabilizer}
    assert all(BASE.reorder(p).reorder(q).coords() in images for p in rep.stabilizer for q in rep.stabilizer)
    assert rep.class_values["S1"] == pytest.approx(S1, rel=1e-12)
    assert rep.class_values["S2"] == pytest.approx(S2, rel=1e-12)
    assert rep.class_values["S3"] == pytest.approx(S3, rel=1e-12)


@pytest.mark.parametrize("d", [0.5, 1.5, 2.5, 3.5])
def test_symmetry_stabilizer_is_read_from_the_rows(d):
    # The identity's class keeps d paired with a, in every chamber.
    rep = verify_symmetries(BASE.replace(d=d))
    assert rep.stabilizer == ("abcd", "acbd", "badc", "bdac", "cadb", "cdab", "dbca", "dcba")


def test_symmetry_flags_are_cut_crossings():
    rep = verify_symmetries(BASE)
    assert rep.flagged_count == 9
    assert rep.flagged_count <= rep.cut_resolved_count
    per_class = {}
    for row in rep.flagged_rows:
        per_class[row.class_key] = per_class.get(row.class_key, 0) + 1
    assert per_class == {"S2": 4, "S3": 5}
    # the identity class stays on the principal branch throughout
    assert all(row.class_key != "S1" for row in rep.flagged_rows)


def test_symmetries_take_real_points_only():
    with pytest.raises(DomainError):
        verify_symmetries(ModuliPoint(3, 2, 1, 2.5 + 0.3j, 1.0))
    # Within the realness tolerance the point is taken on the axis.
    near = verify_symmetries(ModuliPoint(3, 2, 1, 2.5 + 1e-13j, 1.0))
    assert [row.value for row in near.rows] == [row.value for row in verify_symmetries(BASE).rows]


def test_birkhoff_polynomials_exact():
    series = birkhoff_series(order=3)
    F = Fraction
    assert series.pn(0) == (F(1),)
    assert series.pn(1) == (F(1), F(1))
    assert series.pn(2) == (F(9, 4), F(3, 2), F(9, 4))
    assert series.pn(3) == (F(25, 4), F(15, 4), F(15, 4), F(25, 4))


def test_birkhoff_series_pinned_through_max_order():
    # Digest of the order-32 series as produced by the symbolic Z-series
    # composition the closed form replaced; pins every coefficient of P_0..P_32.
    payload = json.dumps(birkhoff_series(order=32).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == (
        "465fefadc052bfc5d9ad29d0d6cfe1c7962c8253dbe643c61d8ddf37337276c4"
    )


def test_birkhoff_palindromes_and_roots():
    series = birkhoff_series(order=12)
    for n in range(13):
        assert series.is_palindromic(n)
    for n in range(1, 9):
        radii = np.abs(series.roots(n))
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)


def test_birkhoff_values_at_rational_shape():
    series = birkhoff_series(s=Fraction(1, 3), order=3)
    assert series.pn_value(1) == Fraction(4, 3)
    assert series.pn_value(2) == Fraction(3)
    assert series.pn_value(3) == Fraction(220, 27)


def test_birkhoff_order_budget():
    with pytest.raises(PrecisionError):
        birkhoff_series(order=33)
    with pytest.raises(PrecisionError):
        birkhoff_series(order=-1)


def test_birkhoff_normalization_values():
    assert birkhoff_normalization(2.0, 1.0, 3.0) == pytest.approx(-1.0 / 6.0, rel=1e-14)
    assert birkhoff_normalization(2.0, 1.0, 3.0, l=4.0) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    with pytest.raises(DomainError):
        birkhoff_normalization(3.0, 2.0, 1.0)


def test_birkhoff_series_matches_closed_form():
    # Near the extreme reciprocal the truncated series reproduces S.
    a, b, c = 2.0, 1.0, 3.0
    s = (a - b) / (c - b)
    C = birkhoff_normalization(a, b, c)
    series = birkhoff_series(s=s, order=12)
    for z, tol in ((0.02, 1e-14), (0.05, 1e-9)):
        d = birkhoff_d_of_z(a, b, c, z)
        want = S_closed_form(ModuliPoint(b, a, c, d, 1.0)).value
        assert C * series.evaluate(z) == pytest.approx(want, abs=tol)
