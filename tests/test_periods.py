"""Period values: closed form, quadratures, covariance, Birkhoff series."""

import cmath
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from eulertop.birkhoff import (
    PrecisionError,
    birkhoff_d_of_z,
    birkhoff_normalization,
    birkhoff_series,
)
from eulertop.core import CoincidentModuliError, DomainError, ModuliPoint, ldexp
from eulertop.periods import (
    S_closed_form,
    euler_period,
    phi_prime,
    quadrature_sigma_integral,
    quadrature_tau_integral,
    tanh_sinh,
    verify_connection_identity,
    verify_symmetries,
    _tanh_sinh_nodes,
)
from eulertop.special import DivergenceError, elliptic_K
from test_branch_properties import PROPERTY

BASE = ModuliPoint(3, 2, 1, 2.5, 1.0)

# Frozen anchors, established against independent quadrature and the AGM.
S1 = -0.21243521802276702
S2 = 0.24858306243877654j
S3 = -0.21243521802276696 + 0.2485830624387766j
S_REVERSED = -0.18089288904942458  # at (1, 2, 3, 1.2)


def test_closed_form_at_the_distinguished_corner():
    # d = a makes the elliptic integral complete at modulus zero.
    got = S_closed_form(ModuliPoint(3, 2, 1, 3.0, 1.0))
    assert got == pytest.approx(-1.0 / 6.0, rel=1e-14)


def test_closed_form_base_anchor():
    got = S_closed_form(BASE)
    assert got == pytest.approx(S1, rel=1e-14)


def test_period_routes_return_numbers():
    # Each route returns the number it computes: the real arc a float, the
    # other routes a complex.
    assert type(S_closed_form(BASE)) is complex
    assert type(quadrature_sigma_integral(BASE)) is float
    assert type(quadrature_tau_integral(BASE)) is complex
    for axis in ("p1", "p2", "p3"):
        assert type(phi_prime(axis, BASE)) is complex


def test_closed_form_reversed_chamber():
    got = S_closed_form(ModuliPoint(1, 2, 3, 1.2, 1.0))
    assert got == pytest.approx(S_REVERSED, rel=1e-14)


def test_closed_form_ordering_across_the_cut():
    # Slot order (b, a, c, d): the radicand goes negative and the branch
    # rule resolves the square root; the value is purely imaginary here.
    got = S_closed_form(ModuliPoint(2, 3, 1, 2.5, 1.0))
    assert got == pytest.approx(S2, rel=1e-13)


def test_closed_form_scales_with_casimir():
    # S carries the 1/sqrt(l) prefactor.
    quarter = S_closed_form(ModuliPoint(3, 2, 1, 2.5, 4.0))
    assert quarter == pytest.approx(S1 / 2.0, rel=1e-13)


def test_closed_form_singular_pairs():
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 2, 1, 1.0, 1.0))  # d = c
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 3, 1, 2.5, 1.0))  # b = a
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(3, 2, 1, 2.0, 1.0))  # d = b: divergence


@pytest.mark.parametrize("value", [0.0, 2.0, 1e-300])
def test_closed_form_refuses_four_equal_coordinates(value):
    with pytest.raises(CoincidentModuliError):
        S_closed_form(ModuliPoint(value, value, value, value))


def test_phi_prime_axes():
    assert phi_prime("p1", BASE) == pytest.approx(S1, rel=1e-14)
    p2 = phi_prime("p2", BASE)
    assert p2 == pytest.approx(-1j * S2, rel=1e-13)
    p3 = phi_prime("p3", ModuliPoint(3, 2, 1, 1.5, 1.0))
    assert p3 == pytest.approx(S1, rel=1e-13)
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


def test_tanh_sinh_node_table_is_built_on_first_use_and_reused():
    # Importing the module builds no node; the first call builds the levels
    # it reaches, and a call on another interval scales the same table.
    script = "import sys\nimport eulertop.periods as p\nsys.exit(p._tanh_sinh_nodes.cache_info().currsize)\n"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    _tanh_sinh_nodes.cache_clear()
    arcsine = lambda x, dlo, dhi: 1.0 / math.sqrt(dlo * dhi)
    assert tanh_sinh(arcsine, 0.0, 1.0) == pytest.approx(math.pi, rel=1e-13)
    built = _tanh_sinh_nodes.cache_info()
    assert built.misses > 0
    assert tanh_sinh(arcsine, -3.0, 5.0) == pytest.approx(math.pi, rel=1e-13)
    again = _tanh_sinh_nodes.cache_info()
    assert again.misses == built.misses and again.hits > built.hits


def test_sigma_quadrature_matches_closed_form():
    # l enters only as the prefactor 1/sqrt(l), from 1e-300 to 1e300.
    for l in (1.0, 1e-300, 1e300):
        got = quadrature_sigma_integral(BASE.replace(l=l))
        assert got == pytest.approx(S1 / math.sqrt(l), rel=1e-12)


# The worst relative error measured over the moment sets below, 4.5e-16 at
# every fraction, rounded up to a power of ten.  Q(x) is formed from the
# endpoint distances, so it does not cancel toward the separatrix.
SEPARATRIX_RTOL = 1e-15


@pytest.mark.parametrize("fraction", [1e-6, 1e-5, 1e-4, 1e-3])
def test_sigma_quadrature_near_the_separatrix(fraction):
    # d is this fraction of the gap a - b away from b, in both chamber
    # orientations; the reference is K(mu) in 40 digits at the same floats.
    for a, b, c in ((3.0, 2.0, 1.0), (3.4, 1.4, 0.78), (5.79, 3.11, 0.963), (1.0, 2.0, 3.0), (0.78, 1.4, 3.4)):
        d = b + fraction * (a - b)
        got = quadrature_sigma_integral(ModuliPoint(a, b, c, d))
        with mpmath.workdps(40):
            A, B, C, D = (mpmath.mpf(x) for x in (a, b, c, d))
            mu = (D - A) * (B - C) / ((D - C) * (B - A))
            want = -mpmath.sqrt(2) / (3 * mpmath.pi) * mpmath.ellipk(mu) / mpmath.sqrt((D - C) * (A - B))
            assert abs((got - want) / want) < SEPARATRIX_RTOL, (a, b, c)


def test_sigma_quadrature_reversed_chamber():
    got = quadrature_sigma_integral(ModuliPoint(1, 2, 3, 1.2, 1.0))
    assert got == pytest.approx(S_REVERSED, rel=1e-12)


@pytest.mark.parametrize("scale", [1e155, 1e300])
def test_closed_form_and_sigma_quadrature_at_extreme_scale(scale):
    # S is homogeneous of degree -1; unscaled, (d - c)**2 overflows here.
    m = ModuliPoint(3.0 * scale, 2.0 * scale, 1.0 * scale, 2.5 * scale)
    assert S_closed_form(m) == pytest.approx(S1 / scale, rel=1e-14, abs=0.0)
    assert quadrature_sigma_integral(m) == pytest.approx(S1 / scale, rel=1e-13, abs=0.0)


@PROPERTY
@given(
    gaps=st.tuples(*[st.floats(0.01, 1.0)] * 4),
    l=st.floats(0.25, 4.0),
    k=st.integers(-1000, 1000),
    j=st.integers(-500, 500),
)
def test_homogeneous_values_scale_exactly_by_powers_of_two(gaps, l, k, j):
    # Moduli times 2**k divide S, both quadratures and the Birkhoff prefactor
    # by 2**k, and l times 4**j divides them by 2**j, exactly: every one is
    # evaluated at the same unit-scale point.  The cross-ratios stay.
    c = gaps[0]
    b = c + gaps[1]
    d = b + gaps[2]
    a = d + gaps[3]
    m = ModuliPoint(a, b, c, d, l)
    scaled = ModuliPoint(*(math.ldexp(x, k) for x in (a, b, c, d)), l)
    level = m.replace(l=math.ldexp(l, 2 * j))
    values = [
        S_closed_form,
        quadrature_sigma_integral,
        quadrature_tau_integral,
        lambda p: birkhoff_normalization(p.b.real, p.a.real, p.c.real, p.l),
    ]
    for value in values:
        assert value(scaled) == ldexp(value(m), -k)
        assert value(level) == ldexp(value(m), -j)
    # Every route forms its cross-ratios at the unit-scale point, which is
    # the same point.
    assert scaled.at_unit_scale()[0] == m.at_unit_scale()[0]


@pytest.mark.parametrize("route", [S_closed_form, quadrature_sigma_integral, quadrature_tau_integral])
def test_values_beyond_the_float_range_are_refused(route):
    # S is about 0.2 / 1e-310 here: evaluated at unit scale, it cannot be
    # scaled back.
    with pytest.raises(DomainError, match="outside the float range"):
        route(ModuliPoint(3e-310, 2e-310, 1e-310, 2.5e-310))


_TINY = ModuliPoint(3e-300, 2e-300, 1e-300, 2.5e-300, l=5e-324)
_AT_TINY = "at ModuliPoint(a=3e-300, b=2e-300, c=1e-300, d=2.5e-300, l=5e-324)"


@pytest.mark.parametrize("call,name", [
    (lambda: S_closed_form(_TINY), f"S {_AT_TINY}"),
    (lambda: quadrature_sigma_integral(_TINY), f"S {_AT_TINY}"),
    (lambda: quadrature_tau_integral(_TINY), f"S(c, b, a, d) {_AT_TINY}"),
    (lambda: verify_symmetries(_TINY), f"S(a, b, c, d) {_AT_TINY}"),
    (lambda: birkhoff_normalization(3e-300, 1e-300, 2e-300, 5e-324),
     "the prefactor C at a = 3e-300, b = 1e-300, c = 2e-300, l = 5e-324"),
], ids=["closed-form", "sigma-quadrature", "tau-quadrature", "covariance-row", "prefactor"])
def test_a_value_beyond_the_float_range_is_refused_by_name(call, name):
    # The refusal names the value and the input it was asked at, not the
    # unit-scale intermediate that would overflow when scaled back.
    with pytest.raises(DomainError, match="^" + re.escape(f"{name} is outside the float range") + "$"):
        call()


def test_closed_form_at_widely_spread_moments():
    a, b, c, d = (mpmath.mpf(x) for x in (1e155, 1, 0.5, 5e154))
    with mpmath.workdps(30):
        mu = (d - a) * (b - c) / ((d - c) * (b - a))
        want = float(-mpmath.sqrt(2) / (3 * mpmath.pi) * mpmath.ellipk(mu) / mpmath.sqrt((d - c) * (a - b)))
    m = ModuliPoint(1e155, 1.0, 0.5, 5e154)
    assert S_closed_form(m) == pytest.approx(want, rel=1e-15, abs=0.0)
    assert quadrature_sigma_integral(m) == pytest.approx(want, rel=1e-14, abs=0.0)


def _S_reference(a, b, c, d) -> complex:
    """S in 50 digits at the same floats, with d taken at d - 1e-40 i."""
    with mpmath.workdps(50):
        A, B, C = (mpmath.mpf(x) for x in (a, b, c))
        D = mpmath.mpf(d) - mpmath.mpc(0, "1e-40")
        mu = (D - A) * (B - C) / ((D - C) * (B - A))
        return complex(-mpmath.sqrt(2) / (3 * mpmath.pi) * mpmath.ellipk(mu) / mpmath.sqrt((D - C) * (A - B)))


# Two gaps that close together, a - c = 1e-6 and b - d = 1.3e-6: there
# 1 - mu is about 2e-13, and taken from a rounded mu it keeps only 3 digits.
DOUBLE_COINCIDENCE = (1.47621006, 3.98278901, 1.47620905, 3.98278768)


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_closed_form_at_a_double_coincidence(order):
    point = tuple(DOUBLE_COINCIDENCE[i] for i in order)
    want = _S_reference(*point)
    assert abs(S_closed_form(ModuliPoint(*point)) - want) / abs(want) < 2e-15


# Here mu rounds to 1, yet its complement (d - b)(a - c) / ((d - c)(a - b)),
# about 2.5e-17, is formed exactly to rounding: a regular point, S = 1.538i.
MU_ROUNDS_TO_ONE = (1.00000001, 3.0, 1.0, 2.99999999)


def test_closed_form_where_mu_rounds_to_one():
    # That point and seeded double coincidences (c + g1, b, c, b - g2), gaps
    # log-uniform in [1e-11, 1e-7], in all 24 orderings.
    rng = random.Random(30)
    points = [MU_ROUNDS_TO_ONE]
    for _ in range(40):
        c = rng.uniform(0.5, 2.0)
        b = c + rng.uniform(0.5, 3.0)
        g1, g2 = (10.0 ** rng.uniform(-11.0, -7.0) for _ in range(2))
        points.append((c + g1, b, c, b - g2))
    for point in points:
        for order in itertools.permutations(point):
            want = _S_reference(*order)
            assert abs(S_closed_form(ModuliPoint(*order)) - want) / abs(want) < 2e-15, order
    # Within DEGENERACY_RTOL the coincidence is still refused by name, and K
    # given only m still refuses m whose complement 1 - m has no digits.
    with pytest.raises(CoincidentModuliError, match="K argument hits 1 where d = b"):
        S_closed_form(ModuliPoint(1.0 + 3e-12, 3.0, 1.0, 3.0 - 3e-12))
    with pytest.raises(DivergenceError):
        elliptic_K(1.0 - 1e-16)


@pytest.mark.parametrize("fraction", [1e-6, 1e-5, 1e-4])
def test_closed_form_near_the_separatrix(fraction):
    # d this fraction of the gap from b, on the p1 side (b, a) and on the p3
    # side (c, b), where the p3 family is S(c, b, a, d).
    for a, b, c in ((3.0, 2.0, 1.0), (3.4, 1.4, 0.78), (5.79, 3.11, 0.963)):
        for point in ((a, b, c, b + fraction * (a - b)), (c, b, a, b - fraction * (b - c))):
            want = _S_reference(*point)
            assert abs(S_closed_form(ModuliPoint(*point)) - want) / abs(want) < 2e-15, point


def test_sigma_quadrature_needs_real_chamber():
    with pytest.raises(DomainError):
        quadrature_sigma_integral(ModuliPoint(3, 2, 1, 2.5 + 1e-3j, 1.0))
    with pytest.raises(DomainError):
        quadrature_sigma_integral(ModuliPoint(3, 2, 1, 1.5, 1.0))  # d below b


def test_tau_quadrature_matches_connecting_value():
    got = quadrature_tau_integral(BASE)
    assert got == pytest.approx(S3, rel=1e-12)
    # d - b this fraction of a - b, in both chamber orientations: closer to
    # the separatrix than DEGENERACY_RTOL, which refuses only coincident
    # pairs.  The value is S(c, b, a, d) at d - i0; in the reversed chamber
    # the quadrature gives its conjugate, the value at d + i0.
    for a, b, c in ((3.0, 2.0, 1.0), (1.0, 2.0, 3.0)):
        for fraction in (1e-12, 1e-13, 1e-15):
            d = b + fraction * (a - b)
            want = _S_reference(c, b, a, d)
            if a < b:
                want = want.conjugate()
            got = quadrature_tau_integral(ModuliPoint(a, b, c, d))
            assert abs(got - want) / abs(want) < 1e-15, (a, b, c, d)


@pytest.mark.parametrize("fraction", [1e-2, 1e-4, 1e-6, 1e-8, 1e-11])
def test_tau_quadrature_toward_d_equals_a(fraction):
    # d - a this fraction of a - b, in both chamber orientations.  Taken in
    # u, both integrals formed 1 - u from a rounded u* = 1/sqrt(1 - lam):
    # 3.5e-15 off at 1e-2 of the gap, 2.2e-8 at 1e-11.
    for a, b, c in ((3.0, 2.0, 1.0), (1.0, 2.0, 3.0), (5.79, 3.11, 0.963), (0.78, 1.4, 3.4)):
        d = a - fraction * (a - b)
        want = _S_reference(c, b, a, d)
        if a < b:
            want = want.conjugate()
        got = quadrature_tau_integral(ModuliPoint(a, b, c, d))
        assert abs(got - want) / abs(want) < 2e-15, (a, b, c, d)


@pytest.mark.parametrize(
    "point,pair",
    [((3.0, 2.0, 1.0, 3.0 - 4.4e-16), ("a", "d")), ((3.0, 2e-300, 1e-300, 3.0 - 4.4e-16), ("a", "d")),
     ((1.0, 2.0, 3.0, 1.0 + 1e-14), ("a", "d")), ((3.0, 2.0, 2.0 - 1e-13, 2.5), ("b", "c"))],
)
def test_tau_quadrature_refuses_the_coincidences_where_its_value_is_singular(point, pair):
    # S(c, b, a, d) has its pole at d = a and b = c; within DEGENERACY_RTOL
    # of either the quadrature refuses by name, as S_closed_form does for
    # that ordering, instead of a ZeroDivisionError or a wrong value.
    x, y = pair
    with pytest.raises(CoincidentModuliError, match=f"S\\(c, b, a, d\\) is singular where {y} = {x}") as info:
        quadrature_tau_integral(ModuliPoint(*point))
    assert info.value.pair == pair
    with pytest.raises(CoincidentModuliError, match="S is singular"):
        S_closed_form(ModuliPoint(*point).reorder("cbad"))


def test_tau_quadrature_needs_negative_lambda():
    with pytest.raises(DomainError):
        quadrature_tau_integral(ModuliPoint(3, 2, 1, 1.5, 1.0))


def test_connection_identity_residual():
    assert verify_connection_identity(BASE) < 1e-12
    assert verify_connection_identity(ModuliPoint(3, 2, 1, 2.2, 0.5)) < 1e-12


def test_symmetry_classes_partition():
    rep = verify_symmetries(BASE)
    assert rep.class_sizes == {"S1": 8, "S2": 8, "S3": 8}
    assert rep.max_residual < 1e-12
    # Each class representative is its class's basis vector.
    assert {r.order: r.vector for r in rep.rows if r.order in ("abcd", "bacd", "cbad")} == {
        "abcd": (1, 0), "bacd": (0, 1), "cbad": (1, 1),
    }
    assert len(rep.stabilizer) == 8
    assert {"acbd", "bdac"} <= set(rep.stabilizer)  # (bc) and (abdc)
    # A group: composing two of its relabellings gives a third.
    images = {BASE.reorder(order).coords() for order in rep.stabilizer}
    assert all(BASE.reorder(p).reorder(q).coords() in images for p in rep.stabilizer for q in rep.stabilizer)
    values = {r.order: r.value for r in rep.rows}
    assert values["abcd"] == pytest.approx(S1, rel=1e-12)
    assert values["bacd"] == pytest.approx(S2, rel=1e-12)
    assert values["cbad"] == pytest.approx(S3, rel=1e-12)


@pytest.mark.parametrize("d", [0.5, 1.5, 2.5, 3.5])
def test_symmetry_stabilizer_is_read_from_the_rows(d):
    # The identity's class keeps d paired with a, in every chamber.
    rep = verify_symmetries(BASE.replace(d=d))
    assert rep.stabilizer == ("abcd", "acbd", "badc", "bdac", "cadb", "cdab", "dbca", "dcba")


# Gaps between the sorted coordinates of the order-type draws, log-uniform.
# As two gaps shrink together the residual grows, roughly like 1e-16 over
# their product: near a double coincidence 1 - mu cancels in S itself.
ORDER_TYPE_GAPS = (1e-2, 3.0)
# The worst residual measured over 100 draws per order type, 7.6e-13,
# rounded up to a power of ten.
ORDER_TYPE_RESIDUAL = 1e-12


def test_symmetry_vectors_are_constant_in_each_order_type():
    # Ten seeded real points in each of the 24 order types of (a, b, c, d):
    # every point of an order type writes its 24 values as the same vectors.
    rng = random.Random(26)
    lo, hi = (math.log(g) for g in ORDER_TYPE_GAPS)
    tables = set()
    for perm in itertools.permutations(range(4)):
        seen = set()
        for _ in range(10):
            x = [rng.uniform(0.1, 2.0)]
            for _ in range(3):
                x.append(x[-1] + math.exp(rng.uniform(lo, hi)))
            rep = verify_symmetries(ModuliPoint(*(x[i] for i in perm)))
            assert rep.max_residual < ORDER_TYPE_RESIDUAL, perm
            seen.add(tuple(r.vector for r in rep.rows))
        assert len(seen) == 1, perm
        tables |= seen
    assert len(tables) == 12


@pytest.mark.parametrize("k", [1000, -1000])
def test_symmetry_report_is_scale_free(k):
    # The rows are solved at unit scale: the vectors and residuals are those
    # of the unscaled point, and each value is its S times 2**-k exactly.
    s = 2.0**k
    rep, base = verify_symmetries(ModuliPoint(3 * s, 2 * s, s, 2.5 * s, 1.0)), verify_symmetries(BASE)
    assert [(r.vector, r.residual) for r in rep.rows] == [(r.vector, r.residual) for r in base.rows]
    assert [r.value for r in rep.rows] == [ldexp(r.value, -k) for r in base.rows]


def test_symmetries_take_real_points_only():
    with pytest.raises(DomainError):
        verify_symmetries(ModuliPoint(3, 2, 1, 2.5 + 0.3j, 1.0))
    # Within the realness tolerance the point is taken on the axis.
    near = verify_symmetries(ModuliPoint(3, 2, 1, 2.5 + 1e-13j, 1.0))
    assert [row.value for row in near.rows] == [row.value for row in verify_symmetries(BASE).rows]


def test_birkhoff_polynomials_exact():
    series = birkhoff_series(order=3)
    F = Fraction
    assert series.polys[0] == (F(1),)
    assert series.polys[1] == (F(1), F(1))
    assert series.polys[2] == (F(9, 4), F(3, 2), F(9, 4))
    assert series.polys[3] == (F(25, 4), F(15, 4), F(15, 4), F(25, 4))


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
        radii = np.abs(np.roots([float(x) for x in reversed(series.polys[n])]))
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)


def test_birkhoff_values_at_rational_shape():
    series, s = birkhoff_series(order=3), Fraction(1, 3)
    assert series.pn_value(1, s) == Fraction(4, 3)
    assert series.pn_value(2, s) == Fraction(3)
    assert series.pn_value(3, s) == Fraction(220, 27)
    # At a float s it is the exact value at that float, rounded once.
    assert series.pn_value(3, 1 / 3) == pytest.approx(220 / 27, rel=1e-15)
    assert series.pn_value(3, 1 / 3) == float(series.pn_value(3, Fraction(1 / 3)))
    assert type(series.pn_value(3, 1 / 3)) is float


@pytest.mark.parametrize("call", [
    lambda series: series.pn_value(-1, 0.5),
    lambda series: series.pn_value(13, 0.5),
    lambda series: series.is_palindromic(-1),
], ids=["pn_value-1", "pn_value-13", "is_palindromic-1"])
def test_birkhoff_series_index_must_lie_in_its_orders(call):
    # Unchecked, polys[-1] would wrap to P_12 and n = 13 would end in an IndexError.
    with pytest.raises(PrecisionError, match=r"^n of the order-12 series must be between 0 and 12, got (-1|13)$"):
        call(birkhoff_series(order=12))


def test_birkhoff_float_values_must_be_finite():
    series = birkhoff_series(order=32)
    with pytest.raises(DomainError, match=r"^P_2\(s\) at s = 1e\+200 is not a finite float; give s as p/q"):
        series.pn_value(2, 1e200)
    assert series.pn_value(32, Fraction(10**200)) > 0  # exact at p/q


@pytest.mark.parametrize("s,z", [(Fraction(3, 7), 0.5), (0.5, 1e300), (5.0, 0.05), (-0.6, 0.25j), (0.5, math.nan)])
def test_birkhoff_series_refuses_z_outside_its_disc(s, z):
    # The disc is |z| < Z* = 1/(4 max(1, |s|)); past it the sum diverges.
    with pytest.raises(DomainError, match=r"outside the disc \|z\| < Z\* = "):
        birkhoff_series(order=32).evaluate(z, s)


def _rounded_exact_sum(series, z, s) -> complex:
    """sum_n P_n(s) z**n in Fractions from the coefficients, rounded once per part."""
    x, zr, zi = Fraction(s), Fraction(complex(z).real), Fraction(complex(z).imag)
    re = im = Fraction(0)
    pr, pi = Fraction(1), Fraction(0)  # z**n
    for poly in series.polys:
        pn = sum(c * x**k for k, c in enumerate(poly))
        re, im = re + pn * pr, im + pn * pi
        pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
    return complex(float(re), float(im))


@pytest.mark.parametrize("s,z", [
    (Fraction(10**20), 1e-30), (Fraction(-10**20, 3), 2e-21j), (Fraction(10**400), 0.0),
    (1e300, 1e-301), (Fraction(37, 10), 0.06), (-3.7, -0.05j), (Fraction(1, 3), 0.2),
])
def test_birkhoff_series_sum_is_the_exact_sum(s, z):
    # The sum is formed exactly and rounded once: it is the correctly rounded
    # sum, even where P_n(s) itself leaves the float range.
    series = birkhoff_series(order=32)
    assert series.evaluate(z, s) == _rounded_exact_sum(series, z, s)


@PROPERTY
@given(
    order=st.integers(0, 32),
    s=st.one_of(
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
        st.floats(-1e3, 1e3),
    ),
    w=st.one_of(st.floats(-0.999, 0.999), st.builds(cmath.rect, st.floats(0.0, 0.999), st.floats(-math.pi, math.pi))),
)
def test_birkhoff_evaluators_round_the_exact_values_once(order, s, w):
    series = birkhoff_series(order)
    z = w / (4 * max(1, abs(s)))  # w Z*, real or complex
    assert series.evaluate(z, s) == _rounded_exact_sum(series, z, s)
    if isinstance(s, float):
        for n, poly in enumerate(series.polys):
            assert series.pn_value(n, s) == float(sum(c * Fraction(s) ** k for k, c in enumerate(poly)))


@PROPERTY
@given(abc=st.tuples(*[st.floats(0.5, 4.0)] * 3), z=st.floats(-0.25, 0.25))
def test_birkhoff_d_of_z_is_rounded_once(abc, z):
    # d = b + 4 (a - b) Z, formed exactly: (a - b)/(c - b) times (c - b)
    # would round a - b twice.
    a, b, c = abc
    assume(c != b)
    assert birkhoff_d_of_z(a, b, c, z) == float(Fraction(b) + 4 * (Fraction(a) - Fraction(b)) * Fraction(z))


def test_birkhoff_order_budget():
    with pytest.raises(PrecisionError):
        birkhoff_series(order=33)
    with pytest.raises(PrecisionError):
        birkhoff_series(order=-1)


@pytest.mark.parametrize("order", [2.5, 3.0, "3", None])
def test_birkhoff_order_must_be_an_int(order):
    with pytest.raises(PrecisionError, match="order must be an int"):
        birkhoff_series(order=order)


def test_birkhoff_normalization_values():
    assert birkhoff_normalization(2.0, 1.0, 3.0) == pytest.approx(-1.0 / 6.0, rel=1e-14)
    assert birkhoff_normalization(2.0, 1.0, 3.0, l=4.0) == pytest.approx(-1.0 / 12.0, rel=1e-14)
    with pytest.raises(DomainError):
        birkhoff_normalization(3.0, 2.0, 1.0)
    # C depends only on the differences of a, b, c, so their signs are free.
    assert birkhoff_normalization(-2.0, -3.0, -1.0) == birkhoff_normalization(2.0, 1.0, 3.0)


@pytest.mark.parametrize("call,message", [
    (lambda: birkhoff_normalization(math.nan, 1.0, 3.0), "a must be finite, got nan"),
    (lambda: birkhoff_normalization(math.inf, 1.0, 3.0), "a must be finite, got inf"),
    (lambda: birkhoff_normalization(10**400, 1.0, 3.0), f"a must be finite, got {10**400}"),
    (lambda: birkhoff_normalization(2.0, 1.0, 3.0, math.nan), "Casimir level l must be positive and finite, got nan"),
    (lambda: birkhoff_normalization(2.0, 1.0, 3.0, -1.0), "Casimir level l must be positive and finite, got -1.0"),
    (lambda: birkhoff_normalization(2.0, 1.0, 3.0, 0.0), "Casimir level l must be positive and finite, got 0.0"),
    (lambda: birkhoff_d_of_z(2.0, 1.0, 1.0, 0.1), "d(Z) needs c != b"),
    (lambda: birkhoff_d_of_z(2.0, 1.0, 3.0, math.nan), "Z must be finite, got nan"),
    (lambda: birkhoff_d_of_z(2.0, -math.inf, 3.0, 0.1), "b must be finite, got -inf"),
    (lambda: birkhoff_d_of_z(1e308, 0.0, 3.0, 1.0), "d(Z) is outside the float range at a = 1e+308"),
    (lambda: birkhoff_series(3).evaluate(0.1, math.nan), "shape ratio s must be finite, got nan"),
    (lambda: birkhoff_series(3).pn_value(1, -math.inf), "shape ratio s must be finite, got -inf"),
], ids=["a-nan", "a-inf", "a-int-beyond-float", "l-nan", "l-negative", "l-zero", "c-equals-b", "z-nan", "b-inf",
        "d-overflows", "evaluate-s-nan", "pn-s-inf"])
def test_birkhoff_inputs_must_be_finite_and_in_domain(call, message):
    # Each is refused by name, not answered with nan, -0.0 or a bare arithmetic error.
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        call()


def test_birkhoff_series_matches_closed_form():
    # Near the extreme reciprocal the truncated series reproduces S.
    a, b, c = 2.0, 1.0, 3.0
    s = (a - b) / (c - b)
    C = birkhoff_normalization(a, b, c)
    series = birkhoff_series(order=12)
    for z, tol in ((0.02, 1e-14), (0.05, 1e-9)):
        d = birkhoff_d_of_z(a, b, c, z)
        want = S_closed_form(ModuliPoint(b, a, c, d, 1.0))
        assert C * series.evaluate(z, s) == pytest.approx(want, abs=tol)
    # Both stable axes, b the smallest or the largest reciprocal, at s = 0.5,
    # 0.5, 0.763 and 5: order 32 at a quarter of the radius Z* = 1/(4 max(1, |s|)).
    series = birkhoff_series(order=32)
    for a, b, c in ((2.0, 1.0, 3.0), (2.0, 3.0, 1.0), (1.4, 3.4, 0.78), (3.0, 0.5, 1.0)):
        s = (a - b) / (c - b)
        z = 0.25 / (4.0 * max(1.0, abs(s)))
        for l in (0.5, 4.0):
            want = S_closed_form(ModuliPoint(b, a, c, birkhoff_d_of_z(a, b, c, z), l))
            assert birkhoff_normalization(a, b, c, l) * series.evaluate(z, s) == pytest.approx(want, rel=1e-14)
