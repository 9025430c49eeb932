"""Property tests of the one branch-cut rule.

Every cut-sensitive value takes a ``side``: the sign of an infinitesimal
imaginary part added to its argument.  So a sided value on a cut must equal
the plain value a small step off the cut on that side, with
eps = 1e-9 * max(1, |x|).  Points stay at least 1e-3 from the singular
points 0 and 1, so that step moves the value by far less than the 1e-6
relative tolerance.  The local bases take no side: on their prefactors'
cuts, tested inside |z| <= 0.9 of their series disc, they raise.
"""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import _log_sided, basis_eval

from eulertop.core import CoincidentModuliError, ModuliPoint
from eulertop.periods import S_closed_form
from eulertop.special import BranchCutError, _on_cut, _sqrt_sided, elliptic_K

# The same examples on every run, and no example database written to disk.
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

REL = 1e-6


def eps(x: float) -> float:
    return 1e-9 * max(1.0, abs(x))


def close(got: complex, want: complex) -> bool:
    return abs(got - want) <= REL * abs(want)


def spread(lo: float, hi: float):
    """Floats in [lo, hi], 0 < lo < hi, spread evenly in log10."""
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda t: 10.0**t)


SIDES = st.sampled_from((+1, -1))

# Real points where each local basis has its log/sqrt prefactors cut.
BASIS_CUTS = {
    "at0": spread(1e-3, 0.9).map(lambda r: -r),
    "at1": spread(1e-3, 0.9).map(lambda r: 1.0 + r),
    "atInf": spread(1e-6, 0.9).map(lambda r: 1.0 / r),
}


@PROPERTY
@given(m=spread(1e-3, 1e6).map(lambda r: 1.0 + r), side=SIDES)
def test_elliptic_K_side_is_the_one_sided_limit(m, side):
    assert close(elliptic_K(m, side=side), elliptic_K(m + side * 1j * eps(m)))


@PROPERTY
@given(x=spread(1e-3, 1e6).map(lambda r: -r), side=SIDES)
def test_log_and_sqrt_side_is_the_one_sided_limit(x, side):
    off = complex(x, side * eps(x))
    assert close(_log_sided(x, side), _log_sided(off))
    assert close(_sqrt_sided(x, side), _sqrt_sided(off))


@PROPERTY
@given(m=spread(1e-3, 1e6).map(lambda r: 1.0 + r), x=spread(1e-3, 1e6).map(lambda r: -r))
def test_no_side_on_the_cut_raises(m, x):
    # Only the public functions that take a side name it in their message.
    with pytest.raises(BranchCutError, match=r"K evaluated on the branch cut .* \(pass side=\+1"):
        elliptic_K(m)
    with pytest.raises(BranchCutError):
        _log_sided(x)
    with pytest.raises(BranchCutError):
        _sqrt_sided(x)


@pytest.mark.parametrize("basis_id", sorted(BASIS_CUTS))
def test_basis_eval_on_its_cut_raises(basis_id):
    @PROPERTY
    @given(z=BASIS_CUTS[basis_id])
    def check(z):
        with pytest.raises(BranchCutError) as info:
            basis_eval(basis_id, z)
        assert "side" not in str(info.value)  # basis_eval takes no side

    check()


@PROPERTY
@given(re=st.floats(-1e3, 1e3), im=st.floats(-1e3, 1e3))
def test_elliptic_K_commutes_with_conjugation_off_the_cut(re, im):
    m = complex(re, im)
    if abs(m - 1.0) < 1e-3 or _on_cut(1.0 - m):
        return
    got = elliptic_K(m.conjugate())
    want = elliptic_K(m).conjugate()
    assert abs(got - want) <= 1e-13 * abs(want)


@settings(PROPERTY, max_examples=50)
@given(
    c=st.floats(-3.0, 3.0),
    gaps=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    l=spread(0.1, 10.0),
)
def test_closed_form_is_the_d_minus_i0_limit(c, gaps, l):
    # A real chamber point a > d > b > c, in all 24 slot orderings.
    b = c + gaps[0]
    d = b + gaps[1]
    a = d + gaps[2]
    for order in itertools.permutations((a, b, c, d)):
        m = ModuliPoint(*order, l=l)
        below = dataclasses.replace(m, d=m.d - 1j * eps(m.scale()))
        assert close(S_closed_form(m), S_closed_form(below))


@PROPERTY
@given(
    c=st.floats(-3.0, 3.0),
    gaps=st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0)),
    t=st.floats(0.0, 1.0),
    im=st.one_of(st.just(0.0), st.tuples(spread(1e-6, 10.0), SIDES).map(lambda p: p[0] * p[1])),
    l=spread(0.1, 10.0),
)
def test_three_term_identity_at_real_a_b_c(c, gaps, t, im, l):
    # S(a,b,c,d) + S(b,a,c,d) = S(c,b,a,d) for real a > b > c, with d off the
    # axis or real in (c - 5, a + 5), where S takes it at d - i0.
    b = c + gaps[0]
    a = b + gaps[1]
    d = complex(c - 5.0 + t * (a - c + 10.0), im)
    m = ModuliPoint(a, b, c, d, l=l)
    try:
        s1, s2, s3 = (S_closed_form(m.reorder(order)) for order in ("abcd", "bacd", "cbad"))
    except CoincidentModuliError:
        return
    assert abs(s1 + s2 - s3) <= 1e-11 * max(abs(s1), abs(s2), abs(s3))
