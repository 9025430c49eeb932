"""Integer monodromy: germ transport and its scipy oracle, loop engine,
stated generators, braid bookkeeping."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import basis_eval
from scipy.integrate import solve_ivp
from test_branch_properties import PROPERTY

from eulertop import monodromy
from eulertop.core import CoincidentModuliError
from eulertop.lattice import (
    GENERATOR_LABELS,
    PRESETS,
    IntegerMatrix2,
    verify_braid_relations,
    verify_confluence_product,
)
from eulertop.monodromy import (
    BASEPOINT,
    MAX_WINDING,
    ModuliLoop,
    PathTooCloseError,
    loop_monodromy,
    preset_loop,
    preset_monodromy,
    _matmul,
    _seed_germs,
    _step_matrices,
    _transport_germs,
    _word_matrix,
)

U = ((1, 2), (0, 1))
A = ((-1, 2), (-2, 3))
L_INV = ((1, 0), (-2, 1))


def test_integer_matrix_validation():
    with pytest.raises(ValueError, match="determinant"):
        IntegerMatrix2(((1, 0), (0, 2)))
    with pytest.raises(ValueError, match="ints"):
        IntegerMatrix2(((1.0, 0), (0, 1)))


def test_integer_matrix_algebra():
    u = IntegerMatrix2(U)
    linv = IntegerMatrix2(L_INV)
    assert (u @ u).entries == ((1, 4), (0, 1))
    assert (u @ u.inverse()).entries == ((1, 0), (0, 1))
    assert linv.inverse().entries == ((1, 0), (2, 1))
    a = IntegerMatrix2(A)
    assert a.entries[0][0] + a.entries[1][1] == 2
    assert IntegerMatrix2.identity().entries == ((1, 0), (0, 1))


# The letters U and L and their inverses as numpy int matrices, written out
# so that numpy's products do not rely on IntegerMatrix2.inverse.
NUMPY_LETTERS = {
    "U": np.array(U), "U^-1": np.array(((1, -2), (0, 1))),
    "L": np.array(((1, 0), (2, 1))), "L^-1": np.array(L_INV),
}


@PROPERTY
@given(st.lists(st.sampled_from(sorted(NUMPY_LETTERS)), max_size=16))
def test_integer_matrix_algebra_equals_numpy_int_products(word):
    exact, ref = IntegerMatrix2.identity(), np.eye(2, dtype=int)
    for token in word:
        letter = IntegerMatrix2(U if token[0] == "U" else ((1, 0), (2, 1)))
        exact = exact @ (letter.inverse() if token.endswith("^-1") else letter)
        ref = ref @ NUMPY_LETTERS[token]
    assert exact.tolist() == ref.tolist()
    assert (-exact).tolist() == (-ref).tolist()
    assert (np.array(exact.inverse().entries) @ ref).tolist() == [[1, 0], [0, 1]]
    assert (ref @ np.array(exact.inverse().entries)).tolist() == [[1, 0], [0, 1]]


# ----------------------------------------------------------------------
# Germ transport, checked against exact monodromies and against the scipy
# oracle _ode_transport.

def _lasso(z0, center, entry, spacing=0.02):
    """Points from z0 to entry, once counterclockwise round the circle about
    center through entry, and back, at most spacing apart."""
    line = np.linspace(z0, entry, int(np.ceil(abs(entry - z0) / spacing)) + 1)
    r, t0 = abs(entry - center), np.angle(entry - center)
    theta = t0 + np.linspace(0.0, 2 * np.pi, int(np.ceil(2 * np.pi * r / spacing)) + 1)
    return np.concatenate([line, (center + r * np.exp(1j * theta))[1:], line[::-1][1:]])


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

    Each chord z = z0 + t dz, t from 0 to 1, is one integration: dz jumps at
    every node, and one integration across such a jump rejects steps until
    they are tiny.  scipy's solvers want real systems, so the two germ rows
    are unpacked into 8 real components.
    """
    zs = np.asarray(zs, dtype=complex)
    y = np.empty(8)
    for k in range(2):
        f, fp = germs[k]
        y[4 * k], y[4 * k + 1] = f.real, f.imag
        y[4 * k + 2], y[4 * k + 3] = fp.real, fp.imag
    for z0, dz in zip(zs[:-1], np.diff(zs)):

        def rhs(t, y, z0=z0, dz=dz):
            z = z0 + t * dz
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

        sol = solve_ivp(rhs, (0.0, 1.0), y, method="DOP853", rtol=1e-13, atol=1e-13)
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


def test_ode_oracle_around_zero_is_the_exact_at0_monodromy():
    # The lasso above goes once round 0: F comes back unchanged and
    # F log z + Fstar gains 2 pi i F.  The oracle holds the transport to
    # 1e-8, so it must itself be much closer to the exact values.
    z0 = 0.3 + 0.2j
    germs = np.array(basis_eval("at0", z0))
    got = _ode_transport(_lasso(z0, 0.0, 0.5 + 0.5j), germs)
    want = germs.copy()
    want[1] += 2j * np.pi * want[0]
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


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


# Closer than this to 0 or 1, the scipy oracle _ode_transport still steps
# but loses digits and time.  Against the Taylor transport, at a distance d:
# on the path -1 + di -> 1 + di -> 0.5, a chord passing d from 0 and a node
# d from 1, it is 6.5e-11 off at d = 1e-5 and 5.8e-10 at d = 1e-6, where it
# takes 6.7 s (2 shared CPUs); on a chord passing d from 0 alone, at 8
# angles, 4.9e-11 and 3.2e-10.
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
# The path -1 + 1e-4i -> 1 + 1e-4i -> 0.5, which passes 1e-4 from 0 and turns
# 1e-4 from 1: an oracle that integrated across the turn could not step there.
@example(singular=0.0, gap=-4.0, angle=0.0, before=1.0, after=1.0, extra=[0j])
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


def test_chamber_basepoint_layout():
    assert complex(BASEPOINT["d"]).imag == 0.0
    for name in ("a", "b", "c"):
        assert BASEPOINT[name].imag == pytest.approx(-1e-3)
    assert BASEPOINT["a"].real > BASEPOINT["d"].real > BASEPOINT["b"].real > BASEPOINT["c"].real


def test_loop_validation():
    frozen = {k: v for k, v in BASEPOINT.items() if k != "a"}
    for winding in (0, True):
        with pytest.raises(ValueError, match="winding"):
            ModuliLoop(move="a", center=frozen["d"], radius=0.2, winding=winding, frozen=frozen)
    with pytest.raises(ValueError, match="radius"):
        ModuliLoop(move="a", center=frozen["d"], radius=0.6, winding=1, frozen=frozen)
    with pytest.raises(ValueError, match="keys"):
        ModuliLoop(move="a", center=frozen["d"], radius=0.2, winding=1,
                   frozen={"b": frozen["b"]})


def _scaled_loop_dict(factor, radius=0.2):
    # The preset loop of a around d with every coordinate and the radius
    # multiplied by factor.
    def times(pair):
        return [x * factor for x in pair]

    data = preset_loop("a", "d").to_json_dict()
    data.update(center=times(data["center"]), start=times(data["start"]), radius=radius * factor,
                frozen={k: times(v) for k, v in data["frozen"].items()})
    return data


@pytest.mark.parametrize("factor", [1.0, 1e-100])
def test_loop_clearance_is_relative_to_the_loop_scale(factor):
    # At radius 0.6 the circle around d reaches b, 0.5 away; at every scale
    # the loop is refused up front, not after its transport.
    with pytest.raises(ValueError, match="reaches another frozen coordinate"):
        ModuliLoop.from_json_dict(_scaled_loop_dict(factor, radius=0.6))


@pytest.mark.parametrize("factor", [2.0 ** -1000, 2.0 ** -40, 2.0, 2.0 ** 5, 2.0 ** 1000])
def test_loop_monodromy_is_evaluated_at_one_scale(factor):
    # Every loop is brought to a scale of 2 to 4 by an exact power of two,
    # so the preset loop multiplied by one gives bit-identical numbers.
    want = loop_monodromy(preset_loop("a", "d"))
    got = loop_monodromy(ModuliLoop.from_json_dict(_scaled_loop_dict(factor)))
    assert (got.matrix, got.residual) == (want.matrix, want.residual)


@pytest.mark.parametrize("start", [2.75, 2.75 + 1e-9j])
def test_loop_starting_on_its_circle_gives_the_matrix_of_a_start_off_it(start):
    # The circle's entry point rounds to the start, so the approach has
    # length 0: the path is the circle alone, closed on the start.
    frozen = {"b": 2 - 1e-3j, "c": 1 - 1e-3j, "d": 2.5}
    want = loop_monodromy(ModuliLoop("a", 2.5, 0.25, 1, frozen, start=2.8))
    got = loop_monodromy(ModuliLoop("a", 2.5, 0.25, 1, frozen, start=start))
    assert got.matrix == want.matrix
    assert got.matrix.entries == ((1, 2), (0, 1))
    assert got.residual < 1e-13


def test_loop_below_the_center_spacing_is_the_identity():
    # Radius 1e-17 about 3 - 1e-3i: the default start, two radii out, rounds
    # to the center, and the circle encloses no frozen coordinate.
    loop = ModuliLoop("a", 3 - 1e-3j, 1e-17, 1, {"b": 2 - 1e-3j, "c": 1 - 1e-3j, "d": 2.5})
    assert loop_monodromy(loop).matrix.entries == ((1, 0), (0, 1))


@pytest.mark.parametrize("factor", [1.0, 200.0, 1e100])
def test_loop_start_distance_is_relative_to_the_loop_scale(factor):
    # The start lies about 0.5 * factor from the center, beyond an absolute
    # MAX_START_DISTANCE for the larger factors, but about 0.5 in the loop's
    # own unit.
    got = loop_monodromy(ModuliLoop.from_json_dict(_scaled_loop_dict(factor)))
    assert got.matrix.entries == ((1, 2), (0, 1))
    assert got.residual < 1e-13
    # A start 200 units from the center is refused at every scale.
    far = _scaled_loop_dict(factor)
    far["center"] = [200.0 * factor, 0.0]
    with pytest.raises(ValueError, match="start must lie within 64 of the center"):
        ModuliLoop.from_json_dict(far)


@pytest.mark.parametrize("key", ["center", "radius", "start", "frozen.b"])
def test_loop_values_must_be_finite(key):
    # From Python as from a loop file, a nan, or an int beyond the float
    # range, is refused while the loop is built, with an error naming its key.
    loop = preset_loop("a", "d")
    for bad in (float("nan"), 10**400):
        change = {"frozen": {**loop.frozen, "b": bad}} if key == "frozen.b" else {key: bad}
        with pytest.raises(ValueError, match=f"'{key}' must be finite"):
            loop.replace(**change)


@pytest.mark.parametrize("frozen,pair", [({"c": [2.5, 0.0]}, "c = d"), ({"b": [1.0, -0.001]}, "b = c")])
def test_loop_start_with_coincident_coordinates_is_refused(frozen, pair):
    # Two coordinates equal at the start put it on the discriminant.
    data = preset_loop("a", "d").to_json_dict()
    data["frozen"].update(frozen)
    with pytest.raises(CoincidentModuliError, match=pair):
        ModuliLoop.from_json_dict(data)


@pytest.mark.parametrize("winding", [1.7, MAX_WINDING + 1, -MAX_WINDING - 1])
def test_loop_file_winding_is_bounded(winding):
    # Rejected while the loop is built, before any sample is allocated.
    data = preset_loop("a", "d").to_json_dict()
    data["winding"] = winding
    with pytest.raises(ValueError, match="winding"):
        ModuliLoop.from_json_dict(data)


@pytest.mark.parametrize("key,value", [
    ("move", None), ("center", None), ("radius", None), ("winding", None), ("frozen", None),
    ("move", ["a"]), ("center", "x"), ("radius", "abc"), ("radius", [0.2, 0.0]),
    ("winding", "1"), ("frozen", [2.0, 1.0]), ("start", [3.0, "q"]),
    pytest.param("radius", 10**400, id="radius-int-beyond-float"),
    pytest.param("center", [10**400, 0], id="center-int-beyond-float"),
    pytest.param("winding", True, id="winding-bool"),
    pytest.param("radius", "0.2", id="radius-numeric-string"),
    pytest.param("center", "2.5", id="center-numeric-string"),
    pytest.param("center", [2.5, 0.0, 99], id="center-three-elements"),
    pytest.param("start", [True, False], id="start-bools"),
])
def test_loop_file_missing_or_ill_typed_key(key, value):
    # None stands for a missing key; every error names the key it is about,
    # also for an int too large for a float.  A number is an int or a float,
    # not a bool or a string, and a pair holds exactly two numbers.
    data = preset_loop("a", "d").to_json_dict()
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(ValueError, match=key):
        ModuliLoop.from_json_dict(data)


@pytest.mark.parametrize("key", ["strat", "chamber", "Move"])
def test_loop_file_unknown_key_is_refused(key):
    # A misspelt optional key would otherwise run another loop without a
    # word: "strat" would start the mover at the default, not at "start".
    data = preset_loop("a", "d").to_json_dict()
    data[key] = data.pop("start") if key == "strat" else [3.0, -0.001]
    with pytest.raises(ValueError, match=f"unknown loop keys \\['{key}'\\]"):
        ModuliLoop.from_json_dict(data)


def test_loop_file_must_be_an_object():
    with pytest.raises(ValueError, match="JSON object"):
        ModuliLoop.from_json_dict([preset_loop("a", "d").to_json_dict()])


def test_loop_json_roundtrip():
    loop = preset_loop("a", "d", winding=-2)
    back = ModuliLoop.from_json_dict(loop.to_json_dict())
    assert back.move == "a"
    assert back.winding == -2
    assert back.effective_start() == pytest.approx(loop.effective_start())
    assert back.frozen == loop.frozen

    stripped = loop.to_json_dict()
    del stripped["start"]
    default_start = ModuliLoop.from_json_dict(stripped)
    assert default_start.effective_start() == pytest.approx(
        complex(loop.center) + 2 * loop.radius
    )


def test_preset_loop_rejects_unknown_labels():
    with pytest.raises(ValueError):
        preset_loop("e", "d")
    with pytest.raises(ValueError):
        preset_loop("a", "a")


@pytest.mark.parametrize(
    "label,entries", [("alpha1", U), ("alpha2", A), ("alpha3", L_INV)]
)
def test_alpha_monodromies(label, entries):
    result = preset_monodromy(label)
    assert result.matrix.entries == entries
    assert result.residual < 1e-6


@pytest.mark.parametrize("label", sorted(PRESETS))
def test_preset_monodromy_reports_the_stated_matrix(label):
    # Every preset comes back in the frame and orientation of its stated
    # matrix, so equality is the whole comparison.
    result = preset_monodromy(label)
    assert result.matrix == PRESETS[label][2]
    assert result.residual < 1e-6


def test_winding_is_a_homomorphism():
    u = np.array(U)
    for k in (-1, 2):
        got = loop_monodromy(preset_loop("a", "d", winding=k)).matrix
        want = np.linalg.matrix_power(u, k) if k >= 0 else np.linalg.inv(u)
        np.testing.assert_array_equal(np.array(got.entries), np.rint(want).astype(int))


def test_monodromy_is_homotopy_invariant():
    # Radius and basepoint offsets deform the loop without crossing the
    # discriminant, so the matrix cannot change.
    loop = preset_loop("a", "d")
    reference = loop_monodromy(loop).matrix.entries
    assert loop_monodromy(loop.replace(radius=0.1)).matrix.entries == reference
    assert loop_monodromy(loop.replace(radius=0.3)).matrix.entries == reference
    # The peers twice as far below the real axis.
    frozen = {"b": 2 - 2e-3j, "c": 1 - 2e-3j, "d": 2.5}
    deeper = loop.replace(frozen=frozen, start=3 - 2e-3j)
    assert loop_monodromy(deeper).matrix.entries == reference


# Closed cross-ratio polylines for the crossing word, all starting at
# MU0 = 0.5 + 0.3i in the upper half-plane; the lower start is their mirror
# image, which also reverses every orientation.
MU0 = 0.5 + 0.3j


def _circle(center, winding, start=MU0, samples=256):
    # winding turns around center through start, ending exactly at start.
    r, theta = abs(start - center), cmath.phase(start - center)
    n = samples * abs(winding)
    return [start] + [center + r * cmath.exp(1j * (theta + 2 * math.pi * winding * k / n))
                      for k in range(1, n)] + [start]


def _small_circle(center, radius):
    # Straight in from MU0, once around a circle of the radius, straight back.
    entry = center + radius * cmath.exp(1j * cmath.phase(MU0 - center))
    return [MU0] + _circle(center, 1, entry)[:-1] + [entry, MU0]


def _lemniscate(samples=512):
    # A figure eight through 0.5, one lobe around 0 and one around 1, started
    # at t0 just before its crossing point.
    t0 = math.pi / 2 - 0.3
    points = []
    for k in range(samples + 1):
        t = t0 + 2 * math.pi * k / samples
        w = 0.7 / (1 + math.sin(t) ** 2)
        points.append(complex(0.5 + w * math.cos(t), w * math.sin(t) * math.cos(t)))
    points[-1] = points[0]
    return points


WORD_PATHS = {
    **{f"around {c} x{w}": _circle(c, w) for c in (0, 1) for w in (1, -1, 2, -2)},
    "sample on (-inf, 0]": [MU0, -0.5 + 0.3j, -0.5 + 0j, -0.5 - 0.3j, 0.5 - 0.3j, MU0],
    "sample on (1, inf)": [MU0, 0.5 - 0.3j, 1.5 - 0.3j, 1.5 + 0j, 1.5 + 0.3j, MU0],
    "touches (-inf, 0] from above": [MU0, -0.5 + 0j, 0.5 + 0.6j, MU0],
    "touches (-inf, 0] from below": [MU0, 0.5 - 0.3j, -0.5 + 0j, -0.2 - 0.4j, 0.5 - 0.3j, MU0],
    "touches (1, inf) from below": [MU0, 0.5 - 0.3j, 1.5 + 0j, 1.2 - 0.4j, 0.5 - 0.3j, MU0],
    "figure eight": _lemniscate(),
    **{f"radius {r:g} around {c}": _small_circle(c, r) for c in (0, 1) for r in (1e-9, 3e-12)},
}


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("name", sorted(WORD_PATHS))
def test_crossing_word_is_the_transport(name, sigma):
    # Transported seed rows are T @ start, T the product of the exact
    # generators at the path's cut crossings: an exact check also between
    # the transport's clearance of 2.86e-12 and the band the ODE oracle
    # reaches.
    path = [z if sigma > 0 else z.conjugate() for z in WORD_PATHS[name]]
    start = _seed_germs(path[0])
    word = _word_matrix(path, (1.0, 1.0), (1.0, 1.0))
    want = _matmul(word, start)
    got = _transport_germs(path, start)
    scale = max(abs(x) for row in want for x in row)
    assert max(abs(x - y) for row, ref in zip(got, want) for x, y in zip(row, ref)) <= 1e-12 * scale
    for row in word:
        for x in row:
            assert x == complex(round(x.real), round(x.imag))


def test_crossing_word_generators():
    # One counterclockwise turn around 0 and around 1 from each side: the
    # generators of the derivation, exactly.
    for sigma in (1, -1):
        path = [z if sigma > 0 else z.conjugate() for z in _circle(0, sigma)]
        assert _word_matrix(path, (1.0, 1.0), (1.0, 1.0)) == ((1, -2j), (0, 1))
        path = [z if sigma > 0 else z.conjugate() for z in _circle(1, sigma)]
        assert _word_matrix(path, (1.0, 1.0), (1.0, 1.0)) == ((1 + 2 * sigma, -2j), (-2j, 1 - 2 * sigma))


def _power(m, k):
    out = IntegerMatrix2.identity()
    for _ in range(abs(k)):
        out = out @ (m if k > 0 else m.inverse())
    return out


@PROPERTY
@given(
    pair=st.permutations("abcd").map(lambda p: p[:2]),
    radius=st.floats(0.05, 0.45),
    winding=st.integers(1, 3).flatmap(lambda w: st.sampled_from([w, -w])),
)
def test_loop_matrix_is_a_power_of_its_single_turn(pair, radius, winding):
    # The word and the one transported frame agree on random loops at the
    # standard basepoint, and w turns give the w-th power of one turn.
    move, around = pair
    once = loop_monodromy(preset_loop(move, around).replace(radius=radius))
    got = loop_monodromy(preset_loop(move, around, winding).replace(radius=radius))
    assert max(once.residual, got.residual) < 1e-10
    assert got.matrix == _power(once.matrix, winding)


def test_stated_generator_table():
    stated = {label: PRESETS[label][2].entries for label in GENERATOR_LABELS}
    assert stated == {"h12": U, "h34": U, "h13": A, "h24": A, "h14": L_INV, "h23": L_INV}


@pytest.mark.parametrize("label", GENERATOR_LABELS)
def test_generators_match_stated_up_to_orientation(label):
    # The engine's own counterclockwise loop, swapped into the (S1, S3)
    # frame, is the inverse of the stated matrix: the generators are stated
    # as clockwise loops.
    move, around, stated = PRESETS[label]
    result = loop_monodromy(preset_loop(move, around))
    (p, q), (r, s) = result.matrix.entries
    assert IntegerMatrix2(((s, r), (q, p))) == stated.inverse()
    assert result.residual < 1e-6


def test_confluence_orderings():
    out = verify_confluence_product()
    flags = {order: info["is_minus_identity"] for order, info in out.items()}
    assert flags == {
        "alpha1 alpha3 alpha2": True,
        "alpha3 alpha2 alpha1": True,
        "alpha2 alpha1 alpha3": True,
        "alpha1 alpha2 alpha3": False,
        "alpha3 alpha1 alpha2": False,
        "alpha2 alpha3 alpha1": False,
    }


def test_braid_relation_statuses():
    out = verify_braid_relations()
    statuses = {k: v["status"] for k, v in out.items() if k != "center"}
    assert statuses == {
        "R1": "exact",
        "R2": "fail",
        "R3": "fail",
        "R4": "exact",
        "R5": "exact",
        "R6": "fail",
        "R7": "exact",
    }
    minus_i = [[-1, 0], [0, -1]]
    assert all(p == minus_i for p in out["R1"]["products"])
    assert all(p == minus_i for p in out["R4"]["products"])
    assert out["R5"]["products"][0] == [[1, 4], [0, 1]]
    assert out["R7"]["products"][0] == [[1, 0], [-4, 1]]
    assert out["center"]["product"] == [[21, -8], [8, -3]]
    assert not out["center"]["is_minus_identity"]
