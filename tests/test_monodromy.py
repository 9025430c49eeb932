"""Integer monodromy: loop engine, stated generators, braid bookkeeping."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_branch_properties import PROPERTY

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
    loop_monodromy,
    preset_loop,
    preset_monodromy,
    _matmul,
    _seed_germs,
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
