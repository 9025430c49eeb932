"""Integer monodromy: loop engine, stated generators, braid bookkeeping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_branch_properties import PROPERTY

from eulertop.monodromy import (
    GENERATOR_LABELS,
    MAX_WINDING,
    PRESETS,
    IntegerMatrix2,
    ModuliLoop,
    MonodromyError,
    chamber_basepoint,
    generator_matrix,
    loop_monodromy,
    numeric_vs_stated,
    preset_loop,
    preset_monodromy,
    verify_braid_relations,
    verify_confluence_product,
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
    assert IntegerMatrix2(A).trace == 2
    assert IntegerMatrix2.identity().entries == ((1, 0), (0, 1))
    back = IntegerMatrix2.from_array(np.array(U))
    assert back.entries == U


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
    assert (exact.inverse().as_array() @ ref).tolist() == [[1, 0], [0, 1]]
    assert (ref @ exact.inverse().as_array()).tolist() == [[1, 0], [0, 1]]


def test_chamber_basepoint_layout():
    base = chamber_basepoint()
    assert base["d"].imag == 0.0
    for name in ("a", "b", "c"):
        assert base[name].imag == pytest.approx(-1e-3)
    assert base["a"].real > base["d"].real > base["b"].real > base["c"].real


def test_loop_validation():
    base = chamber_basepoint()
    frozen = {k: v for k, v in base.items() if k != "a"}
    with pytest.raises(ValueError, match="winding"):
        ModuliLoop(move="a", center=frozen["d"], radius=0.2, winding=0, frozen=frozen)
    with pytest.raises(ValueError, match="radius"):
        ModuliLoop(move="a", center=frozen["d"], radius=0.6, winding=1, frozen=frozen)
    with pytest.raises(ValueError, match="keys"):
        ModuliLoop(move="a", center=frozen["d"], radius=0.2, winding=1,
                   frozen={"b": frozen["b"]})


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
    ("winding", "1"), ("frozen", [2.0, 1.0]), ("start", [3.0, "q"]), ("start", [1e6, 0.0]),
])
def test_loop_file_missing_or_ill_typed_key(key, value):
    # None stands for a missing key; every error names the key it is about.
    data = preset_loop("a", "d").to_json_dict()
    if value is None:
        del data[key]
    else:
        data[key] = value
    with pytest.raises(ValueError, match=key):
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


def test_alpha_comparison_reports():
    for label in ("alpha1", "alpha2", "alpha3"):
        stated = PRESETS[label][2]
        report = numeric_vs_stated(label)
        assert report.mismatch_count == 0
        assert report.orientation == +1
        assert report.computed.entries == stated.entries


def test_winding_is_a_homomorphism():
    u = np.array(U)
    for k in (-1, 2):
        got = loop_monodromy(preset_loop("a", "d", winding=k)).matrix
        want = np.linalg.matrix_power(u, k) if k >= 0 else np.linalg.inv(u)
        np.testing.assert_array_equal(got.as_array(), np.rint(want).astype(int))


def test_monodromy_is_homotopy_invariant():
    # Radius and basepoint offsets deform the loop without crossing the
    # discriminant, so the matrix cannot change.
    reference = loop_monodromy(preset_loop("a", "d")).matrix.entries
    assert loop_monodromy(preset_loop("a", "d", radius=0.1)).matrix.entries == reference
    assert loop_monodromy(preset_loop("a", "d", radius=0.3)).matrix.entries == reference
    assert loop_monodromy(preset_loop("a", "d", offset_scale=2.0)).matrix.entries == reference


def test_stated_generator_table():
    assert generator_matrix("h12").entries == U
    assert generator_matrix("h34").entries == U
    assert generator_matrix("h13").entries == A
    assert generator_matrix("h24").entries == A
    assert generator_matrix("h14").entries == L_INV
    assert generator_matrix("h23").entries == L_INV
    with pytest.raises(ValueError):
        generator_matrix("h15")


@pytest.mark.parametrize("label", GENERATOR_LABELS)
def test_generators_match_stated_up_to_orientation(label):
    report = numeric_vs_stated(label)
    assert report.mismatch_count == 0
    assert report.orientation == -1
    assert report.float_residual < 1e-6
    computed = report.computed.as_array()
    assert round(abs(np.linalg.det(computed))) == 1


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
