"""Moduli bookkeeping: inertia validation, chamber points, relabelling."""

import ast
import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import eulertop
from eulertop.core import (
    ComputationError,
    DomainError,
    InertiaSpec,
    ModuliPoint,
    cross_ratio,
    require_positive,
)


@pytest.mark.parametrize("value", [
    0.0, -1.0, float("nan"), float("inf"), -float("inf"), "1", None, 1j, pytest.param(10**400, id="int-beyond-float"),
])
def test_the_positive_gate_refuses_anything_but_a_finite_number_above_zero(value):
    with pytest.raises(DomainError, match=f"^{re.escape(f'width must be positive and finite, got {value!r}')}$"):
        require_positive("width", value)


@pytest.mark.parametrize("value", [5e-324, 1, 2.5, 1.7e308])
def test_the_positive_gate_passes_its_value_through(value):
    assert require_positive("width", value) is value


@pytest.mark.parametrize(
    "moments",
    [(0.0, 1.0, 2.0), (-1.0, 2.0, 3.0), (1.0, float("nan"), 2.0), (1.0, float("inf"), 2.0),
     (10**400, 1, 2)],
)
def test_inertia_rejects_nonpositive_or_nonfinite(moments):
    with pytest.raises(DomainError):
        InertiaSpec(*moments)


@pytest.mark.parametrize("moments, name", [((1.0, 5e-324, 2.5), "I2"), ((1e308, 1.0, 2.5), "I1")])
def test_inertia_refuses_moments_whose_reciprocal_is_not_a_normal_float(moments, name):
    # 1/5e-324 overflows to inf, and 1/1e308 is subnormal: either would
    # reach the vector field as a reciprocal moment with no correct digits.
    with pytest.raises(DomainError, match=f"moment of inertia {name} = .* outside the normal float range"):
        InertiaSpec(*moments)


def test_inertia_rejects_coincident_moments():
    with pytest.raises(DomainError, match="distinct"):
        InertiaSpec(1.0, 1.0, 2.0)
    with pytest.raises(DomainError, match="distinct"):
        InertiaSpec(2.0, 1.0, 2.0)


def test_inertia_reciprocals():
    spec = InertiaSpec(1 / 3, 1 / 2, 1.0)
    assert spec.reciprocals() == pytest.approx((3.0, 2.0, 1.0))


def test_inertia_from_reciprocals_roundtrip():
    spec = InertiaSpec.from_reciprocals(3.0, 2.0, 1.0)
    assert spec.reciprocals() == pytest.approx((3.0, 2.0, 1.0))


@pytest.mark.parametrize("reciprocals", [(3.0, 2.0, 0.0), (3.0, -2.0, 1.0), (float("nan"), 2.0, 1.0), (3.0, float("inf"), 1.0)])
def test_inertia_from_reciprocals_rejects_nonpositive_or_nonfinite(reciprocals):
    with pytest.raises(DomainError, match="reciprocal"):
        InertiaSpec.from_reciprocals(*reciprocals)


def test_moduli_rejects_nonpositive_casimir():
    with pytest.raises(DomainError, match="positive"):
        ModuliPoint(3, 2, 1, 2.5, 0.0)


@pytest.mark.parametrize(
    "value", [float("nan"), complex(0.0, float("inf")), 10**400], ids=["nan", "inf-imag", "int-beyond-float"]
)
def test_moduli_coordinates_must_be_finite(value):
    with pytest.raises(DomainError, match=f"^{re.escape(f'coordinate a must be finite, got {value!r}')}$"):
        ModuliPoint(value, 2, 1, 2.5)


def test_moduli_scale_and_reality():
    m = ModuliPoint(3, 2, 1, 2.5, 1.0)
    assert m.scale() == 3.0
    assert m.is_real()
    assert not ModuliPoint(3, 2, 1, 2.5 + 1e-3j, 1.0).is_real()


def test_moduli_coincident_pairs_and_replace():
    assert ModuliPoint(3, 2, 2, 2.5, 1.0).coincident_pairs() == [("b", "c")]
    assert ModuliPoint(3, 2, 1, 2.5, 1.0).coincident_pairs() == []
    m = ModuliPoint(3, 2, 1, 2.5, 1.0).replace(d=2.7)
    assert m.coords() == pytest.approx((3.0, 2.0, 1.0, 2.7))


def _records():
    from eulertop.dynamics import MomentumState
    from eulertop.lattice import IntegerMatrix2
    from eulertop.monodromy import MonodromyResult, preset_loop

    return [
        ModuliPoint(3, 2, 1, 2.5 - 1e-3j, 0.5),
        InertiaSpec(1.0, 2.0, 3.0),
        IntegerMatrix2(((1, 2), (0, 1))),
        MonodromyResult(IntegerMatrix2(((1, 2), (0, 1))), 1.6e-15),
        MomentumState(1.0, 0.5, 0.2),
        preset_loop("a", "d"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_compare_hash_and_print_as_frozen_dataclasses(record):
    # Each record against a frozen dataclass of the same name and fields:
    # the same repr, the same hash (or the same refusal to hash, for the
    # loop's frozen dict), and equality by class and fields.
    fields = type(record)._fields
    twin = dataclasses.make_dataclass(type(record).__name__, fields, frozen=True)(
        *(getattr(record, name) for name in fields)
    )
    assert repr(record) == repr(twin)
    try:
        want = hash(twin)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want
    same = record.replace()
    assert same == record and same is not record
    assert record != twin


def test_record_fields_cannot_be_assigned_or_deleted():
    m = ModuliPoint(3, 2, 1, 2.5)
    with pytest.raises(AttributeError, match="'d'"):
        m.d = 2.7
    with pytest.raises(AttributeError, match="'d'"):
        del m.d
    with pytest.raises(AttributeError):
        m.h = 2.5
    assert m == ModuliPoint(3, 2, 1, 2.5)


def test_record_replace_checks_the_new_record():
    from eulertop.monodromy import preset_loop

    m = ModuliPoint(3, 2, 1, 2.5)
    assert m.replace(d=2.7) == ModuliPoint(3, 2, 1, 2.7) != m
    with pytest.raises(DomainError, match="Casimir level l"):
        m.replace(l=-1)
    with pytest.raises(TypeError, match="'h'"):
        m.replace(h=2.5)
    loop = preset_loop("a", "d")
    with pytest.raises(ValueError, match="reaches another frozen coordinate"):
        loop.replace(radius=0.6)
    # The derived unit is recomputed, not copied: a loop 2**10 larger has
    # a unit 10 lower, and the unit stays outside equality and repr.
    big = loop.replace(center=loop.center * 1024, radius=loop.radius * 1024, start=loop.start * 1024,
                       frozen={k: v * 1024 for k, v in loop.frozen.items()})
    assert big._unit == loop._unit - 10
    assert "_unit" not in repr(loop)


def test_records_copy_and_pickle_through_init():
    m = ModuliPoint(3, 2, 1, 2.5, 0.5)
    assert copy.copy(m) == m
    assert pickle.loads(pickle.dumps(m)) == m


def test_coincidence_is_relative_to_the_points_size():
    # A point and its multiples are treated alike, however small they are.
    tiny = ModuliPoint(3e-20, 2e-20, 1e-20, 2.5e-20)
    assert tiny.scale() == 3e-20
    assert tiny.coincident_pairs() == []
    assert cross_ratio(*tiny.coords()) == pytest.approx(cross_ratio(3, 2, 1, 2.5), rel=1e-15)
    assert ModuliPoint(3e-20, 2e-20, 2e-20, 2.5e-20).coincident_pairs() == [("b", "c")]


@pytest.mark.parametrize("value", [0.0, 2.0, 1e-300])
def test_a_point_with_four_equal_coordinates_is_refused(value):
    # Every pair is coincident, so S refuses the point whatever pair it reads.
    m = ModuliPoint(value, value, value, value)
    assert len(m.coincident_pairs()) == 6


def test_cross_ratio_on_equal_energy_line():
    # d = b puts mu = cross_ratio(a, b, c, d) at 1; lam = cross_ratio(a, c, b, d)
    # has its pole there.
    assert cross_ratio(3, 2, 1, 2.0) == 1.0
    with pytest.raises(ZeroDivisionError):
        cross_ratio(3, 1, 2, 2.0)


def test_cross_ratio_regular_and_fatal_coincidences():
    # Numerator pairs (d = a, b = c) zero the ratio; denominator pairs
    # (d = c, b = a) are its poles, which callers refuse before forming it.
    assert cross_ratio(3, 2, 1, 3.0) == 0.0
    assert cross_ratio(3, 2, 2, 2.5) == 0.0
    with pytest.raises(ZeroDivisionError):
        cross_ratio(3, 2, 1, 1.0)
    with pytest.raises(ZeroDivisionError):
        cross_ratio(3, 3, 1, 2.5)


@pytest.mark.parametrize("d", [2.4, 2.5 + 0.3j, 1.7 - 0.4j])
def test_mu_is_moebius_image_of_lambda(d):
    # mu = cross_ratio(a, b, c, d) and lam = cross_ratio(a, c, b, d).
    lam = cross_ratio(3.1, 0.9, 2.2, d)
    assert cross_ratio(3.1, 2.2, 0.9, d) == pytest.approx(lam / (lam - 1.0))


def test_reorder_swaps_slots():
    m = ModuliPoint(3, 2, 1, 2.5, 1.0)
    swapped = m.reorder("cbad")
    assert swapped.coords() == pytest.approx((1.0, 2.0, 3.0, 2.5))
    assert swapped.l == m.l


def test_reorder_composes():
    # Reordering by p and then by q is reordering by the labels of p that q names.
    m = ModuliPoint(3.0, 2.0, 1.0, 2.5, 2.0)
    assert m.reorder("bacd").reorder("abdc").coords() == m.reorder("badc").coords()
    assert m.reorder("bcad").reorder("bcad").coords() == m.reorder("cabd").coords()
    for bad in ("abc", "abcc", "abce"):
        with pytest.raises(ValueError):
            m.reorder(bad)


def _import_time_imports(tree: ast.Module):
    """The module of each import that runs when the module is imported:
    every import statement outside a function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_layer_loads_numpy_on_import():
    # The layers are kept apart so that a command loads numpy only where it
    # computes with arrays; dynamics imports it inside the functions that
    # build them.  A module would load numpy if it imported numpy outside a
    # function; as none does, none loads it through another either.
    src = Path(eulertop.__file__).parent
    loads = {
        path.stem for path in src.glob("*.py")
        if any(m.split(".")[0] == "numpy" for m in _import_time_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert loads == set()


def test_only_dynamics_imports_numpy_at_all():
    # Inside a function too: the exact series in ``birkhoff`` leaves its
    # polynomials' roots to the tests.
    src = Path(eulertop.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                importers.add(path.stem)
    assert importers == {"dynamics"}


def _unread_imports(path: Path) -> list[str]:
    """The names that ``path`` imports and never reads: as a loaded name,
    or as a string in its __all__ (a re-export).  __future__ imports are
    directives, not names."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            reads |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{path.parent.name}/{path.name}:{line}: {name}" for name, line in sorted(bound.items()) if name not in reads]


def test_every_import_is_read():
    root = Path(__file__).resolve().parents[1]
    paths = [p for d in (root / "src" / "eulertop", root / "tests", root / "bench") for p in sorted(d.glob("*.py"))]
    assert len(paths) > 20
    assert [line for path in paths for line in _unread_imports(path)] == []


@pytest.mark.parametrize("name", [info.name for info in pkgutil.iter_modules(eulertop.__path__)])
def test_every_name_in_all_exists(name):
    # A deleted definition must leave its module's __all__ too.
    module = importlib.import_module(f"eulertop.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


# Public names that nothing reads yet, each kept for the open item that would
# read it (ROADMAP item 8); a name leaves this tuple when it gets a reader or goes.
OPEN_NAMES = (
    "birkhoff.birkhoff_normalization",
    "birkhoff.birkhoff_d_of_z",
    "periods.quadrature_tau_integral",
)


def _names_read() -> set[str]:
    """Every name that src/eulertop or bench/*.py reads: as a name, as an
    attribute, or as a string (its last dotted part, so the bench's
    "dynamics.orbit_period" reads orbit_period).  A top-level statement's
    reads of the names it defines do not count, nor does __all__."""
    root = Path(__file__).resolve().parents[1]
    reads = set()
    for path in [*(root / "src" / "eulertop").glob("*.py"), *(root / "bench").glob("*.py")]:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, ast.Assign):
                own = {t.id for t in stmt.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            if "__all__" in own:
                continue
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add(node.value.rsplit(".", 1)[-1])
            reads |= found - own
    return reads


def test_every_public_name_is_read_or_a_check_reference():
    # README's keep rule: a public name stays only if the package or the
    # benchmark reads it, or its docstring labels it a check reference.
    reads = _names_read()
    unread, public = [], set()
    for info in pkgutil.iter_modules(eulertop.__path__):
        module = importlib.import_module(f"eulertop.{info.name}")
        for n in module.__all__:
            public.add(f"{info.name}.{n}")
            if n not in reads and "Check reference" not in (getattr(module, n).__doc__ or ""):
                unread.append(f"{info.name}.{n}")
    assert sorted(set(unread) - set(OPEN_NAMES)) == []
    assert sorted(set(OPEN_NAMES) - public) == []


def test_every_error_is_a_refusal_or_a_failed_computation():
    # The CLI prints one error line for either root; only a bad --config
    # (a usage error, exit 2) has a class of its own.
    errors = {
        f"{name}.{cls.__name__}": cls
        for name in (info.name for info in pkgutil.iter_modules(eulertop.__path__))
        for cls in vars(importlib.import_module(f"eulertop.{name}")).values()
        if isinstance(cls, type) and cls.__name__.endswith("Error") and cls.__module__ == f"eulertop.{name}"
    }
    assert len(errors) > 10
    assert [k for k, cls in errors.items() if not issubclass(cls, (DomainError, ComputationError))] == ["cli.ConfigError"]
