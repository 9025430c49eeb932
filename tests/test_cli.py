"""Command-line interface: subcommands, formats, config, exit codes."""

import cmath
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_branch_properties import PROPERTY

from eulertop import cli
from eulertop.cli import main
from eulertop.core import DomainError
from eulertop.periods import period_report

BASE_ANCHOR = "-0.21243521802276702"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "eulertop" in capsys.readouterr().out


def test_simulate_csv_and_drift(capsys):
    code, out, err = run(
        capsys, "simulate", "--inertia", "1,2,3", "--p0", "0.1,2.0,0.1",
        "--t", "5", "--samples", "6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,p1,p2,p3,H,L"
    assert len(lines) == 7
    assert "relative drift" in err


def test_simulate_rejects_bad_inertia(capsys):
    code, out, err = run(
        capsys, "simulate", "--inertia", "1,1,3", "--p0", "0.1,2.0,0.1", "--t", "5",
    )
    assert code == 1
    assert "error" in err


def test_simulate_out_file(tmp_path, capsys):
    target = tmp_path / "run.csv"
    code, out, err = run(
        capsys, "simulate", "--inertia", "1,2,3", "--p0", "0.1,2.0,0.1",
        "--t", "1", "--samples", "3", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("t,p1,p2,p3,H,L")


def test_period_csv_anchor(capsys):
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-d", "2.5", "--grid-l", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a,b,c,d,l,S_closed")
    assert BASE_ANCHOR in lines[1]
    assert "max deviation" in err


def test_period_json_rows_are_l_major(capsys):
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-d", "2.3,2.7",
        "--grid-l", "1,2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 4
    assert payload["max_deviation"] < 1e-7
    # grid is ordered l-major, d-minor
    assert [(r["d"], r["l"]) for r in payload["rows"]] == [
        (2.3, 1.0), (2.7, 1.0), (2.3, 2.0), (2.7, 2.0),
    ]


@pytest.mark.parametrize("axis, grid_d", [("p1", "2.1,2.6,2.9"), ("p3", "1.2,1.5,1.95")])
def test_period_report_is_what_period_prints(capsys, axis, grid_d):
    from eulertop.periods import period_report

    code, out, err = run(capsys, "period", "--axis", axis, "--grid-d", grid_d, "--grid-l", "0.5,3",
                         "--format", "json")
    assert code == 0
    report = period_report(3.0, 2.0, 1.0, axis, [float(d) for d in grid_d.split(",")], [0.5, 3.0], 1e-7)
    assert len(report["rows"]) == 6
    assert report == json.loads(out)


def test_period_grid_is_bounded(capsys):
    # 65 x 64 rows is over the cap: refused before any row is computed.
    grid_d = ",".join(str(2.1 + 0.01 * k) for k in range(65))
    grid_l = ",".join(str(1.0 + k) for k in range(64))
    code, out, err = run(capsys, "period", "--grid-d", grid_d, "--grid-l", grid_l)
    assert code == 2
    assert out == ""
    assert "--grid-d" in err and "--grid-l" in err and str(cli.MAX_GRID_ROWS) in err


@pytest.mark.parametrize("axis", ["p1", "p3"])
def test_period_at_a_tiny_scale(capsys, axis):
    # Coincidence is judged relative to the point's own size, so moments of
    # order 1e20 are a regular chamber, and the three routes agree.
    code, out, err = run(capsys, "period", "--abc", "3e-20,2e-20,1e-20", "--axis", axis, "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for row in rows:
        assert row["dev_quad"] <= 1e-7 and row["dev_ode"] <= 1e-7
        assert 1e19 < abs(row["S_closed"]) < 1e20


def test_period_p3_family(capsys):
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-d", "1.2", "--grid-l", "1",
        "--axis", "p3", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["S_closed"] == pytest.approx(-0.18089288904942458, rel=1e-13)


@pytest.mark.parametrize(
    "flags, want_d",
    [
        ((), [2.1, 2.3, 2.5, 2.7, 2.9]),
        (("--axis", "p3"), [1.9, 1.7, 1.5, 1.3, 1.1]),
        (("--abc", "1,2,3"), [1.9, 1.7, 1.5, 1.3, 1.1]),
    ],
)
def test_period_default_grid_lies_in_the_axis_gap(capsys, flags, want_d):
    # Without --grid-d the rows sit 0.1, ..., 0.9 of the way from b across
    # (b, a) for p1 or (c, b) for p3.
    code, out, err = run(capsys, "period", *flags, "--format", "json")
    assert code == 0, err
    assert [r["d"] for r in json.loads(out)["rows"]] == pytest.approx(want_d, rel=1e-15)


def test_period_separatrix_exit(capsys):
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-d", "2.0", "--grid-l", "1",
    )
    assert code == 1
    assert "separatrix" in err


def test_period_chamber_violation(capsys):
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-d", "3.5", "--grid-l", "1",
    )
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("axis, good, bad", [("p1", 2.5, 3.5), ("p1", 2.5, 3.0), ("p3", 1.5, 2.5), ("p3", 1.5, 0.5)])
def test_period_names_a_d_outside_the_axis_gap(capsys, monkeypatch, axis, good, bad):
    # d must lie inside the open gap (b, a) for p1, (c, b) for p3.  A d
    # outside it is refused by name before any route runs.
    from eulertop import periods

    def no_route(*args, **kwargs):
        raise AssertionError("a route ran")

    # The ODE route runs after these two.
    for route in ("S_closed_form", "quadrature_sigma_integral"):
        monkeypatch.setattr(periods, route, no_route)
    gap = "(2.0, 3.0)" if axis == "p1" else "(2.0, 1.0)"
    want = f"grid point d = {bad} lies outside the open gap {gap} of axis {axis}"
    with pytest.raises(DomainError) as exc:
        period_report(3.0, 2.0, 1.0, axis, [good, bad], [1.0], 1e-10)
    assert str(exc.value) == want
    code, out, err = run(capsys, "period", "--abc", "3,2,1", "--axis", axis, "--grid-d", f"{good},{bad}")
    assert (code, out, err) == (1, "", f"error: {want}\n")


def test_period_rejects_nonpositive_reciprocal(capsys):
    code, out, err = run(capsys, "period", "--abc", "3,2,0", "--grid-d", "2.5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "reciprocal" in err


@pytest.mark.parametrize("flags", [("--abc", "3,3,1"), ("--abc", "3,2,2", "--axis", "p3")])
def test_period_names_a_degenerate_abc(capsys, flags):
    # Two equal reciprocals put the default grid on d = b; the error names the moments.
    code, out, err = run(capsys, "period", *flags)
    assert code == 1
    assert out == ""
    assert err == "error: moments of inertia must be pairwise distinct\n"


@pytest.mark.parametrize("axis", ["p1", "p3"])
@pytest.mark.parametrize("abc", ["2,3,1", "3,1,2"])
def test_period_names_a_b_outside_a_and_c(capsys, abc, axis):
    # Such moments leave no elliptic chamber for any d: refused by the
    # moments, before the separatrix check that a grid point d = b meets.
    a, b, c = map(float, abc.split(","))
    want = f"error: reciprocal moment b = {b!r} must lie strictly between a = {a!r} and c = {c!r}\n"
    for grid in ([], ["--grid-d", str(b)]):
        code, out, err = run(capsys, "period", "--abc", abc, "--axis", axis, *grid)
        assert (code, out, err) == (1, "", want)
    # The full reversal of 3, 2, 1 runs.
    code, out, err = run(capsys, "period", "--abc", "1,2,3", "--axis", axis)
    assert code == 0, err


def test_period_casimir_level_extremes(capsys):
    code, out, err = run(
        capsys, "period", "--grid-d", "2.5", "--grid-l", "1e-300,1e-100,1e100,1e300", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 4
    assert report["max_deviation"] < 1e-12


def test_period_names_the_period_beyond_the_float_range(capsys):
    # |S| is about 1.6e461 at l = 5e-324: the refusal names S at the row's
    # point and l.
    code, out, err = run(capsys, "period", "--abc", "3e-300,2e-300,1e-300", "--grid-l", "5e-324")
    assert (code, out) == (1, "")
    assert err == ("error: S at ModuliPoint(a=3e-300, b=2e-300, c=1e-300, d=2.1e-300, l=5e-324) "
                   "is outside the float range\n")


def test_period_p3_names_the_period_beyond_the_float_range_at_the_given_point(capsys):
    # The p3 axis evaluates S(c, b, a, d); the refusal names it so, at the
    # point as given, not at the reordered one.
    with pytest.raises(DomainError) as info:
        period_report(3e-300, 2e-300, 1e-300, "p3", [1.9e-300], [5e-324], 1e-8)
    message = ("S(c, b, a, d) at ModuliPoint(a=3e-300, b=2e-300, c=1e-300, d=1.9e-300, l=5e-324) "
               "is outside the float range")
    assert str(info.value) == message
    code, out, err = run(capsys, "period", "--abc", "3e-300,2e-300,1e-300", "--grid-l", "5e-324", "--axis", "p3")
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_simulate_horizon_is_bounded(capsys):
    code, out, err = run(
        capsys, "simulate", "--inertia", "1,2,3", "--p0", "1,1,1", "--t", "1e9", "--samples", "3",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "characteristic times" in err


@pytest.mark.parametrize("p0, casimir", [("1e200,1,1", "inf"), ("1e-200,1e-200,1e-200", "0.0")])
def test_simulate_refuses_a_casimir_outside_the_float_range(capsys, p0, casimir):
    # |p0|^2/2 overflows, or underflows to 0 for a moving state: either way
    # no number printed would be right, so the run is refused up front.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "simulate", "--inertia", "1,2,3", "--p0", p0, "--t", "1", "--samples", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: the Casimir L = |p|^2/2 of p0 = (") and f" is {casimir};" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, moments", [
    (("period", "--abc=1e300,1,1e-300", "--grid-d", "5e299"), "a = 1e+300, b = 1.0, c = 1e-300"),
    (("simulate", "--inertia", "1e-300,1,2", "--p0", "1,1,1", "--t", "1e-300", "--samples", "3"),
     "a > b > c = 9.999999999999999e+299, 1.0, 0.5"),
    (("period", "--abc=1e300,1,3e-308", "--grid-d", "5e299"), "a = 1e+300, b = 1.0, c = 3e-308"),
])
def test_extreme_moments_print_one_error_line_naming_them(capsys, argv, moments):
    # simulate: 2 L (a - c)(a - b), which sets the orbit's time scale,
    # overflows at the caller's L = |p0|^2/2.  period: scaled so the largest
    # is in [2, 4), where every route runs, the smallest moment is no
    # normal float.  Either way one line names the moments as given.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    if argv[0] == "simulate":
        assert err.startswith(f"error: reciprocal moments {moments} at Casimir L = 1.5 put ")
        assert "outside the normal float range" in err
    else:
        assert err.startswith(f"error: reciprocal moments {moments} span more than the float range: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(("--abc", "1e155,1,0.5", "--grid-d", "5e154"), id="1e155-d5e154"),
    pytest.param(("--abc=3e-160,2e-160,1e-160",), id="3e-160"),
    pytest.param(("--abc=3e-160,2e-160,1e-160", "--grid-l", "7"), id="3e-160-l7"),
    pytest.param(("--abc=1e155,1,0.5", "--grid-l", "1e-300"), id="1e155-l1e-300"),
    pytest.param(("--abc=1e300,0.5e300,1e299", "--grid-l", "3"), id="1e300-l3"),
    pytest.param(("--abc=4e153,1,0.5", "--grid-d", "0.5e153,1e153", "--grid-l", "1,1.5"), id="4e153-two-levels"),
])
def test_period_answers_moments_far_from_unit_scale(capsys, argv):
    # Every route runs at the row's unit-scale point, where 2 l (a - c)(a - b)
    # is in range whatever the moments' scale: all three routes agree to
    # rounding.
    code, out, err = run(capsys, "period", "--format", "json", *argv)
    assert code == 0 and err.startswith("max deviation across ")
    rows = json.loads(out)["rows"]
    assert all(r["dev_quad"] <= 1e-14 and r["dev_ode"] <= 1e-14 for r in rows)


def test_simulate_refuses_a_moment_whose_reciprocal_overflows(capsys):
    # 1/5e-324 is inf: refused by name before the vector field sees it.
    code, out, err = run(capsys, "simulate", "--inertia", "1,5e-324,2.5", "--p0", "1,0,0.2", "--t", "2",
                         "--samples", "5")
    assert (code, out) == (1, "")
    assert err == "error: moment of inertia I2 = 5e-324 has the reciprocal inf, outside the normal float range\n"


@pytest.mark.parametrize("tol", ["10", "1e10"])
def test_simulate_refuses_a_tolerance_of_one_or_more(capsys, tol):
    # Such a tol once printed a nan row, or ended in an unnamed step-size error.
    code, out, err = run(capsys, "simulate", "--inertia", "1,2,3", "--p0", "1,0.5,0.2", "--t", "20",
                         "--samples", "3", "--tol", tol)
    assert (code, out) == (1, "")
    assert err == f"error: tol must be below 1, got {float(tol)!r}\n"


def test_simulate_runs_the_zero_state(capsys):
    code, out, err = run(capsys, "simulate", "--inertia", "1,2,3", "--p0", "0,0,0", "--t", "1", "--samples", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,0,0,0,0", "0.5,0,0,0,0,0", "1,0,0,0,0,0"]


@pytest.mark.parametrize("command", [
    ("period", "--grid-d", "2.5", "--grid-l", "1"),
    ("simulate", "--inertia", "1,2,3", "--p0", "1,0,0.2", "--t", "20", "--samples", "3"),
])
@pytest.mark.parametrize("tol", ["1e-300", "5e-324"])
def test_a_tol_below_the_floor_prints_one_error_line_naming_it(capsys, command, tol):
    # Such a tol once overflowed the error norm of every step, or divided by
    # an absolute tolerance that underflowed to 0, on the exact p2 = 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *command, "--tol", tol)
    assert (code, out) == (1, "")
    assert err == f"error: tol must be at least 1e-100, got {float(tol)!r}\n"


def test_verify_battery(capsys):
    code, out, err = run(capsys, "verify")
    # A passing verify writes nothing to stderr.
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert report["connection_identity"]["status"] == "pass"
    assert report["covariance"]["status"] == "pass"
    assert report["modular_identity"]["status"] == "pass"
    assert report["series_palindromes"]["status"] == "pass"
    assert report["confluence"]["status"] == "pass"


def test_verify_report_is_what_verify_prints(capsys):
    from eulertop.verify import verify_report

    code, out, err = run(capsys, "verify")
    assert code == 0
    # Through JSON, which writes the palindrome check's int order keys as strings.
    assert json.loads(out) == json.loads(json.dumps(verify_report()))


def test_verify_csv_statuses_are_the_report_statuses(capsys):
    from eulertop.verify import CHECKS, verify_report

    code, out, err = run(capsys, "verify", "--format", "csv")
    assert (code, err) == (0, "")
    report = verify_report()
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["check", "value", "status"]
    assert [(name, status) for name, _, status in rows[1:]] == [(name, report[name]["status"]) for name in CHECKS]


def test_verify_fails_below_the_identity_residual(capsys):
    code, out, err = run(capsys, "verify", "--tol", "1e-17")
    assert code == 1
    report = json.loads(out)
    assert (report["status"], report["failures"]) == ("fail", ["connection_identity", "covariance"])
    code, out, err = run(capsys, "verify", "--tol", "1e-17", "--format", "csv")
    assert code == 1
    assert out.splitlines()[1] == "connection_identity,1.1102230246251565e-16,fail"


def test_verify_covariance_is_the_stated_vector_table(monkeypatch):
    from eulertop import verify

    check, _ = verify.CHECKS["covariance"]
    fields, ok = check(1e-12)
    assert ok and fields["max_residual"] < 1e-12
    assert sorted(map(tuple, fields["vectors"].values())) == sorted(
        v for v, orders in verify._COVARIANCE_VECTORS.items() for _ in orders.split()
    )
    # One ordering moved to another vector fails the check.
    table = dict(verify._COVARIANCE_VECTORS)
    table[(1, 1)], table[(-1, -1)] = "cabd cbad", "dbac dabc"
    monkeypatch.setattr(verify, "_COVARIANCE_VECTORS", table)
    assert check(1e-12)[1] is False


def test_monodromy_preset_alpha(capsys):
    code, out, err = run(capsys, "monodromy", "--preset", "alpha1")
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 2], [0, 1]]
    assert payload["residual"] < 1e-6


def test_monodromy_all_generators(capsys):
    code, out, err = run(capsys, "monodromy", "--preset", "all-generators")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] is True
    assert len(payload["generators"]) == 6
    for entry in payload["generators"]:
        assert sorted(entry) == ["computed", "generator", "residual", "stated"]
        assert entry["computed"] == entry["stated"]


def test_monodromy_loop_file(tmp_path, capsys):
    from eulertop.monodromy import preset_loop

    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(preset_loop("a", "d", winding=2).to_json_dict()))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 0
    assert json.loads(out)["matrix"] == [[1, 4], [0, 1]]


@pytest.mark.parametrize("factor", [1e-100, 1e-300])
def test_monodromy_loop_file_at_a_tiny_scale(tmp_path, capsys, factor):
    # The loop is evaluated at a scale of 2 to 4: at 1e-100 the residual
    # used to grow with 1/scale, and at 1e-300 the cross-ratio underflowed.
    from test_monodromy import _scaled_loop_dict

    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(_scaled_loop_dict(factor)))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 2], [0, 1]]
    assert payload["residual"] < 1e-13


def test_monodromy_loop_file_starting_on_its_circle(tmp_path, capsys):
    loop = {"move": "a", "center": 2.5, "radius": 0.25, "winding": 1, "start": 2.75,
            "frozen": {"b": [2.0, -0.001], "c": [1.0, -0.001], "d": 2.5}}
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loop))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, err) == (0, "")
    assert json.loads(out)["matrix"] == [[1, 2], [0, 1]]


def test_monodromy_missing_loop_file(tmp_path, capsys):
    code, out, err = run(capsys, "monodromy", "--loop", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:")


def test_monodromy_loop_file_nested_too_deeply(tmp_path, capsys):
    # Refused like a loop file's other faults: one line naming the file, exit 1.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text("[" * 2000 + "]" * 2000)
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, out) == (1, "")
    assert err == f"error: loop file {loop_file} nests its JSON too deeply\n"


@pytest.mark.parametrize("content, reason", [
    (b'{"move": x}', "Expecting value: line 1 column 10 (char 9)"),
    (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
])
def test_monodromy_names_a_loop_file_that_is_not_json(tmp_path, capsys, content, reason):
    # Invalid JSON, or a file that is not UTF-8: one line naming the file, exit 1.
    loop_file = tmp_path / "loop.json"
    loop_file.write_bytes(content)
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, out, err) == (1, "", f"error: cannot read loop file {loop_file}: {reason}\n")


def test_monodromy_loop_file_missing_key(tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({"center": [2.5, 0], "radius": 0.2, "winding": 1, "frozen": {}}))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'move'" in err


def test_monodromy_loop_file_radius_beyond_the_float_range(tmp_path, capsys):
    # A JSON int too large for a float is refused by name, not a traceback.
    from eulertop.monodromy import preset_loop

    data = preset_loop("a", "d").to_json_dict()
    data["radius"] = 10**400
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: loop key 'radius' must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("preset", ["confluence", "braid"])
def test_monodromy_table_presets(capsys, preset):
    from eulertop.lattice import verify_braid_relations, verify_confluence_product

    expected = {"orderings": verify_confluence_product()} if preset == "confluence" else verify_braid_relations()
    code, out, err = run(capsys, "monodromy", "--preset", preset)
    assert code == 0
    assert json.loads(out) == expected


@pytest.mark.parametrize("preset", ["confluence", "braid"])
def test_monodromy_table_presets_match_the_reference_files(capsys, preset):
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference" / f"{preset}.json"
    code, out, err = run(capsys, "monodromy", "--preset", preset)
    assert code == 0
    assert out == reference.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ("series",),
    ("monodromy", "--preset", "braid"),
    ("verify", "--format", "csv"),
    ("simulate", "--inertia", "1,2,3", "--p0", "1,1,1", "--t", "1", "--samples", "3"),
    ("period", "--grid-d", "2.5"),
])
@pytest.mark.parametrize("target", ["missing-dir/out.txt", "."])
def test_unwritable_out_is_one_error_line(tmp_path, capsys, argv, target):
    # A path in a missing directory, or a directory itself: the error line
    # is all that is written to stderr.
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err.endswith(f"'{path}'\n") and err.count("\n") == 1
    assert err.startswith("error: [Errno ")


def test_monodromy_loop_transport_stall(tmp_path, capsys):
    # A circle of radius 1e-13 around d: the germ transport's step size
    # would collapse, so the loop is refused before the transport, with an
    # error that names how close its cross-ratio path comes, not a traceback.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({
        "move": "a", "center": [2.5, 0], "radius": 1e-13, "winding": 1,
        "frozen": {"b": [2.0, -0.001], "c": [1.0, -0.001], "d": [2.5, 0]}, "start": [3.0, -0.001],
    }))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "passes within 1.33e-13 of a singular point" in err


def _loop_round_b(radius):
    # d circles b at the given radius; at radius 1 it would pass through a,
    # where the cross-ratio reaches 0.
    return {
        "move": "d", "center": [2.0, 0.0], "radius": radius, "winding": 1,
        "frozen": {"a": [3.0, 0.0], "b": [2.0, 0.0], "c": [1.0, -0.001]}, "start": [2.5, 0.0],
    }


def test_monodromy_loop_reaching_a_singular_point_is_refused_first(tmp_path, capsys):
    # The transport would stall after about its whole run; the cross-ratio
    # path is checked before it starts.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(_loop_round_b(0.9999999999999)))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, out) == (1, "")
    assert err.startswith("error: the path passes within ")
    assert err.count("error:") == 1


def test_monodromy_loop_starting_on_the_discriminant_is_refused(tmp_path, capsys):
    # Frozen c and d both at 2.5: the cross-ratio's denominator vanishes at
    # the start, so the loop is refused while it is built.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({
        "move": "a", "center": [2.5, 0.0], "radius": 0.2, "winding": 1,
        "frozen": {"b": [2.0, -0.001], "c": [2.5, 0.0], "d": [2.5, 0.0]}, "start": [3.0, -0.001],
    }))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, out) == (1, "")
    assert err == "error: the loop starts on the discriminant: coordinates c = d\n"


def test_monodromy_loop_near_a_singular_point_runs(tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(_loop_round_b(0.9)))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 0
    assert json.loads(out)["matrix"] == [[3, 2], [-2, -1]]


def test_monodromy_flag_conflicts(capsys):
    code, out, err = run(capsys, "monodromy", "--preset", "alpha1", "--loop", "x.json")
    assert code == 2
    code, out, err = run(capsys, "monodromy")
    assert code == 2


@pytest.mark.parametrize("preset", ["alpha9", "h12"])
def test_monodromy_unknown_preset_is_a_usage_error(tmp_path, capsys, preset):
    # A generator label such as h12 is a loop of all-generators, not a preset.
    with pytest.raises(SystemExit) as exc:
        main(["monodromy", "--preset", preset])
    assert exc.value.code == 2
    assert f"argument --preset: invalid choice: '{preset}'" in capsys.readouterr().err
    # A config file's value is refused by the same choices.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"preset": preset}))
    code, out, err = run(capsys, "monodromy", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: config value for 'preset' must be one of") and repr(preset) in err


def test_monodromy_preset_choices_are_the_alpha_presets_and_the_tables():
    from eulertop.lattice import GENERATOR_LABELS, PRESETS

    alphas = sorted(label for label in PRESETS if label not in GENERATOR_LABELS)
    assert cli._MONODROMY_PRESETS == (*alphas, "all-generators", "confluence", "braid")


@pytest.mark.parametrize("start", [[5.0, 0.0], [0.5, 0.0]])
def test_monodromy_loop_starting_far_from_both_series_discs(tmp_path, capsys, start):
    # d circles c from a start whose cross-ratio lies outside |mu| < 1 (at
    # 0.5) or |1 - mu| < 1 (at 5.0): the frame is seeded from F and F' there.
    loop = {
        "move": "d", "center": [1.0, -0.001], "radius": 0.2, "winding": 1, "start": start,
        "frozen": {"a": [3.0, -0.001], "b": [2.0, -0.001], "c": [1.0, -0.001]},
    }
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(loop))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 0], [-2, 1]]
    assert payload["residual"] < 1e-12


def test_series_exact_output(capsys):
    code, out, err = run(capsys, "series", "--n", "3", "--s", "1/3", "--z", "0.05")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"][2] == ["9/4", "3/2", "9/4"]
    assert payload["pn_at_s"] == ["1", "4/3", "3", "220/27"]
    assert payload["value_at_z"] == pytest.approx(1.0751851851851852, rel=1e-15)


def test_series_z_needs_s(capsys):
    code, out, err = run(capsys, "series", "--n", "3", "--z", "0.05")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--s" in err


def test_series_order_budget(capsys):
    code, out, err = run(capsys, "series", "--n", "40")
    assert code == 1
    assert "order" in err


@pytest.mark.parametrize("argv,message", [
    (("--s", "1e200", "--z=0.1"), "error: P_2(s) at s = 1e+200 is not a finite float; give s as p/q for exact values\n"),
    (("--s", "0.5", "--z", "1e300"), "error: z = 1e+300 is outside the disc |z| < Z* = 0.25 of the series at s = 0.5\n"),
    (("--s", "3/7", "--z", "0.5"), "error: z = 0.5 is outside the disc |z| < Z* = 0.25 of the series at s = 3/7\n"),
], ids=["huge-float-s", "huge-z", "z-past-the-radius"])
def test_series_refuses_values_it_cannot_give(capsys, argv, message):
    # Each used to print NaN, "inf" or a sum far past the radius of convergence.
    assert run(capsys, "series", "--n", "32", *argv) == (1, "", message)


def test_series_sums_a_huge_rational_shape_inside_its_disc(capsys):
    # P_32(10**20) is about 1e660: summed unscaled it overflowed the float
    # range, though the whole sum is about 1 + 1e-10.
    code, out, err = run(capsys, "series", "--n", "32", "--s", "100000000000000000000/1", "--z", "1e-30")
    assert (code, err) == (0, "")
    assert json.loads(out)["value_at_z"] == 1.0000000001


def test_json_output_refuses_nan():
    with pytest.raises(ValueError):
        cli._json_dump({"x": float("nan")})


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"period": {"grid_d": "2.5"}, "tol": 1e-6}))
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-l", "1", "--config", str(cfg),
    )
    assert code == 0
    assert BASE_ANCHOR in out

    # explicit flags beat the config file
    code, out, err = run(
        capsys, "period", "--abc", "3,2,1", "--grid-l", "1", "--grid-d", "2.1",
        "--config", str(cfg),
    )
    assert code == 0
    assert float(out.splitlines()[1].split(",")[3]) == pytest.approx(2.1)


@pytest.mark.parametrize("content,message", [
    ({"tol ": 1e-30}, "'tol '"),
    ({"period": {"grid_d": "2.5", "gridd": "2.1"}}, "'gridd'"),
    ({"period": "2.5"}, "'period'"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code, out, err = run(capsys, "period", "--grid-d", "2.5", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_config_file_nested_too_deeply(tmp_path, capsys):
    # JSON nested deeper than the parser recurses is refused in one line
    # that names the file, not with a RecursionError traceback.
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 2000 + "]" * 2000)
    code, out, err = run(capsys, "period", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: config file {cfg} nests its JSON too deeply\n"


def test_config_missing_or_malformed_file(tmp_path, capsys):
    code, out, err = run(capsys, "series", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error:") and "absent.json" in err

    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": ')
    code, out, err = run(capsys, "series", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error:") and "cfg.json" in err


@pytest.mark.parametrize("content,message", [
    ({"tol": "abc"}, "'tol'"),
    ({"verify": {"tol": None}}, "'tol'"),
    ({"samples": 1.5}, "'samples'"),
    ({"verify": {"format": "xml"}}, "'format'"),
])
def test_config_values_are_type_checked(tmp_path, capsys, content, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_config_values_convert_like_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"series": {"n": "3", "z": "0.05"}, "s": "1/3"}))
    assert run(capsys, "series", "--config", str(cfg)) == run(
        capsys, "series", "--n", "3", "--s", "1/3", "--z", "0.05"
    )


@pytest.mark.parametrize("flag,value,rest", [
    ("--p0", "-0.7,0.1,0.3", ("simulate", "--inertia", "1,2,3", "--t", "2", "--samples", "5")),
    ("--grid-d", "-2.5,2.5", ("period", "--abc", "3,2,1")),
    ("--s", "-1/3", ("series", "--n", "4", "--z", "0.05")),
])
def test_separated_negative_value_reads_like_attached(capsys, flag, value, rest):
    # "--p0 -0.7,0.1,0.3" and "--p0=-0.7,0.1,0.3" print the same bytes.
    separated = run(capsys, *rest, flag, value)
    attached = run(capsys, *rest, f"{flag}={value}")
    assert separated == attached
    assert "expected one argument" not in separated[2]


def test_no_command_loads_scipy():
    # The package integrates with its own stepper: no command, not even
    # period or simulate, pays for importing scipy, nor for
    # concurrent.futures.
    script = (
        "import sys\n"
        "import eulertop.cli as cli\n"
        "for argv in (['monodromy', '--preset', 'alpha1'], ['verify'], ['series', '--n', '8'],\n"
        "             ['period', '--grid-d', '2.3,2.7', '--grid-l', '1'],\n"
        "             ['simulate', '--inertia', '1,2,3', '--p0', '1,0.5,0.2', '--t', '2', '--samples', '5']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'concurrent.futures']\n"
        "print(loaded, file=sys.stderr)\n"
        "sys.exit(1 if loaded else 0)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_light_commands_do_not_load_dataclasses_inspect_or_fractions(tmp_path):
    # The records need no dataclasses, and with them no inspect; only the
    # exact series reads Fractions.  Neither --version nor any monodromy
    # command may pay for those imports, nor may verify or series pay for
    # the first two.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(_loop_round_b(0.9)))
    script = (
        "import sys\n"
        "import eulertop.cli as cli\n"
        "def loaded(names):\n"
        "    return [m for m in names if m in sys.modules]\n"
        "try:\n"
        "    cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert not loaded(('dataclasses', 'inspect', 'fractions')), '--version'\n"
        f"for argv in [['monodromy', '--preset', p] for p in {cli._MONODROMY_PRESETS!r}] + [\n"
        f"        ['monodromy', '--loop', {str(loop_file)!r}]]:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert not loaded(('dataclasses', 'inspect', 'fractions')), argv\n"
        "for argv in (['verify'], ['series', '--n', '32', '--s', '1/3', '--z', '0.05']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert not loaded(('dataclasses', 'inspect')), argv\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_version_and_series_do_not_load_numpy(tmp_path):
    # The exact series needs only Fractions: neither it nor --version may
    # pay for importing numpy, nor may checking a config file's flat
    # "samples" key, which series does not read.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"samples": 10}))
    script = (
        "import sys\n"
        "import eulertop.cli as cli\n"
        "try:\n"
        "    cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert cli.main(['series', '--n', '32', '--s', '1/3', '--z', '0.05']) == 0\n"
        f"assert cli.main(['series', '--n', '2', '--config', {str(config)!r}]) == 0\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_light_commands_do_not_load_numpy(tmp_path):
    # verify and every monodromy command are scalar and integer work;
    # neither they nor the layers they import may pay for numpy.  Nor may
    # period and simulate, whose orbits are stepped in Python floats: the
    # default grid, a 64-row grid like the benchmark's, a 90-row grid, and
    # a sampled orbit.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(_loop_round_b(0.9)))
    grid_64 = ["--grid-d", _csv(*(2.0 + 10.0 ** (-4.0 + 0.2 * k) for k in range(16))), "--grid-l", "0.01,0.3,7,100"]
    grid_90 = ["--grid-d", ",".join(str(2.0 + 0.5 * (k + 1) / 90) for k in range(90))]
    script = (
        "import contextlib, io, sys\n"
        "import eulertop.special, eulertop.periods, eulertop.lattice, eulertop.monodromy, eulertop.verify\n"
        "import eulertop.dynamics\n"
        "assert 'numpy' not in sys.modules, 'importing the layers loaded numpy'\n"
        "import eulertop.cli as cli\n"
        "for argv in (['verify'], ['monodromy', '--preset', 'braid'], ['monodromy', '--preset', 'confluence'],\n"
        "             ['monodromy', '--preset', 'alpha1'], ['monodromy', '--preset', 'all-generators'],\n"
        f"             ['monodromy', '--loop', {str(loop_file)!r}],\n"
        f"             ['period'], ['period', '--format', 'json', *{grid_64!r}], ['period', *{grid_90!r}],\n"
        "             ['simulate', '--inertia', '1,2,3', '--p0', '1,0.5,0.2', '--t', '2', '--samples', '5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,flag,value,key", [
    ("series", "--s", "abc", "s"),
    ("series", "--s", "1/0", "s"),
    ("period", "--grid-l", "abc", "grid_l"),
    ("period", "--grid-d", "2.5,x", "grid_d"),
])
def test_bad_option_values_are_usage_errors(tmp_path, capsys, command, flag, value, key):
    # A bad value exits 2 with an error naming the flag, not with a traceback ...
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err

    # ... and the same value from a config file exits 2 naming the key.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: {key: value}}))
    code, out, err = run(capsys, command, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(key) in err



SIMULATE_ARGS = ("--inertia", "1,2,3", "--p0", "0.1,2.0,0.1", "--t", "1")


@pytest.mark.parametrize("command,flag,value,key", [
    ("period", "--tol", "nan", "tol"),
    ("period", "--tol", "-1", "tol"),
    ("simulate", "--tol", "nan", "tol"),
    ("verify", "--tol", "inf", "tol"),
    ("simulate", "--t", "nan", "t"),
    ("simulate", "--t", "inf", "t"),
    ("simulate", "--p0", "nan,0.5,0.2", "p0"),
    ("series", "--s", "inf", "s"),
    ("series", "--z", "nan", "z"),
    ("simulate", "--samples", "0", "samples"),
    ("simulate", "--samples", "-1", "samples"),
    ("simulate", "--samples", "100002", "samples"),
])
def test_out_of_range_values_are_usage_errors(tmp_path, capsys, command, flag, value, key):
    # Non-finite numbers, a tolerance or time that is not positive, and a
    # sample count outside 2..100001 exit 2 naming the flag, before any work ...
    rest = SIMULATE_ARGS if command == "simulate" else ()
    with pytest.raises(SystemExit) as exc:
        main([command, *rest, f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err

    # ... and so does the same value from a config file, naming the key.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({command: {key: value}}))
    code, out, err = run(capsys, command, *rest, "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and repr(key) in err

@pytest.mark.parametrize("command,flag,value", [
    ("simulate", "--format", "csv"),
    ("simulate", "--jobs", "2"),
    ("verify", "--jobs", "2"),
    ("period", "--jobs", "2"),
    ("monodromy", "--tol", "1e-3"),
    ("monodromy", "--format", "json"),
    ("monodromy", "--jobs", "2"),
    ("series", "--tol", "1e-3"),
    ("series", "--format", "json"),
    ("series", "--jobs", "2"),
])
def test_commands_reject_flags_they_do_not_read(capsys, command, flag, value):
    rest = {
        "simulate": ("--inertia", "1,2,3", "--p0", "0.1,2.0,0.1", "--t", "1"),
        "monodromy": ("--preset", "alpha1"),
    }.get(command, ())
    with pytest.raises(SystemExit) as exc:
        main([command, *rest, flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_section_rejects_flags_its_command_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"monodromy": {"tol": 1e-3}}))
    code, out, err = run(capsys, "monodromy", "--preset", "alpha1", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "'tol'" in err


# ----------------------------------------------------------------------
# Hostile input: argv built from extreme values gives a result or one error.

_EXTREMES = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, 0.5, 1.0, 2.0, 3.0)
_extreme = st.sampled_from(_EXTREMES)


def _csv(*values) -> str:
    return ",".join(repr(float(x)) for x in values)


# Three numbers from the extremes, or three moments two of which are a few
# float spacings, or a relative 1e-12, apart.
_triples = st.tuples(_extreme, _extreme, _extreme) | st.builds(
    lambda x, gap, far: (x, x * (1.0 + gap), x * far),
    st.sampled_from((1e-300, 1.0, 1e300)),
    st.sampled_from((2.3e-16, 4.5e-16, 1e-12)),
    st.sampled_from((0.5, 2.0)),
)

_simulate = st.builds(
    lambda inertia, p0, t: ["simulate", f"--inertia={_csv(*inertia)}", f"--p0={_csv(*p0)}", f"--t={t!r}",
                            "--samples=5"],
    _triples, st.tuples(_extreme, _extreme, _extreme), _extreme,
)


@st.composite
def _period(draw):
    abc = draw(_triples)
    argv = ["period", f"--abc={_csv(*abc)}", f"--axis={draw(st.sampled_from(('p1', 'p3')))}"]
    grid_d = draw(st.sampled_from(("default", "extreme", "at b")))
    if grid_d == "extreme":
        argv.append(f"--grid-d={_csv(draw(_extreme))}")
    elif grid_d == "at b":
        argv.append(f"--grid-d={_csv(abc[1] + draw(st.floats(-1e-10, 1e-10)))}")
    return argv + [f"--grid-l={_csv(draw(_extreme))}", f"--format={draw(st.sampled_from(('csv', 'json')))}"]


@st.composite
def _loop(draw):
    # The mover a circles a frozen coordinate or a free point, starting on
    # its circle, off it, or at the default start two radii out.
    center = draw(st.sampled_from((2.5, 2 - 1e-3j, 3 - 1e-3j, 2.25 - 1e-3j)))
    radius = 10.0 ** draw(st.floats(-300.0, math.log10(3.0)))
    loop = {"move": "a", "center": [center.real, center.imag], "radius": radius, "winding": 1,
            "frozen": {"b": [2.0, -1e-3], "c": [1.0, -1e-3], "d": [2.5, 0.0]}}
    where = draw(st.sampled_from(("on", "off", "default")))
    if where != "default":
        factor = 1.0 if where == "on" else draw(st.floats(0.0, 4.0))
        start = center + factor * radius * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
        loop["start"] = [start.real, start.imag]
    return loop


@settings(PROPERTY, max_examples=60)
@given(case=st.one_of(_simulate, _period(), _loop()))
@example(case=["simulate", "--inertia=1,5e-324,2.5", "--p0=1,0,0.2", "--t=2", "--samples=5"])
@example(case=["period", "--abc=1.7e308,1,0.5"])
@example(case={"move": "a", "center": 2.5, "radius": 0.25, "winding": 1, "start": 2.75,
               "frozen": {"b": [2.0, -1e-3], "c": [1.0, -1e-3], "d": 2.5}})
@example(case={"move": "a", "center": [3.0, -1e-3], "radius": 1e-17, "winding": 1,
               "frozen": {"b": [2.0, -1e-3], "c": [1.0, -1e-3], "d": 2.5}})
def test_hostile_input_gives_a_result_or_one_error_line(tmp_path_factory, case):
    # A RuntimeWarning is an error under pytest's settings, so a numpy
    # warning fails here as a traceback would.
    argv = case
    if isinstance(case, dict):
        loop_file = tmp_path_factory.mktemp("loop") / "loop.json"
        loop_file.write_text(json.dumps(case))
        argv = ["monodromy", "--loop", str(loop_file)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse usage error
            code = exc.code
    errors = [line for line in err.getvalue().splitlines() if "error:" in line]
    if code == 0:
        assert out.getvalue() and errors == [], (argv, err.getvalue())
    else:
        assert code in (1, 2) and len(errors) == 1, (argv, code, err.getvalue())
