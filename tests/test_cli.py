"""Command-line interface: subcommands, formats, config, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from eulertop import cli
from eulertop.cli import main

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


def test_period_grid_is_bounded(capsys):
    # 65 x 64 rows is over the cap: refused before any row is computed.
    grid_d = ",".join(str(2.1 + 0.01 * k) for k in range(65))
    grid_l = ",".join(str(1.0 + k) for k in range(64))
    code, out, err = run(capsys, "period", "--grid-d", grid_d, "--grid-l", grid_l)
    assert code == 2
    assert out == ""
    assert "--grid-d" in err and "--grid-l" in err and str(cli.MAX_GRID_ROWS) in err


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


def test_period_casimir_level_extremes(capsys):
    code, out, err = run(
        capsys, "period", "--grid-d", "2.5", "--grid-l", "1e-300,1e-100,1e100,1e300", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 4
    assert report["max_deviation"] < 1e-12


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
    (("period", "--abc", "1e155,1,0.5", "--grid-d", "5e154"), "a > b > c = 1e+155, 1.0, 0.5"),
    (("simulate", "--inertia", "1e-300,1,2", "--p0", "1,1,1", "--t", "1e-300", "--samples", "3"),
     "a > b > c = 9.999999999999999e+299, 1.0, 0.5"),
])
def test_extreme_moments_print_one_error_line_naming_them(capsys, argv, moments):
    # 2 L (a - c)(a - b) overflows: once a complex-power OverflowError in the
    # closed form, once a numpy warning and "(0 time units)".
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: reciprocal moments {moments} at Casimir L = ")
    assert "outside the normal float range" in err and err.count("\n") == 1


def test_simulate_runs_the_zero_state(capsys):
    code, out, err = run(capsys, "simulate", "--inertia", "1,2,3", "--p0", "0,0,0", "--t", "1", "--samples", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,0,0,0,0", "0.5,0,0,0,0,0", "1,0,0,0,0,0"]


def test_period_solver_failure_prints_only_its_error_line(capsys):
    # At tol 1e-300 every step overflows the error norm; the stepper fails
    # on a too-small step without a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "period", "--grid-d", "2.5", "--grid-l", "1", "--tol", "1e-300")
    assert (code, out) == (1, "")
    assert err == "error: integration failed: Required step size is less than spacing between numbers.\n"


def test_verify_battery(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert report["failures"] == []
    assert report["connection_identity"]["status"] == "pass"
    assert report["covariance"]["status"] == "pass"
    assert report["modular_identity"]["status"] == "pass"
    assert report["series_palindromes"]["status"] == "pass"
    assert report["confluence"]["status"] == "pass"


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
    assert payload["all_match"]
    assert len(payload["generators"]) == 6


def test_monodromy_loop_file(tmp_path, capsys):
    from eulertop.monodromy import preset_loop

    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps(preset_loop("a", "d", winding=2).to_json_dict()))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 0
    assert json.loads(out)["matrix"] == [[1, 4], [0, 1]]


def test_monodromy_missing_loop_file(tmp_path, capsys):
    code, out, err = run(capsys, "monodromy", "--loop", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error:")


def test_monodromy_loop_file_missing_key(tmp_path, capsys):
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({"center": [2.5, 0], "radius": 0.2, "winding": 1, "frozen": {}}))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "'move'" in err


@pytest.mark.parametrize("preset", ["confluence", "braid"])
def test_monodromy_table_presets(capsys, preset):
    from eulertop.monodromy import verify_braid_relations, verify_confluence_product

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
    # A path in a missing directory, or a directory itself; verify's
    # branch-flag warnings come before the error line.
    path = tmp_path / target
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (1, "")
    assert err.endswith(f"'{path}'\n") and err.count("error:") == 1
    assert err.splitlines()[-1].startswith("error: [Errno ")


def test_monodromy_loop_transport_stall(tmp_path, capsys):
    # A circle of radius 1e-13 around d: the germ transport's step size
    # collapses, which the command reports as an error, not a traceback.
    loop_file = tmp_path / "loop.json"
    loop_file.write_text(json.dumps({
        "move": "a", "center": [2.5, 0], "radius": 1e-13, "winding": 1,
        "frozen": {"b": [2.0, -0.001], "c": [1.0, -0.001], "d": [2.5, 0]}, "start": [3.0, -0.001],
    }))
    code, out, err = run(capsys, "monodromy", "--loop", str(loop_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "step size collapsed" in err


def test_monodromy_flag_conflicts(capsys):
    code, out, err = run(capsys, "monodromy", "--preset", "alpha1", "--loop", "x.json")
    assert code == 2
    code, out, err = run(capsys, "monodromy")
    assert code == 2
    code, out, err = run(capsys, "monodromy", "--preset", "alpha9")
    assert code == 2


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


def test_version_and_series_do_not_load_numpy():
    # The exact series needs only Fractions: neither it nor --version may
    # pay for importing numpy.
    script = (
        "import sys\n"
        "import eulertop.cli as cli\n"
        "try:\n"
        "    cli.main(['--version'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "assert cli.main(['series', '--n', '32', '--s', '1/3', '--z', '0.05']) == 0\n"
        "sys.exit('numpy' in sys.modules)\n"
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
