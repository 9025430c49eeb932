"""Self-tests of the benchmark's generators, output checks and span analysis.

    python -m pytest bench/test_bench.py

The checks are tested on real program output, captured as the tests run
and then corrupted here; the program itself is never modified.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent


def capture(*argv: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "eulertop.cli", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return done.stdout, done.stderr


def first(workload: str, kind: str, tmp_path: Path) -> workloads.Command:
    return next(c for c in workloads.generate(workload, 7, tmp_path) if c.kind == kind)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    one, two, other = tmp_path / "one", tmp_path / "two", tmp_path / "other"
    for d in (one, two, other):
        d.mkdir()

    def inputs(d: Path, seed: int):
        cmds = workloads.generate(workload, seed, d)
        argv = [[a.replace(str(d), "") for a in c.argv] for c in cmds]
        files = {p.name: p.read_text() for p in sorted(d.iterdir())}
        return argv, files

    assert inputs(one, 3) == inputs(two, 3)
    assert inputs(one, 3) != inputs(other, 4)


def test_loop_files_carry_no_chamber(tmp_path):
    workloads.generate("monodromy-loops", 3, tmp_path)
    for path in tmp_path.glob("loop*.json"):
        assert set(json.loads(path.read_text())) == {"move", "center", "radius", "winding", "frozen", "start"}


def test_pair_table_matches_stated_generators():
    # Engine frame (S3, S1) is the stated frame (S1, S3) with rows and
    # columns swapped; orientation may invert the matrix.
    for label, stated in checks.STATED_GENERATORS.items():
        i, j = int(label[1]) - 1, int(label[2]) - 1
        pair = frozenset("abcd"[i] + "abcd"[j])
        (p, q), (r, s) = stated
        swapped = ((s, r), (q, p))
        assert checks.PAIR_MATRICES[pair] in (swapped, checks.mat_inv(swapped))


def test_series_reference_low_orders():
    ref = checks.series_reference(2)
    assert [list(map(str, p)) for p in ref] == [["1"], ["1", "1"], ["9/4", "3/2", "9/4"]]


def assert_rejects(cmd, out, err=""):
    assert checks.check(cmd, 0, out, err).ok is False


def test_period_check(tmp_path):
    cmd = first("period-grid", "period", tmp_path)
    out, err = capture(*cmd.argv)
    outcome = checks.check(cmd, 0, out, err)
    assert outcome.ok, outcome.reason
    assert set(outcome.errors) == {"quad", "ode", "closed"}
    for key in ("S_closed", "S_quadrature"):
        data = json.loads(out)
        data["rows"][5][key] *= 1.0 + 1e-6
        assert_rejects(cmd, json.dumps(data))
    data = json.loads(out)
    data["rows"].pop()
    assert_rejects(cmd, json.dumps(data))
    assert checks.check(cmd, 1, out, err).ok is False


def test_all_generators_check(tmp_path):
    cmd = first("monodromy-loops", "all_generators", tmp_path)
    out, err = capture(*cmd.argv)
    assert checks.check(cmd, 0, out, err).ok
    data = json.loads(out)
    data["generators"][2]["computed"][0][0] += 1
    assert_rejects(cmd, json.dumps(data))


def test_loop_check(tmp_path):
    cmd = workloads.Command("loop", ("monodromy", "--loop", str(tmp_path / "loop.json")),
                            {"move": "d", "center": "c", "winding": 2})
    (tmp_path / "loop.json").write_text(json.dumps(workloads.loop_dict("d", "c", 0.25, 2)))
    out, err = capture(*cmd.argv)
    assert checks.check(cmd, 0, out, err).ok
    data = json.loads(out)
    data["matrix"][1][0] += 1
    assert_rejects(cmd, json.dumps(data))
    once = copy.deepcopy(cmd.expect)
    once["winding"] = 1
    assert_rejects(workloads.Command("loop", cmd.argv, once), out)


def test_series_check(tmp_path):
    cmd = first("short-commands", "series", tmp_path)
    out, err = capture(*cmd.argv)
    assert checks.check(cmd, 0, out, err).ok
    data = json.loads(out)
    data["coeffs"][20][3] = str(checks.Fraction(data["coeffs"][20][3]) + 1)
    assert_rejects(cmd, json.dumps(data))
    data = json.loads(out)
    data["pn_at_s"][7] = "0"
    assert_rejects(cmd, json.dumps(data))


def test_simulate_check(tmp_path):
    cmd = first("short-commands", "simulate", tmp_path)
    out, err = capture(*cmd.argv)
    outcome = checks.check(cmd, 0, out, err)
    assert outcome.ok and 0.0 < outcome.errors["drift"] < 1e-6
    assert_rejects(cmd, out[: out.rstrip("\n").rfind("\n") + 1], err)


@pytest.mark.parametrize("kind, key", [("confluence", "orderings"), ("braid", "R1"), ("verify", "status")])
def test_table_presets_and_verify(kind, key, tmp_path):
    cmd = first("short-commands", kind, tmp_path)
    out, err = capture(*cmd.argv)
    assert checks.check(cmd, 0, out, err).ok
    data = json.loads(out)
    data[key] = "fail"
    assert_rejects(cmd, json.dumps(data))


def test_layer_self_times_sum_to_wall():
    child = {"spans": [
        (1, 0, "cli.import", "cli", 0.1, 0.5),
        (3, 2, "special.elliptic_K", "special", 0.6, 0.7),
        (2, 0, "periods.phi_prime", "periods", 0.55, 0.9),
        (5, 4, "special._transport_germs", "special", 1.0, 1.4),
        (4, 0, "monodromy.loop_monodromy", "monodromy", 0.95, 1.5),
    ], "counters": {"dynamics.rhs_evals": 7}}
    metrics, functions, spans = run.analyse([(1, "x", 0.0, 2.0, child)])
    layers = ["cli.self_s", "cli.import_traced_s"] + [f"{layer}.self_s" for layer in run.LAYERS[1:]]
    assert sum(metrics[k] for k in layers) == pytest.approx(metrics["trace.wall_s"]) == 2.0
    assert metrics["cli.import_traced_s"] == pytest.approx(0.4)
    assert metrics["periods.self_s"] == pytest.approx(0.25)
    assert metrics["monodromy.loops"] == 1
    assert metrics["dynamics.rhs_evals"] == 7
    assert functions["special.elliptic_K"]["calls"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb", "ok_frac", *run.DIGITS}
    per_pass, _, _ = run.analyse([])
    extra = {"cli.import_s", "cli.import_scipy_s", "trace.untraced_wall_s", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == set(per_pass) | extra
