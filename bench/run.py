"""The eulertop benchmark: whole CLI commands, timed as users run them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every command is a fresh
``python -m eulertop.cli ...`` process with ``src`` on the path, run one at
a time, so start-up and imports are paid as a user pays them.  A run
repeats passes over the workload's seeded commands for about S seconds,
checks every output, and prints one JSON object as its last line:

- ``--trace 0``: the end-to-end metrics (medians over passes);
- ``--trace 1``: per-layer metrics from passes whose commands run under
  ``bench/trace_cli.py``, each just after the same command untraced, which
  gives the tracing overhead.  All spans are also written to ``bench/out/``.

The exit code is 0 only if every command passed its checks.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
import trace_cli
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_REPS = 7
IMPORTTIME_REPS = 3
RUN_LIMIT_S = 170.0  # hard stop for one run, below the 180 s contract
COMMAND_LIMIT_S = 60.0
LAYERS = ("cli", "core", "special", "periods", "dynamics", "monodromy")

# Digits metric -> the accuracy key checks.py reports for it.
DIGITS = {
    "quad_digits": "quad",
    "ode_digits": "ode",
    "closed_digits": "closed",
    "monodromy_digits": "monodromy",
    "verify_digits": "verify",
    "drift_digits": "drift",
}

# Functions named in per-layer metrics; anything else is in the trace file.
NAMED_FUNCTIONS = (
    "special.elliptic_K",
    "periods.quadrature_sigma_integral",
    "periods.birkhoff_series",
    "dynamics.orbit_period",
    "dynamics.integrate_orbit",
)


@dataclass
class Finished:
    rc: int
    out: str
    err: str
    t0: float
    t1: float
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class Runner:
    """Launches commands one at a time, checks them and keeps the tallies."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src") + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: dict[str, float] = {}
        self.local_imports = json.dumps(trace_cli.local_imports(ROOT / "src" / "eulertop"))

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def launch(self, argv: list[str]) -> Finished:
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        limit = max(1.0, min(COMMAND_LIMIT_S, self.time_left()))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(limit, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            t0, t1, usage.ru_maxrss / 1024.0,
        )

    def _tally(self, label: str, outcome: checks.Outcome) -> None:
        self.attempted += 1
        if not outcome.ok:
            self.failures.append(f"{label}: {outcome.reason}")
        for key, value in outcome.errors.items():
            if not value <= self.errors.get(key, 0.0):
                self.errors[key] = value

    def version(self) -> Finished:
        done = self.launch([sys.executable, "-m", "eulertop.cli", "--version"])
        ok = done.rc == 0 and done.out.startswith("eulertop ")
        self._tally("--version", checks.Outcome(ok, f"exit {done.rc}: {done.out!r} {done.err[-300:]!r}"))
        return done

    def command(self, cmd: workloads.Command, spans_file: Path | None = None, command_id: int = 0) -> Finished:
        if spans_file is None:
            prefix = [sys.executable, "-m", "eulertop.cli"]
        else:
            prefix = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_file), str(command_id), self.local_imports]
        done = self.launch(prefix + list(cmd.argv))
        self._tally(" ".join(cmd.argv)[:120], checks.check(cmd, done.rc, done.out, done.err))
        return done


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def importtime(runner: Runner) -> tuple[float, float]:
    """Total import time and scipy.integrate's share, from ``-X importtime``."""
    done = runner.launch([sys.executable, "-X", "importtime", "-m", "eulertop.cli", "--version"])
    total_us = scipy_us = 0
    for line in done.err.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not name[1:].startswith(" "):  # a top-level import
            total_us += int(cumulative)
        if name.strip() == "scipy.integrate":
            scipy_us = int(cumulative)
    return total_us / 1e6, scipy_us / 1e6


def run_pass(runner: Runner, cmds) -> list[Finished]:
    """One untraced pass over the commands."""
    return [runner.command(cmd) for cmd in cmds]


def run_traced_pass(runner: Runner, cmds, trace_dir: Path, first_id: int):
    """Each command untraced, then traced; returns both sides.

    Running the two back to back, command by command, keeps the machine's
    slow drifts in speed out of the tracing overhead.
    """
    plain, traced = [], []
    for i, cmd in enumerate(cmds):
        plain.append(runner.command(cmd))
        spans_file = trace_dir / f"spans{first_id + i}.json"
        done = runner.command(cmd, spans_file, first_id + i)
        child = json.loads(spans_file.read_text()) if spans_file.exists() else {}
        traced.append((first_id + i, " ".join(cmd.argv), done.t0, done.t1, child))
    return plain, traced


class PassTimes:
    """Per-command samples over repeated passes.

    A pass's wall time is reported as the sum over its commands of each
    command's median, which discards a slow command in one pass without
    discarding the rest of that pass.
    """

    def __init__(self, n: int) -> None:
        self.walls: list[list[float]] = [[] for _ in range(n)]
        self.rss: list[list[float]] = [[] for _ in range(n)]
        self.passes: list[float] = []

    def add(self, finished: list[Finished]) -> None:
        for i, done in enumerate(finished):
            self.walls[i].append(done.wall)
            self.rss[i].append(done.rss_mb)
        self.passes.append(sum(done.wall for done in finished))

    def wall(self) -> float:
        return sum(median(w) for w in self.walls)

    def peak_rss(self) -> float:
        return max(median(r) for r in self.rss)

    def describe(self) -> str:
        return f"{len(self.passes)} passes; pass wall_s: {', '.join(f'{w:.4f}' for w in self.passes)}"


def analyse(traced) -> tuple[dict, dict, list]:
    """Per-layer metrics of one traced pass, per-function table, and the
    pass's commands with their spans.

    Each command's process span (measured here) is the root; a span's self
    time is its duration minus its child spans, so the layers' self times
    add up to the pass's traced wall time.
    """
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = Counter()
    fn_calls, fn_self, counters = Counter(), Counter(), Counter()
    import_s, loops, n_spans, commands = 0.0, 0, 0, []
    for cmd_id, argv, t0, t1, child in traced:
        spans = [(0, None, "cli.process", "cli", t0, t1)] + [tuple(s) for s in child.get("spans", [])]
        covered, parent_of, layer_of = defaultdict(float), {}, {}
        for sid, parent, name, layer, a, b in spans:
            parent_of[sid], layer_of[sid] = parent, layer
            if parent is not None:
                covered[parent] += b - a
        outermost_monodromy, records = set(), []
        commands.append({"command": cmd_id, "argv": argv, "spans": records})
        for sid, parent, name, layer, a, b in spans:
            exclusive = (b - a) - covered[sid]
            layer_self[layer] = layer_self.get(layer, 0.0) + exclusive
            records.append({"id": sid, "parent": parent, "name": name, "layer": layer,
                            "t0": a, "t1": b, "self": exclusive})
            if sid == 0:
                continue
            if name == "cli.import":
                import_s += exclusive
                continue
            n_spans += 1
            layer_calls[layer] += 1
            fn_calls[name] += 1
            fn_self[name] += exclusive
            if layer == "special":
                # A loop is an outermost monodromy call that transports
                # germs through special.
                found, up = None, parent
                while up is not None:
                    if layer_of[up] == "monodromy":
                        found = up
                    up = parent_of[up]
                if found is not None:
                    outermost_monodromy.add(found)
        loops += len(outermost_monodromy)
        counters.update(child.get("counters", {}))
    metrics = {
        "cli.self_s": layer_self["cli"] - import_s,
        "cli.import_traced_s": import_s,
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.self_s"] = layer_self[layer]
        metrics[f"{layer}.calls"] = layer_calls[layer]
    for name in NAMED_FUNCTIONS:
        metrics[f"{name}.calls"] = fn_calls[name]
        metrics[f"{name}.self_s"] = fn_self[name]
    metrics["periods.tanh_sinh.nodes"] = counters["periods.tanh_sinh.nodes"]
    metrics["dynamics.rhs_evals"] = counters["dynamics.rhs_evals"]
    metrics["monodromy.loops"] = loops
    metrics["trace.wall_s"] = sum(t1 - t0 for _, _, t0, t1, _ in traced)
    metrics["trace.spans"] = n_spans
    functions = {name: {"calls": fn_calls[name], "self_s": fn_self[name]} for name in sorted(fn_calls)}
    functions.update({key: {"count": value} for key, value in sorted(counters.items())})
    return metrics, functions, commands


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "invocation": "python -m eulertop.cli, src on PYTHONPATH, one command at a time, default --jobs",
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, cmds, seconds: float, begun: float) -> dict:
    times = PassTimes(len(cmds))
    while not times.passes or (time.perf_counter() - begun + median(times.passes) <= seconds
                               and runner.time_left() > 2 * max(times.passes)):
        times.add(run_pass(runner, cmds))
    print(f"untraced: {times.describe()}")
    return {"wall_s": metric(times.wall(), "s"), "peak_rss_mb": metric(times.peak_rss(), "MB")}


def measure_traced(runner: Runner, cmds, seconds: float, begun: float, report: Path) -> dict:
    """Per-layer metrics: means over traced passes, so the layers' self
    times add up to ``trace.wall_s``.  The same commands run untraced are
    the base of ``trace.overhead_frac``."""
    imports = [importtime(runner) for _ in range(IMPORTTIME_REPS)]
    trace_dir = runner.workdir / "spans"
    trace_dir.mkdir()
    plain, passes, commands = PassTimes(len(cmds)), [], []
    while not passes or (time.perf_counter() - begun + plain.passes[-1] + passes[-1]["trace.wall_s"] <= seconds
                         and runner.time_left() > 3 * passes[-1]["trace.wall_s"]):
        untraced, traced = run_traced_pass(runner, cmds, trace_dir, len(passes) * len(cmds) + 1)
        plain.add(untraced)
        metrics, functions, spanned = analyse(traced)
        passes.append(metrics)
        commands.extend(spanned)
    wrapped = set()
    for spans_file in trace_dir.iterdir():
        wrapped.update(json.loads(spans_file.read_text()).get("wrapped", []))
    missing = [n for n in (*NAMED_FUNCTIONS, "periods.tanh_sinh") if n not in wrapped]
    out = {
        "cli.import_s": metric(median([t for t, _ in imports]), "s"),
        "cli.import_scipy_s": metric(median([s for _, s in imports]), "s"),
    }
    for key in passes[0]:
        unit = "s" if key.endswith("_s") else "count"
        out[key] = metric(statistics.fmean(p[key] for p in passes), unit)
    untraced = statistics.fmean(plain.passes)
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_frac"] = metric(out["trace.wall_s"]["value"] / untraced - 1.0, "ratio")
    report.write_text(json.dumps({
        "traced_passes": len(passes),
        "untraced_pass_wall_s": plain.passes,
        "per_layer": out,
        "missing": missing,
        "functions_last_pass": functions,
        "commands": commands,
    }))
    print(f"untraced: {plain.describe()}")
    traced_walls = ", ".join(f"{p['trace.wall_s']:.4f}" for p in passes)
    print(f"traced: {len(passes)} passes; pass wall_s: {traced_walls}")
    print(f"overhead base: untraced mean pass wall_s {untraced:.4f} over {len(plain.passes)} passes")
    if missing:
        print(f"missing (reported as 0): {', '.join(missing)}")
    print("per function, last traced pass:")
    for name, row in functions.items():
        print(f"  {name}: " + ", ".join(f"{k} {v:.6g}" for k, v in row.items()))
    print(f"spans written to {report.relative_to(ROOT)}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begun = time.perf_counter()
    if not (ROOT / "src" / "eulertop" / "cli.py").is_file():
        print(f"error: no eulertop sources under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        print(json.dumps({"environment": environment()}))
        runner = Runner(workdir, begun)
        cmds = workloads.generate(args.workload, args.seed, workdir)
        runner.version()  # untimed: fills the bytecode and file caches
        if args.trace:
            report = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics = measure_traced(runner, cmds, args.seconds, begun, report)
        else:
            setup = [runner.version().wall for _ in range(SETUP_REPS)]
            metrics = {"setup_s": metric(median(setup), "s")}
            metrics.update(measure(runner, cmds, args.seconds, begun))
            failed = len(runner.failures)
            metrics["ok_frac"] = metric((runner.attempted - failed) / runner.attempted, "ratio")
            for name, key in DIGITS.items():
                metrics[name] = metric(checks.digits(runner.errors.get(key, 0.0)), "digits")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in runner.failures[:20]:
        print(f"FAILED {failure}")
    correct = not runner.failures
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
