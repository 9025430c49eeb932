"""Seeded input generators for the three benchmark workloads.

Each generator turns a seed into the exact argv lists (and loop files) the
program receives; the same seed always yields the same inputs.  Every draw
is used as drawn: nothing is filtered after the fact, so any command the
program fails on counts against it.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("period-grid", "monodromy-loops", "short-commands")

# The standard chamber basepoint a > d > b > c of the monodromy presets:
# the three frozen peers sit 1e-3 below the real axis, d stays real.
BASEPOINT = {"a": 3.0 - 1e-3j, "b": 2.0 - 1e-3j, "c": 1.0 - 1e-3j, "d": 2.5 + 0j}
LOOP_RADII = (0.1, 0.25, 0.4)
LOOP_WINDINGS = (1, 2)
LOOP_FILES = 4

PERIOD_INVOCATIONS = (("p1", 2), ("p3", 2))  # (axis, how many invocations)
PERIOD_D_VALUES = 16
PERIOD_L_VALUES = 4
SEPARATRIX_MIN = 1e-4  # smallest separatrix distance, as a share of the gap
SEPARATRIX_MAX = 0.5

SIMULATE_PERIODS = 40  # orbit length in rotation periods (t is about 200)
SIMULATE_SAMPLES = 2001
SERIES_ORDER = 32


@dataclass(frozen=True)
class Command:
    """One eulertop invocation and what its output is checked against."""

    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


def _opt(flag: str, values) -> str:
    """``--flag=v1,v2,...``: the attached form, because argparse takes a
    separate argument such as ``-0.5,1.0`` for an option, not a value."""
    return f"{flag}=" + ",".join(_num(x) for x in values)


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def _stratified_log(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws from [lo, hi], one in each of n equal log strata.

    Stratifying keeps the amount of work in a pass nearly the same from seed
    to seed, which a pass's wall time depends on.
    """
    width = (math.log(hi) - math.log(lo)) / n
    return [math.exp(math.log(lo) + width * (i + rng.random())) for i in range(n)]


def _period_grid(rng: random.Random, workdir: Path) -> list[Command]:
    cmds = []
    for axis, count in PERIOD_INVOCATIONS:
        for _ in range(count):
            # Distinct reciprocal moments a > b > c with gaps of mixed size.
            c = rng.uniform(0.2, 2.0)
            b = c + rng.uniform(0.2, 3.0)
            a = b + rng.uniform(0.2, 3.0)
            # p1 orbits live at d in (b, a), p3 orbits at d in (c, b); the
            # distance to the separatrix d = b is log-uniform in the gap.
            gap = a - b if axis == "p1" else b - c
            sign = 1.0 if axis == "p1" else -1.0
            ds = [b + sign * gap * t for t in _stratified_log(rng, SEPARATRIX_MIN, SEPARATRIX_MAX, PERIOD_D_VALUES)]
            ls = _stratified_log(rng, 1e-2, 1e2, PERIOD_L_VALUES)
            argv = (
                "period", "--format", "json", "--axis", axis,
                _opt("--abc", (a, b, c)), _opt("--grid-d", ds), _opt("--grid-l", ls),
            )
            cmds.append(Command("period", argv, {"axis": axis, "abc": (a, b, c), "ds": ds, "ls": ls}))
    return cmds


def loop_dict(move: str, center: str, radius: float, winding: int) -> dict:
    """A loop file at the standard basepoint: ``move`` circles ``center``.

    Only the keys the loop reader requires, plus ``start``: without it the
    mover would begin at centre + 2 radius instead of at the basepoint.
    """
    return {
        "move": move,
        "center": _pair(BASEPOINT[center]),
        "radius": radius,
        "winding": winding,
        "frozen": {k: _pair(v) for k, v in BASEPOINT.items() if k != move},
        "start": _pair(BASEPOINT[move]),
    }


def _monodromy_loops(rng: random.Random, workdir: Path) -> list[Command]:
    cmds = [Command("all_generators", ("monodromy", "--preset", "all-generators"))]
    # Each winding on half the loops, in seeded order: a double turn costs
    # about twice a single one, so this keeps a pass's work steady.
    windings = rng.sample(LOOP_WINDINGS * (LOOP_FILES // len(LOOP_WINDINGS)), LOOP_FILES)
    for i, winding in enumerate(windings):
        move = rng.choice("abcd")
        center = rng.choice([k for k in "abcd" if k != move])
        radius = rng.choice(LOOP_RADII)
        path = workdir / f"loop{i}.json"
        path.write_text(json.dumps(loop_dict(move, center, radius, winding)))
        cmds.append(Command(
            "loop", ("monodromy", "--loop", str(path)),
            {"move": move, "center": center, "winding": winding},
        ))
    return cmds


def rotation_period(inertia, p0) -> float:
    """Period of the torque-free orbit through p0, from the complete elliptic
    integral: T = 2 sqrt(2/l) K(mu) / sqrt((d - c)(a - b)) with a > b > c the
    reciprocal moments, l = |p0|^2 / 2 and d = h / l, relabelled a <-> c for
    orbits with d < b."""
    c, b, a = sorted(1.0 / x for x in inertia)
    l = 0.5 * sum(x * x for x in p0)
    d = 0.5 * sum(x * x / i for x, i in zip(p0, inertia)) / l
    if d < b:
        a, c = c, a
    mu = (d - a) * (b - c) / ((d - c) * (b - a))
    x, y = 1.0, math.sqrt(1.0 - mu)  # K(mu) = pi / (2 AGM(1, sqrt(1 - mu)))
    while abs(x - y) > 1e-15 * x:
        x, y = 0.5 * (x + y), math.sqrt(x * y)
    return 2.0 * math.sqrt(2.0 / l) * (math.pi / (2.0 * x)) / math.sqrt((d - c) * (a - b))


def _short_commands(rng: random.Random, workdir: Path) -> list[Command]:
    q = rng.randint(2, 20)
    s = Fraction(rng.randint(1, q - 1), q)
    z = rng.uniform(-0.2, 0.2)
    # Principal moments in three disjoint bands (so they stay distinct) and
    # an initial momentum of uniform random direction and norm in [0.5, 2].
    # The orbit runs for a fixed number of its rotation periods, so its work
    # and drift do not swing with how fast the seeded orbit turns.
    inertia = [rng.uniform(0.3, 0.6), rng.uniform(0.8, 1.2), rng.uniform(1.6, 2.4)]
    rng.shuffle(inertia)
    direction = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = rng.uniform(0.5, 2.0) / math.sqrt(sum(x * x for x in direction))
    p0 = [x * norm for x in direction]
    t = SIMULATE_PERIODS * rotation_period(inertia, p0)
    return [
        Command("verify", ("verify",)),
        Command(
            "series",
            ("series", "--n", str(SERIES_ORDER), "--s", f"{s.numerator}/{s.denominator}", _opt("--z", [z])),
            {"n": SERIES_ORDER, "s": s, "z": z},
        ),
        Command("series", ("series",), {"n": 12}),
        Command("confluence", ("monodromy", "--preset", "confluence")),
        Command("braid", ("monodromy", "--preset", "braid")),
        Command(
            "simulate",
            ("simulate", _opt("--inertia", inertia), _opt("--p0", p0),
             _opt("--t", [t]), "--samples", str(SIMULATE_SAMPLES)),
            {"samples": SIMULATE_SAMPLES, "t": t},
        ),
    ]


_GENERATORS = {
    "period-grid": _period_grid,
    "monodromy-loops": _monodromy_loops,
    "short-commands": _short_commands,
}


def generate(workload: str, seed: int, workdir: Path) -> list[Command]:
    """The commands of one pass over ``workload``; loop files go to workdir."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)
