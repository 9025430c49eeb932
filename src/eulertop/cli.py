"""Command line interface.

Subcommands
-----------
simulate    integrate an orbit and emit t, p1, p2, p3, H, L as CSV
period      compare closed-form, quadrature, and ODE periods on a grid
verify      render the check report of ``eulertop.verify`` as JSON or CSV
monodromy   compute loop monodromies (presets or a loop JSON file)
series      emit the exact rational normal-form series

Every subcommand takes --out and --config.  Numbers must be finite, and
counts are bounded before any work starts.  Values from a config file become
the subcommand's defaults, so precedence is flags over config file over
built-in defaults.  All floats are printed with 17 significant digits so
outputs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import __version__
from .core import MAX_SAMPLES, ComputationError, InertiaSpec

# Each command imports the layers it runs when it starts, so none pays for a
# layer it does not use.  No command loads numpy.

__all__ = ["main", "build_parser"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# The --preset values: the three alpha loops, the six generator loops against
# their stated matrices, and the two tables of stated matrices.
_MONODROMY_PRESETS = ("alpha1", "alpha2", "alpha3", "all-generators", "confluence", "braid")

# Bound checked before any work starts.  It bounds time: the ODE route
# steps each grid row alone, at about 0.9 ms a row.
MAX_GRID_ROWS = 4096


def _float(text: str) -> float:
    """A finite number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive(text: str) -> float:
    """A finite number above zero."""
    value = _float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _samples(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if not 2 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be from 2 to {MAX_SAMPLES}, got {text!r}")
    return value


def _triple(text: str) -> tuple[float, float, float]:
    """Three comma-separated numbers, as in ``3,2,1``."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"wants three comma-separated numbers, got {text!r}")
    return tuple(_float(p) for p in parts)  # type: ignore[return-value]


def _floats(text: str) -> list[float]:
    """A comma list of at least one number; empty items are skipped."""
    values = [_float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise argparse.ArgumentTypeError(f"wants at least one number, got {text!r}")
    return values


def _ratio(text: str) -> Fraction | float:
    """An exact fraction written ``p/q``, or else a finite float."""
    if "/" not in text:
        return _float(text)
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"wants a float or p/q, got {text!r}") from None


# ----------------------------------------------------------------------
# Config files.

class ConfigError(Exception):
    """The --config file is missing, is not a JSON object, or has unknown
    keys or ill-typed values."""


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    # argparse has no public accessor for its subparsers.
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_value(key: str, value, action: argparse.Action):
    """A config value converted and checked as argparse treats the flag's text."""
    if action.type is not None:
        # Through the text, as for a flag: JSON 1.5 is no int, as "--samples 1.5" is not.
        try:
            value = action.type(str(value))
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError(f"config value for {key!r} is invalid: {exc}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"config value for {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _config_defaults(path: str, commands: dict[str, argparse.ArgumentParser], command: str) -> dict:
    """The defaults a config file sets for one subcommand.

    The file holds flat option keys, each an option of some subcommand, and
    optional per-command sections, which beat flat keys.  Every value is
    checked and converted with the ``type`` and ``choices`` of its option.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config file {path} nests its JSON too deeply") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    known = {
        name: {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")}
        for name, p in commands.items()
    }
    flat = {dest: action for options in known.values() for dest, action in options.items()}
    defaults, section = {}, {}
    for key, value in data.items():
        if key in known:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a JSON object")
            unknown = sorted(set(value) - set(known[key]))
            if unknown:
                raise ConfigError(f"unknown keys in config section {key!r}: {unknown}")
            values = {k: _config_value(k, v, known[key][k]) for k, v in value.items()}
            if key == command:
                section = values
        elif key in known[command]:
            defaults[key] = _config_value(key, value, known[command][key])
        elif key in flat:
            _config_value(key, value, flat[key])  # checked, though this command has no such option
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return {**defaults, **section}


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ----------------------------------------------------------------------
# simulate

def cmd_simulate(args: argparse.Namespace) -> int:
    from .dynamics import MomentumState, integrate_orbit

    inertia = InertiaSpec(*args.inertia)
    traj = integrate_orbit(MomentumState(*args.p0), inertia, args.t, tol=args.tol, n_samples=args.samples)
    lines = ["t,p1,p2,p3,H,L"]
    for i in range(len(traj.t)):
        row = [traj.t[i], *traj.p[i], traj.H[i], traj.L[i]]
        lines.append(",".join(_fmt(x) for x in row))
    _emit("\n".join(lines) + "\n", args.out)
    print(
        f"relative drift over run: H {traj.drift_h:.3e}, L {traj.drift_l:.3e}",
        file=sys.stderr,
    )
    return 0


# ----------------------------------------------------------------------
# period

def cmd_period(args: argparse.Namespace) -> int:
    from .periods import period_report

    a, b, c = args.abc
    tol = args.tol
    grid_d = args.grid_d
    if grid_d is None:
        # Points across the axis's gap, from b: (b, a) for p1, (c, b) for p3.
        far = a if args.axis == "p1" else c
        grid_d = [b + t * (far - b) for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
    if len(grid_d) * len(args.grid_l) > MAX_GRID_ROWS:
        print(f"error: --grid-d and --grid-l make more than {MAX_GRID_ROWS} rows", file=sys.stderr)
        return 2
    report = period_report(a, b, c, args.axis, grid_d, args.grid_l, tol)
    rows, worst = report["rows"], report["max_deviation"]
    if args.format == "json":
        _emit(_json_dump(report), args.out)
    else:
        header = "a,b,c,d,l,S_closed,S_quadrature,S_ode,dev_quad,dev_ode"
        lines = [header]
        for r in rows:
            lines.append(",".join(_fmt(r[k]) for k in header.split(",")))
        _emit("\n".join(lines) + "\n", args.out)
    if worst > tol:
        print(f"error: max deviation {worst:.3e} exceeds tol {tol:.3e}", file=sys.stderr)
        return 1
    print(f"max deviation across {len(rows)} rows: {worst:.3e}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import CHECKS, verify_report

    report = verify_report(args.tol)
    if args.format == "csv":
        lines = ["check,value,status"]
        for name, (_, field) in CHECKS.items():
            check = report[name]
            value = _fmt(check[field]) if field else int(check["status"] == "pass")
            lines.append(f"{name},{value},{check['status']}")
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit(_json_dump(report), args.out)
    return 1 if report["failures"] else 0


# ----------------------------------------------------------------------
# monodromy

def cmd_monodromy(args: argparse.Namespace) -> int:
    # The braid and confluence presets multiply stated integer matrices
    # only; the scalar germ transport of ``monodromy`` loads for the loops.
    from .lattice import GENERATOR_LABELS, PRESETS, verify_braid_relations, verify_confluence_product

    preset, loop_file = args.preset, args.loop
    if bool(preset) == bool(loop_file):
        print("error: give exactly one of --preset or --loop", file=sys.stderr)
        return 2
    if loop_file:
        from .monodromy import ModuliLoop, loop_monodromy

        with open(loop_file, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"cannot read loop file {loop_file}: {exc}") from None
            except RecursionError:
                raise ValueError(f"loop file {loop_file} nests its JSON too deeply") from None
        loop = ModuliLoop.from_json_dict(data)
        result = loop_monodromy(loop)
        out = {"loop": loop.to_json_dict(), "matrix": result.matrix.tolist(), "residual": result.residual}
    elif preset == "all-generators":
        from .monodromy import preset_monodromy

        entries = []
        for label in GENERATOR_LABELS:
            result = preset_monodromy(label)
            entries.append({
                "generator": label,
                "stated": PRESETS[label][2].tolist(),
                "computed": result.matrix.tolist(),
                "residual": result.residual,
            })
        out = {
            "frame": "stated (S1, S3)",
            "generators": entries,
            "all_match": all(e["computed"] == e["stated"] for e in entries),
        }
    elif preset == "confluence":
        out = {"orderings": verify_confluence_product()}
    elif preset == "braid":
        out = verify_braid_relations()
    else:  # alpha1, alpha2 or alpha3
        from .monodromy import preset_monodromy

        result = preset_monodromy(preset)
        out = {"preset": preset, "frame": "engine (S3, S1)"}
        out.update(matrix=result.matrix.tolist(), residual=result.residual)
    _emit(_json_dump(out), args.out)
    return 0


# ----------------------------------------------------------------------
# series

def cmd_series(args: argparse.Namespace) -> int:
    from .birkhoff import birkhoff_series

    if args.z is not None and args.s is None:
        print("error: --z needs --s: the series is evaluated at a shape ratio", file=sys.stderr)
        return 2
    series = birkhoff_series(order=args.n)
    out = series.to_json_dict()
    if args.s is not None:
        out["s"] = str(args.s)
        out["pn_at_s"] = [str(series.pn_value(n, args.s)) for n in range(series.order + 1)]
        if args.z is not None:
            out["value_at_z"] = series.evaluate(args.z, args.s).real
    _emit(_json_dump(out), args.out)
    return 0


# ----------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a value starting with a minus sign and a
    digit, such as ``-0.7,0.1,0.3`` or ``-1/3``, as the value of the flag
    before it.  Plain argparse takes such a comma list for an unknown option;
    no eulertop option starts with a digit, so the two cannot be confused."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--config", help="JSON config file mirroring the flags")

    parser = _Parser(
        prog="eulertop",
        description="Rigid body periods, normal form series, and period monodromy.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common], help="integrate an orbit, emit CSV")
    p_sim.add_argument("--inertia", required=True, type=_triple, help="I1,I2,I3")
    p_sim.add_argument("--p0", required=True, type=_triple, help="initial momentum p1,p2,p3")
    p_sim.add_argument("--t", required=True, type=_positive, help="integration time")
    p_sim.add_argument("--samples", type=_samples, default=2001,
                       help="output sample count, at least 2 (default %(default)s)")
    p_sim.add_argument("--tol", type=_positive, default=1e-12, help="integrator tolerance (default %(default)s)")
    p_sim.set_defaults(func=cmd_simulate)

    p_per = sub.add_parser("period", parents=[common], help="compare period routes on a grid")
    p_per.add_argument("--abc", type=_triple, default="3,2,1",
                       help="reciprocal moments a,b,c (default %(default)s)")
    p_per.add_argument("--grid-d", dest="grid_d", type=_floats,
                       help=f"comma list of d values; at most {MAX_GRID_ROWS} d, l rows (default: 0.1, 0.3, "
                       "0.5, 0.7 and 0.9 of the way from b across the axis's gap, (b, a) for p1, (c, b) for p3)")
    p_per.add_argument("--grid-l", dest="grid_l", type=_floats, default="1",
                       help="comma list of l values (default %(default)s)")
    p_per.add_argument("--axis", choices=("p1", "p3"), default="p1", help="orbit family (default %(default)s)")
    p_per.add_argument("--tol", type=_positive, default=1e-7,
                       help="largest accepted deviation between routes (default %(default)s)")
    p_per.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default %(default)s)")
    p_per.set_defaults(func=cmd_period)

    p_ver = sub.add_parser("verify", parents=[common], help="run the check battery")
    p_ver.add_argument("--tol", type=_positive, default=1e-10,
                       help="connection identity tolerance (default %(default)s)")
    p_ver.add_argument("--format", choices=("csv", "json"), default="json",
                       help="output format (default %(default)s)")
    p_ver.set_defaults(func=cmd_verify)

    p_mon = sub.add_parser("monodromy", parents=[common], help="loop monodromy")
    p_mon.add_argument("--preset", choices=_MONODROMY_PRESETS, help="a preset loop or table")
    p_mon.add_argument("--loop", help="JSON file describing a ModuliLoop")
    p_mon.set_defaults(func=cmd_monodromy)

    p_ser = sub.add_parser("series", parents=[common], help="exact normal form series")
    p_ser.add_argument("--n", type=int, default=12, help="series order, at most 32 (default %(default)s)")
    p_ser.add_argument("--s", type=_ratio, help="shape ratio r^2, float or p/q")
    p_ser.add_argument("--z", type=_float, help="evaluate the series at this Z (needs --s)")
    p_ser.set_defaults(func=cmd_series)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config values become the subcommand's defaults, so flags still win.
            commands = _subparsers(parser)
            commands[args.command].set_defaults(**_config_defaults(args.config, commands, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    # A refused input, a failed computation, or an OS error such as an --out
    # path that cannot be written: one error line, exit 1.
    except (ValueError, ComputationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
