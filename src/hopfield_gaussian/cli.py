"""Command-line front end.

Subcommands: diagonalize, point, sweep, dynamics, verify.  Numeric output
uses fixed 12-significant-digit formatting so repeated runs are
byte-identical.  A JSON config file can pre-set any model or environment
flag, for every subcommand that takes it; explicit flags win.  A key that
names no flag, or a value that is not a number, is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .dynamics import (
    TRAJECTORY_HEADER,
    SecondMoments,
    collective_rates,
    evolve_trajectory,
    trajectory_rows,
)
from .model import InstabilityError, ModelParams
from .scenarios import Axis, SweepSpec, resolve_scenario, scenario_names
from .states import Environment, format_covariance, format_value, sector_rows
from .sweep import CSV_HEADER, diagonalize_params, evaluate_point, resolve_params, sweep_csv

# config-file key -> the flag (argparse dest) it pre-sets
_CONFIG_FLAGS = {
    "wa": "wa",
    "wb": "wb",
    "lambda": "lam",
    "lambda1": "lambda1",
    "lambda2": "lambda2",
    "diamag": "diamag",
    "temp": "temp",
    "gamma-a": "gamma_a",
    "gamma-b": "gamma_b",
}
# the coupling's two spellings: a config value of one gives way to an
# explicit flag of the other
_RIVALS = {"lam": {"lambda1", "lambda2"}, "lambda1": {"lam"}, "lambda2": {"lam"}}


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--wa", type=float, default=None, help="cavity frequency (default 1)")
    p.add_argument("--wb", type=float, default=None, help="matter frequency (default 1)")
    p.add_argument(
        "--lambda",
        dest="lam",
        type=float,
        default=None,
        help="single coupling strength (sets both interaction terms)",
    )
    p.add_argument("--lambda1", type=float, default=None, help="mode-mixing coupling")
    p.add_argument("--lambda2", type=float, default=None, help="mode-squeezing coupling")
    p.add_argument(
        "--diamag",
        default=None,
        help="diamagnetic coefficient: 'auto' (lambda^2/wb), 'zero', or a value",
    )
    p.add_argument("--config", default=None, help="JSON file of flag defaults")


def _add_temp_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--temp", type=float, default=None, help="reservoir temperature")


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def _config_value(key: str, value):
    """A config-file value as its flag takes it: a number or a numeric
    string, as a float, or 'auto' or 'zero' for diamag.  A bool is not a number."""
    if key == "diamag" and value in ("auto", "zero"):
        return value
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"config value of {key!r} must be a number, got {json.dumps(value)}")


def _apply_config(args) -> None:
    """Set every config-file value whose flag was not given on the command line.

    Every key must name a flag and every value be one the flag takes; a
    flag that this subcommand does not take is skipped, so one file serves
    every subcommand, and so is a coupling whose other spelling
    (--lambda, or --lambda1/--lambda2) was given."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in cfg.items():
        # accept both dashed and underscored keys
        name = key.replace("_", "-")
        if name not in _CONFIG_FLAGS:
            raise ValueError(
                f"config key {key!r} names no flag; the keys are {', '.join(_CONFIG_FLAGS)}")
        value, dest = _config_value(name, value), _CONFIG_FLAGS[name]
        rivals = _RIVALS.get(dest, set()) & args.explicit
        if hasattr(args, dest) and getattr(args, dest) is None and not rivals:
            setattr(args, dest, value)


def _model_params(args) -> ModelParams:
    return resolve_params(
        args.wa, args.wb, args.lam, args.lambda1, args.lambda2, diamag=args.diamag
    )


def _state_temp(args, state: str) -> float | None:
    """The reservoir temperature of a steady state: --temp in the thermal
    state.  The ground state is at T = 0, so it refuses an explicit --temp,
    which would go unread, and skips a config file's."""
    if state == "thermal":
        return args.temp
    if "temp" in args.explicit:
        raise ValueError(
            f"{args.command} does not take --temp in the ground state; give --state thermal")
    return None


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def cmd_diagonalize(args) -> int:
    params = _model_params(args)
    basis = diagonalize_params(params)
    lines = [
        f"omega_U = {format_value(basis.omega_upper)}",
        f"omega_L = {format_value(basis.omega_lower)}",
        f"theta = {format_value(basis.theta) if basis.theta is not None else 'n/a'}",
    ]
    for label, coeffs in (("U", basis.coeffs_upper), ("L", basis.coeffs_lower)):
        cells = " ".join(f"{k}={format_value(v)}" for k, v in zip("wxyz", coeffs))
        lines.append(f"branch {label}: {cells}")
    nu, nl = basis.bogoliubov_norms()
    residuals = f"{format_value(abs(nu - 1))} {format_value(abs(nl - 1))}"
    lines.append(f"norm_residuals = {residuals}")
    lines.append(
        f"orthogonality_residual = {format_value(basis.orthogonality_residual())}"
    )
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_point(args) -> int:
    env = Environment(_state_temp(args, args.state) or 0.0)
    row, sectors = evaluate_point(_model_params(args), env, args.state)
    if args.dump_cov is not None:
        if sectors is None:  # past the stability edge: a row, but no state
            raise InstabilityError()
        _write(format_covariance(sector_rows(sectors)), args.dump_cov)
        if args.dump_cov == "-":
            return 0
    _write(CSV_HEADER + "\n" + row.to_csv() + "\n", args.output)
    return 0


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("axis format is name:start:stop:count")
    name, start, stop, count = parts
    return Axis.linspace(name, float(start), float(stop), int(count))


def cmd_sweep(args) -> int:
    if {"lambda1", "lambda2"} & args.explicit:  # a config value for them is skipped
        raise ValueError(
            "sweep does not take --lambda1/--lambda2; set the coupling with "
            "--lambda (or a lambda axis) and the driven terms with --coupling"
        )
    axes = tuple(_parse_axis(a) for a in args.axis or ())
    if args.scenario and args.scenario != "custom":
        base = resolve_scenario(args.scenario)
    elif axes:
        base = SweepSpec(scenario="custom", axes=axes)
    else:
        raise ValueError("a custom sweep needs at least one --axis")
    axes, state = axes or base.axes, args.state or base.state
    given = {"wa": args.wa, "wb": args.wb, "lambda": args.lam, "T": _state_temp(args, state)}
    for axis in axes:  # a swept input's flag is an error; a config value for it is skipped
        flag = "temp" if axis.name == "T" else axis.name
        if given.pop(axis.name, None) is not None and _CONFIG_FLAGS[flag] in args.explicit:
            raise ValueError(f"sweep does not take --{flag}: {axis.name} is a swept axis")
    # a thermal preset's fixed T gives way in the ground state, as a config file's does
    fixed = {k: v for k, v in base.fixed.items() if k != "T" or state == "thermal"}
    spec = dataclasses.replace(
        base, axes=axes, state=state,
        fixed={**fixed, **{k: float(v) for k, v in given.items() if v is not None}},
        diamag_mode=base.diamag_mode if args.diamag is None else args.diamag,
        coupling=args.coupling or base.coupling,
    )
    _write(sweep_csv(spec), args.output)
    return 0


def cmd_dynamics(args) -> int:
    for flag, value in (("--t-final", args.t_final), ("--dt", args.dt)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be a positive finite number, got {value}")
    slopes = {
        name: value
        for name, value in (("gamma_a", args.gamma_a), ("gamma_b", args.gamma_b))
        if value is not None
    }
    env = Environment(args.temp or 0.0, **slopes)
    basis = diagonalize_params(_model_params(args))
    rates = collective_rates(basis, env)
    trajectory = evolve_trajectory(
        SecondMoments.vacuum(),
        rates,
        basis,
        t_final=args.t_final,
        dt=args.dt,
        stride=args.stride,
    )
    _write("\n".join([TRAJECTORY_HEADER, *trajectory_rows(trajectory)]) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    report, ok = run_verification(args.check or None)
    sys.stdout.write(report)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfield-gaussian",
        description="Entanglement and EPR steering of two ultrastrongly "
        "coupled bosonic modes in a common thermal reservoir.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diagonalize", help="normal-mode frequencies and coefficients")
    _add_model_flags(p)
    _add_output_flag(p)
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("point", help="correlation measures at one parameter point")
    _add_model_flags(p)
    _add_temp_flag(p)
    p.add_argument("--state", choices=("ground", "thermal"), default="ground")
    p.add_argument(
        "--dump-cov",
        default=None,
        metavar="PATH",
        help="write the covariance matrix to PATH ('-' prints it instead of the row)",
    )
    _add_output_flag(p)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("sweep", help="grid sweep producing CSV")
    _add_model_flags(p)
    _add_temp_flag(p)
    p.add_argument(
        "--scenario",
        default=None,
        help=f"named preset: {', '.join(scenario_names())}, or custom",
    )
    p.add_argument(
        "--axis",
        action="append",
        metavar="name:start:stop:count",
        help="swept axis (repeatable, at most twice)",
    )
    p.add_argument("--state", choices=("ground", "thermal"), default=None)
    p.add_argument(
        "--coupling",
        choices=("full", "squeeze-only", "mix-only"),
        default=None,
        help="which interaction terms the swept coupling drives",
    )
    _add_output_flag(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("dynamics", help="second-moment relaxation trajectory")
    _add_model_flags(p)
    _add_temp_flag(p)
    # the slopes set how fast the modes relax, not the steady state they reach
    p.add_argument("--gamma-a", type=float, default=None, help="cavity Ohmic slope")
    p.add_argument("--gamma-b", type=float, default=None, help="matter Ohmic slope")
    p.add_argument("--t-final", type=float, default=50.0)
    p.add_argument(
        "--dt",
        type=float,
        default=None,
        help="output time spacing (default 0.05 over the fastest frequency or rate)",
    )
    p.add_argument(
        "--stride", type=int, default=1, help="record every n-th multiple of dt"
    )
    _add_output_flag(p)
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("verify", help="run the acceptance checks")
    p.add_argument(
        "--check",
        action="append",
        type=int,
        metavar="N",
        help="run only check N (repeatable)",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.explicit = {dest for dest, value in vars(args).items() if value is not None}
    try:
        _apply_config(args)
        return args.func(args)
    except InstabilityError as exc:  # a ValueError, reported as what it is
        print(f"unstable: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
