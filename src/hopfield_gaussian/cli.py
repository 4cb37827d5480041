"""Command-line front end.

Subcommands: diagonalize, point, sweep, dynamics, verify.  Numeric output
uses fixed 12-significant-digit formatting so repeated runs are
byte-identical.  A JSON config file can pre-set any model or environment
flag, for every subcommand that takes it; explicit flags win.
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
from .states import Environment, format_covariance, format_value
from .sweep import (
    CSV_HEADER,
    diagonalize_params,
    point_state,
    resolve_params,
    result_row,
    run_point,
    sweep_csv,
)

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


def _add_env_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--temp", type=float, default=None, help="reservoir temperature")
    p.add_argument("--gamma-a", type=float, default=None, help="cavity Ohmic slope")
    p.add_argument("--gamma-b", type=float, default=None, help="matter Ohmic slope")


def _add_output_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def _apply_config(args) -> None:
    """Set every config-file value whose flag was not given on the command line."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in cfg.items():
        # accept both dashed and underscored keys
        dest = _CONFIG_FLAGS.get(str(key).replace("_", "-"))
        if dest is not None and hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


def _model_params(args) -> ModelParams:
    return resolve_params(
        args.wa, args.wb, args.lam, args.lambda1, args.lambda2, diamag=args.diamag
    )


def _environment(args) -> Environment:
    slopes = {
        name: float(value)
        for name, value in (("gamma_a", args.gamma_a), ("gamma_b", args.gamma_b))
        if value is not None
    }
    return Environment(float(args.temp or 0.0), **slopes)


def _write(text: str, path: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def cmd_diagonalize(args) -> int:
    params = _model_params(args)
    try:
        basis = diagonalize_params(params)
    except InstabilityError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 2
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
    params = _model_params(args)
    env = _environment(args)
    if args.dump_cov is None:
        row = run_point(params, env, args.state)
    else:
        try:
            state = point_state(params, env, args.state)
        except InstabilityError as exc:
            print(f"unstable: {exc}", file=sys.stderr)
            return 2
        _write(format_covariance(state.covariance), args.dump_cov)
        if args.dump_cov == "-":
            return 0
        row = result_row(params, env, args.state, state)
    _write(CSV_HEADER + "\n" + row.to_csv() + "\n", args.output)
    return 0


def _parse_axis(text: str) -> Axis:
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError("axis format is name:start:stop:count")
    name, start, stop, count = parts
    return Axis.linspace(name, float(start), float(stop), int(count))


def cmd_sweep(args) -> int:
    if args.lambda1 is not None or args.lambda2 is not None:
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
    given = {"wa": args.wa, "wb": args.wb, "lambda": args.lam, "T": args.temp}
    spec = dataclasses.replace(
        base,
        axes=axes or base.axes,
        fixed={**base.fixed, **{k: float(v) for k, v in given.items() if v is not None}},
        diamag_mode=base.diamag_mode if args.diamag is None else args.diamag,
        state=args.state or base.state,
        coupling=args.coupling or base.coupling,
    )
    _write(sweep_csv(spec, _environment(args)), args.output)
    return 0


def cmd_dynamics(args) -> int:
    for flag, value in (("--t-final", args.t_final), ("--dt", args.dt)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ValueError(f"{flag} must be a positive finite number, got {value}")
    params = _model_params(args)
    env = _environment(args)
    try:
        basis = diagonalize_params(params)
    except InstabilityError as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 2
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
    _add_env_flags(p)
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
    _add_env_flags(p)
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
    _add_env_flags(p)
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
    try:
        _apply_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
