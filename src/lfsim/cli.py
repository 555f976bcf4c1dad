"""Command-line front end.

    lf run <config-file> [--out DIR] [--override key=value ...]
    lf classify --gamma0 X --alpha Y [--gamma2 Z --beta W --ordered ...]
    lf dispersion --gamma0 X --alpha Y [--measure ...]

Exit codes: 0 all checks pass, 1 check failure, 2 numerical failure
(blow-up), 3 config error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _add_model_args(parser: argparse.ArgumentParser,
                    ordered_help: str | None = None) -> None:
    """The model parameters, the dimension and the state to linearize about."""
    for name, default, required in (
            ("gamma0", None, True), ("alpha", None, True),
            ("gamma2", 1.0, False), ("beta", 1.0, False),
            ("lambda0", 1.0, False), ("lambda1", 0.0, False)):
        parser.add_argument(f"--{name}", type=float, default=default,
                            required=required)
    parser.add_argument("--dim", type=int, default=2)
    parser.add_argument("--ordered", action="store_true", help=ordered_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lf",
        description="Pseudospectral solver and stability toolkit for the "
                    "generalized Navier-Stokes (living fluid) model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="key=value", help="override a config key")

    p_cls = sub.add_parser("classify", help="print the stability report "
                                            "for one parameter point")
    _add_model_args(p_cls, "classify the ordered polar state instead")

    p_disp = sub.add_parser("dispersion", help="print a growth-rate table")
    _add_model_args(p_disp)
    p_disp.add_argument("--n", type=int, default=64)
    p_disp.add_argument("--box-length", type=float, default=20.0 * np.pi)
    p_disp.add_argument("--modes", type=int, default=8,
                        help="number of axis modes to tabulate")
    p_disp.add_argument("--measure", action="store_true",
                        help="also measure rates with linearized runs")
    p_disp.add_argument("--dt", type=float, default=1e-3)
    p_disp.add_argument("--t-end", type=float, default=5.0)

    return parser


def _params_from_args(args):
    from .model import ModelParams
    return ModelParams(lambda0=args.lambda0, lambda1=args.lambda1,
                       alpha=args.alpha, beta=args.beta, gamma0=args.gamma0,
                       gamma2=args.gamma2, dim=args.dim)


def _cmd_run(args) -> int:
    from .config import load_config
    from .experiments import run_experiment

    overrides = {}
    for item in args.override:
        key, sep, value = item.partition("=")
        if not sep:
            print(f"error: override {item!r} is not key=value", file=sys.stderr)
            return 3
        overrides[key.strip()] = value.strip()
    try:
        cfg = load_config(args.config, overrides)
    except FileNotFoundError:
        print(f"error: config file not found: {args.config}", file=sys.stderr)
        return 3
    report = run_experiment(cfg, out_dir=args.out)
    for line in report.lines():
        print(line)
    for name, path in sorted(report.files.items()):
        print(f"WROTE {name}: {path}")
    return 0 if report.passed else 1


def _cmd_classify(args) -> int:
    from .stability import classify_disordered, classify_ordered
    params = _params_from_args(args)
    report = (classify_ordered(params) if args.ordered
              else classify_disordered(params))
    print(json.dumps(report.to_dict()))
    return 0


def _cmd_dispersion(args) -> int:
    from .integrate import SolverConfig
    from .model import make_disordered_system, make_ordered_system
    from .spectral import SpectralGrid
    from .stability import growth_rate

    params = _params_from_args(args)
    grid = SpectralGrid(params.dim, args.n, args.box_length)
    system = (make_ordered_system(params) if args.ordered
              else make_disordered_system(params))
    modes = [tuple((m * grid.dk if a == 0 else 0.0) for a in range(params.dim))
             for m in range(1, min(args.modes, grid.n // 2 - 1) + 1)]
    measured = {}
    if args.measure:
        from .experiments import _measure_rates
        cfg = SolverConfig(dt=args.dt, t_end=args.t_end)
        fits, _ = _measure_rates(grid, system, modes, 1e-4, cfg)
        measured = {k: fit.rate for k, fit in fits.items()}
    header = f"{'|k|^2':>12}  {'predicted':>14}"
    if measured:
        header += f"  {'measured':>14}  {'rel_err':>10}"
    print(header)
    for k in modes:
        ksq = float(np.dot(k, k))
        pred = growth_rate(system, np.asarray(k))
        line = f"{ksq:12.6g}  {pred:14.8g}"
        if measured:
            rel = abs(measured[k] - pred) / max(abs(pred), 1e-12)
            line += f"  {measured[k]:14.8g}  {rel:10.3g}"
        print(line)
    return 0


def main(argv=None) -> int:
    from .integrate import BlowUpError
    args = build_parser().parse_args(argv)
    cmd = {"run": _cmd_run, "classify": _cmd_classify,
           "dispersion": _cmd_dispersion}[args.command]
    try:
        return cmd(args)
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
