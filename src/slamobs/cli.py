"""Command-line front end for running, sweeping, and validating scenarios.

Exit codes: 0 on success, 1 for configuration/validation problems (including
bad command-line usage), 2 when a run aborts on a non-finite observer state.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import SWEEP_AXES, _check_stride, run, sweep, write_csv
from .observer import DivergenceError
from .scenario import load_scenario


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are validation errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slamobs",
        description=(
            "Simulate a vehicle among fixed landmarks and the nonlinear "
            "observer that estimates its pose, the landmark map, and the "
            "velocity-measurement biases."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write a metrics CSV")
    run_p.add_argument(
        "--scenario", required=True, help="scenario file path or built-in name (paper-sec5)"
    )
    run_p.add_argument("--out", required=True, help="output directory for the CSV")
    run_p.add_argument("--dt", type=float, default=None, help="override the step size (s)")
    run_p.add_argument(
        "--duration", type=float, default=None, help="override the run duration (s)"
    )
    run_p.add_argument("--seed", type=int, default=None, help="override the noise seed")
    run_p.add_argument(
        "--stride",
        type=int,
        default=10,
        help="record every k-th step (the final step is always recorded)",
    )
    run_p.set_defaults(handler=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a scenario once per parameter value")
    sweep_p.add_argument("--scenario", required=True, help="scenario file path or built-in name")
    sweep_p.add_argument("--axis", required=True, help=f"one of: {', '.join(SWEEP_AXES)}")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated list of parameter values"
    )
    sweep_p.set_defaults(handler=_cmd_sweep)

    val_p = sub.add_parser("validate", help="parse and validate a scenario, run nothing")
    val_p.add_argument("--scenario", required=True, help="scenario file path or built-in name")
    val_p.set_defaults(handler=_cmd_validate)
    return parser


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario).with_overrides(
        dt=args.dt, duration=args.duration, seed=args.seed
    )
    out_dir = Path(args.out)
    path = out_dir / f"{config.name}.csv"
    # Before the run, so that an unusable --out fails without simulating, and
    # after the stride check, so that a bad --stride leaves no directory.
    _check_stride(args.stride)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"could not write {path}: {exc}") from exc
    records = run(config, stride=args.stride)
    try:
        write_csv(records, config.count, path)
    except OSError as exc:
        raise ValueError(f"could not write {path}: {exc}") from exc
    last = records[-1]
    print(f"wrote {path} ({len(records)} rows)")
    print(
        f"final: max_e = {last.max_e:.6g} m, max landmark error = "
        f"{last.max_p_err:.6g} m, energy = {last.lyapunov:.6g}"
    )
    return 0


def _cmd_sweep(args) -> int:
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if not values:
        raise ValueError(f"--values lists no values (got {args.values!r})")
    base = load_scenario(args.scenario)
    results = sweep(base, args.axis, values)
    header = f"{'axis':<12} {'value':>12} {'settle_s':>10} {'final_max_e':>14} {'final_max_perr':>16} {'aborted_step':>13}"
    print(header)
    for res in results:
        settle = f"{res.settling_time:.4g}" if res.settling_time is not None else "-"
        aborted = str(res.aborted_step) if res.aborted_step is not None else "-"
        print(
            f"{res.axis:<12} {res.value:>12.6g} {settle:>10} "
            f"{res.final_max_e:>14.6g} {res.final_max_p_err:>16.6g} {aborted:>13}"
        )
    return 0


def _cmd_validate(args) -> int:
    config = load_scenario(args.scenario)
    print(
        f"ok: {config.name} (landmarks = {config.count}, duration = {config.duration:g} s, "
        f"dt = {config.dt:g} s, steps = {config.step_count})"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
