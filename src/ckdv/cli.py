"""Command-line interface.

    ckdv run --config <path>
    ckdv preset <name> [--out <dir>]
    ckdv converge --levels <n> [--h0 <real>]
    ckdv advise --config <path>    (the plan and grid ``run`` uses; ``run``'s faults,
                                    but output_dir and artifact faults show only in ``run``)
    ckdv presets

Exit status: 0 on success, 1 on usage errors and config faults, 2 when a run blows up.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from . import runner
from .errors import BlowUpError, CkdvError
from .runner import (
    RunReport,
    convergence_study,
    list_presets,
    load_config,
    run_experiment,
    run_preset,
)


def _report_summary(report: RunReport) -> int:
    print(f"outcome: {report.outcome}")
    if report.blow_up_step is not None:
        print(f"blow-up at step {report.blow_up_step}")
    print(f"tau = {report.plan.tau:.6g} ({report.plan.rule}, safety {report.plan.safety:g})")
    print(f"{len(report.snapshots)} snapshots in {report.output_dir}")
    errors = report.trace.columns.get("max_pct_err_1")
    if errors:
        print(f"max percent error, mode 1: {max(errors):.4g}%")
    return 0 if report.outcome == "completed" else 2


def _cmd_run(args: argparse.Namespace) -> int:
    report = run_experiment(load_config(args.config))
    return _report_summary(report)


def _cmd_preset(args: argparse.Namespace) -> int:
    result = run_preset(args.name, args.out)
    if isinstance(result, RunReport):
        return _report_summary(result)
    for path in result:
        print(path)
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    report = convergence_study(args.t_end, args.h0, args.levels)
    print(f"{'h':>10} {'max_err':>12} {'l2_err':>12} {'order':>7}")
    for k, h in enumerate(report.h_values):
        order = f"{report.observed_orders[k - 1]:7.3f}" if k > 0 else "      -"
        print(f"{h:>10.5g} {report.errors[k]:>12.5g} {report.l2_errors[k]:>12.5g} {order}")
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    run = runner.validate_config(load_config(args.config))
    print(f"rule = {run.plan.rule}")
    print(f"tau = {run.plan.tau:.6g}")
    print(f"steps to t_end = {run.n_steps}")
    print(f"m_points = {run.grid.m_points}")
    return 0


def _cmd_presets(_: argparse.Namespace) -> int:
    for preset in list_presets():
        tags = ["oracle" if preset.config is None else "simulation"]
        if preset.oracle:
            tags.append("percent-error trace")
        print(f"{preset.name:8s} [{', '.join(tags)}] {preset.description}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``ckdv`` parser, built once per process and shared by every call."""
    parser = argparse.ArgumentParser(prog="ckdv", description="coupled KdV solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config file")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="run a named preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", default=None)
    p_preset.set_defaults(func=_cmd_preset)

    p_conv = sub.add_parser("converge", help="refinement study on the soliton run")
    p_conv.add_argument("--levels", type=int, default=3)
    p_conv.add_argument("--h0", type=float, default=0.2)
    p_conv.add_argument("--t-end", dest="t_end", type=float, default=0.5)
    p_conv.set_defaults(func=_cmd_converge)

    p_adv = sub.add_parser("advise", help="print the step plan and grid a config runs with")
    p_adv.add_argument("--config", required=True)
    p_adv.set_defaults(func=_cmd_advise)

    p_list = sub.add_parser("presets", help="list available presets")
    p_list.set_defaults(func=_cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed usage (code 2) or help (code 0)
        return 1 if exc.code else 0
    # a warning prints as one line, like an error, not as a package source line
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return args.func(args)
    except CkdvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, BlowUpError) else 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
