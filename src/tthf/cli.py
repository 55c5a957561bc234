"""Command-line interface: run, sweep, compare, bounds-report.

Exit codes: 0 ok, 1 invariant violation, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds, experiment
from .experiment import ConfigError
from .trainer import MetricsTrace


def _cmd_run(args) -> int:
    summary = experiment.run_experiment(args.config, output_dir=args.out, workers=args.workers)
    print(json.dumps(summary, indent=2, sort_keys=True))
    # a checkable convergence certificate that fails is an invariant violation
    return 1 if summary.get("bound_check") is False else 0


def _set_path(tree, dotted: str, value):
    """Set the field at the dotted path; a config or a prefix that is not a mapping names its path."""
    keys = dotted.split(".")
    node = tree
    for depth, key in enumerate(keys):
        if not isinstance(node, dict):
            path = ".".join(keys[:depth]) or "<root>"
            raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
        if depth == len(keys) - 1:
            node[key] = value
        else:
            node = node.setdefault(key, {})


def _cmd_sweep(args) -> int:
    base = experiment.read_config(args.config)
    try:
        values = json.loads(f"[{args.values}]")
    except json.JSONDecodeError as exc:
        raise ConfigError(args.param, f"--values holds a value that is not JSON: {exc}") from None
    if not values:
        raise ConfigError(args.param, "--values holds no value")
    variants = []
    for value in values:
        variant = json.loads(json.dumps(base))
        _set_path(variant, args.param, value)
        base_out = variant.get("output_dir")
        if base_out is None:
            base_out = "out"
        elif not isinstance(base_out, str):
            raise ConfigError("output_dir", "must be a string")
        out = Path(base_out) / f"sweep_{args.param.replace('.', '_')}_{value}"
        variant["output_dir"] = str(out)
        # every variant's task is built, and so checked, before the first one runs
        variants.append((value, experiment.prepare_experiment(variant)))
    results = []
    for value, (config, task) in variants:
        summary = experiment.run_prepared(config, task)
        results.append({"value": value, "summary": summary})
        print(f"{args.param}={value}: final_mean_gap={summary['final_mean_gap']:.6g}")
    report = Path(args.report or "sweep_report.json")
    report.write_text(json.dumps(results, indent=2, sort_keys=True), encoding="utf-8")
    print(f"wrote {report}")
    return 0


def _read_trace(path) -> MetricsTrace:
    """The trace CSV at path; one that cannot be read names '<file>', as an unreadable config does."""
    try:
        return MetricsTrace.from_csv(path)
    except (OSError, TypeError, ValueError) as exc:  # a short row's missing cells read as None
        raise ConfigError("<file>", f"cannot read trace file {path}: {exc}") from None


def _cmd_compare(args) -> int:
    trace_a, trace_b = _read_trace(args.trace_a), _read_trace(args.trace_b)
    report = experiment.compare_runs(trace_a, trace_b)
    printable = {k: v for k, v in report.items() if k != "per_t_delta"}
    printable["mean_delta"] = float(np.mean(report["per_t_delta"]))
    print(json.dumps(printable, indent=2, sort_keys=True))
    return 0


def _cmd_bounds_report(args) -> int:
    config = experiment.load_config(args.config)
    task = experiment.build_task(config)
    constants = experiment.certificate_constants(config, task)
    traces = experiment.run_seeds(config, task)
    mean_gap = np.stack([tr.loss_gap_sampled for tr in traces]).mean(axis=0)
    payload = bounds.certificate_report(args.out, constants, mean_gap, t0=int(traces[0].t[0]))
    print(f"envelope holds: {payload['holds']} (nu={constants.nu:.6g}); wrote {args.out}")
    return 0 if payload["holds"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tthf",
        description="Two-timescale hybrid federated learning simulator and certificate checker.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every seed of a config and write traces + summary")
    p_run.add_argument("config", help="path to the JSON experiment config")
    p_run.add_argument("--out", default=None, help="override the config's output_dir")
    p_run.add_argument("--workers", type=int, default=1, help="ignored; outputs do not depend on it")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="re-run a config over several values of one field")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dotted config path, e.g. schedule.gamma.value")
    p_sweep.add_argument(
        "--values", required=True, help='comma-separated JSON values, e.g. 0,1,2,5 or "[1,2],[3]"'
    )
    p_sweep.add_argument("--report", default=None, help="sweep report JSON path")
    p_sweep.add_argument("--workers", type=int, default=1, help="ignored; outputs do not depend on it")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="compare two trace CSVs")
    p_cmp.add_argument("trace_a")
    p_cmp.add_argument("trace_b")
    p_cmp.set_defaults(func=_cmd_compare)

    p_bounds = sub.add_parser(
        "bounds-report", help="multi-seed run checked against the sublinear-rate envelope"
    )
    p_bounds.add_argument("config")
    p_bounds.add_argument("--out", default="bounds_report.json")
    p_bounds.set_defaults(func=_cmd_bounds_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
