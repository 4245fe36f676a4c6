"""Command-line interface.

Subcommands:
  run           one configuration, one or more seeds, metrics export
  preset        a named experiment grid (fig3b-sweep, table1, table2, custom)
  oracle-check  the iterative solver against the exact LP oracle on random
                small instances

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunParams, load_config
from .engine import run_simulation
from .experiments import PRESET_NAMES, export_metrics, run_experiment
from .instances import instance_stream
from .network import ConfigError, integer
from .optim import OptParams, objective, solve_review_optimization
from .oracle import oracle_solve


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors (its subcommands' too) are
    ConfigErrors, so main reports them like any other bad input."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drainsched",
        description="Slotted-time simulator for QoS scheduling in multihop wireless networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configuration")
    p_run.add_argument("--config", required=True, help="path to a YAML config")
    p_run.add_argument("--seed", type=int, action="append", default=None,
                       help="seed override; repeat for several seeds")
    p_run.add_argument("--horizon", type=int, default=None, help="horizon override in slots")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--trace", action="store_true", help="write a per-review trace stream")

    p_preset = sub.add_parser("preset", help="run a named experiment")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--config", default=None,
                          help="base config (required for 'custom', optional otherwise)")
    p_preset.add_argument("--seed", type=int, action="append", default=None)
    p_preset.add_argument("--horizon", type=int, default=None)
    p_preset.add_argument("--out", default=None, help="output directory (default out_<name>)")
    p_preset.add_argument(
        "--workers", type=int, default=1,
        help="processes that run the grid's jobs (default 1: this process; more are spawned)",
    )

    p_oracle = sub.add_parser("oracle-check", help="compare solver and oracle")
    p_oracle.add_argument("--instances", type=int, default=50)
    p_oracle.add_argument("--base-seed", type=int, default=0)
    p_oracle.add_argument("--cycles", type=int, default=50)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    run = RunParams(  # checked before the output directory is made
        horizon_slots=config.run.horizon_slots if args.horizon is None else args.horizon,
        seeds=tuple(args.seed) if args.seed else config.run.seeds,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for seed in run.seeds:
        trace_fh = None
        if args.trace:
            trace_fh = open(out / f"trace_seed{seed}.jsonl", "w", encoding="utf-8")
        try:
            report = run_simulation(
                config, horizon=run.horizon_slots, seed=seed, trace_file=trace_fh
            )
        finally:
            if trace_fh is not None:
                trace_fh.close()
        dest = out / f"metrics_seed{seed}.{args.format}"
        export_metrics(report, args.format, dest)
        for fid, fm in sorted(report.flows.items()):
            delay = "n/a" if fm.mean_delay is None else f"{fm.mean_delay:.2f}"
            print(f"seed {seed} flow {fid}: delivered {fm.delivered}, mean delay {delay}")
        print(f"wrote {dest}")
    return 0


def _cmd_preset(args) -> int:
    config = load_config(args.config) if args.config else None
    out = args.out if args.out else f"out_{args.name}"
    status = run_experiment(
        args.name, out, seeds=args.seed, horizon=args.horizon,
        workers=args.workers, config=config,
    )
    if status == 0:
        print(f"wrote {out}/{args.name}_runs.csv, _summary.csv, _summary.json")
    return status


def _cmd_oracle_check(args) -> int:
    instances = integer(args.instances, "--instances", 1)
    base_seed = integer(args.base_seed, "--base-seed", 0)
    base = OptParams(cycles=integer(args.cycles, "--cycles", 1))
    worst_gap = 0.0
    failures = 0
    for inst in instance_stream(instances, base_seed=base_seed):
        params = replace(base, step_size=inst.step_size)
        s, diag = solve_review_optimization(inst.weights, inst.constraints, params)
        _, best = oracle_solve(inst.weights, inst.constraints)
        got = objective(s, inst.weights)
        gap = best - got
        allowed = max(diag.c3, 0.01 * best)
        ok = got <= best + 1e-9 and gap <= allowed
        if not ok:
            failures += 1
        worst_gap = max(worst_gap, gap)
        print(
            f"seed {inst.seed}: coords {inst.constraints.n_coords}, oracle {best:.6g}, "
            f"solver {got:.6g}, gap {gap:.3g}, c3 {diag.c3:.3g} "
            f"{'ok' if ok else 'VIOLATION'}"
        )
    print(f"{instances} instances, worst gap {worst_gap:.3g}, failures {failures}")
    return 0 if failures == 0 else 2


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "preset":
            return _cmd_preset(args)
        return _cmd_oracle_check(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
