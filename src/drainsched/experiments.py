"""Experiment orchestration: bundled presets, grid runs, metrics export.

Presets operate on the bundled 10-node mesh configuration:

  fig3b-sweep   vary the optimizer cycle count and record per-flow mean
                delay (no QoS), one row per (cycles, seed, flow).
  table1        two mean-delay QoS flows (7 and 8) over a grid of target
                pairs and two priority weights.
  table2        hard-deadline flow 7 plus mean-delay flow 8 over a grid of
                deadline/target rows.
  custom        run a user-supplied config as-is.

All output is deterministic: rerunning with the same config and seeds gives
byte-identical files. Headers record the preset, config digest, seeds, and
horizon so a run can be reconstructed exactly.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
import operator
import warnings
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .config import RunParams, SimConfig, parse_config, with_optimizer, with_qos
from .control import QosSpec
from .engine import MetricsReport, run_simulation
from .network import ConfigError, integer
from .report import FlowMetrics

PRESET_NAMES = ("fig3b-sweep", "table1", "table2", "custom")

FIG3B_ITERATIONS = (1, 2, 3, 4, 5, 7, 10, 12, 15, 20)
TABLE1_THETA = (6.0, 7.0)
TABLE1_TARGETS = ((50.0, 30.0), (40.0, 25.0), (30.0, 20.0), (25.0, 15.0))
TABLE2_THETA = (2.0, 1.5)
TABLE2_ROWS = (
    (180, 0.02, 50.0),
    (180, 0.02, 40.0),
    (180, 0.02, 35.0),
    (160, 0.02, 45.0),
    (140, 0.02, 30.0),
    (120, 0.02, 35.0),
)
DEFAULT_SEEDS = (1, 2, 3, 4, 5)

RUNS_COLUMNS = (
    "preset", "label", "seed", "flow", "created", "delivered", "on_time", "late",
    "mean_delay_slots", "drop_ratio", "mean_gap_bound_c3",
)
SUMMARY_COLUMNS = (
    "preset", "label", "flow", "n_seeds", "mean_delay_slots", "drop_ratio",
    "min_mean_delay_slots", "max_mean_delay_slots",
)
METRICS_COLUMNS = (
    "flow", "created", "delivered", "on_time", "late", "mean_delay_slots", "drop_ratio",
)
# The per-flow statistics of every table, in column order.
FLOW_STATS = ("created", "delivered", "on_time", "late", "mean_delay", "drop_ratio")
_flow_stats = operator.attrgetter(*FLOW_STATS)


def bundled_preset_config() -> SimConfig:
    """The 10-node mesh configuration shipped with the package."""
    text = resources.files("drainsched.presets").joinpath("mesh10.yaml").read_text()
    return parse_config(text)


@dataclass(frozen=True)
class GridPoint:
    label: str
    config: SimConfig


def build_grid(preset: str, base: SimConfig | None = None) -> tuple[GridPoint, ...]:
    """Expand a preset name into labeled configurations."""
    if preset not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {preset!r} (expected one of {PRESET_NAMES})")
    if preset == "custom":
        if base is None:
            raise ConfigError("preset 'custom' requires a config")
        return (GridPoint("custom", base),)
    base = base if base is not None else bundled_preset_config()
    points = []
    if preset == "fig3b-sweep":
        stripped = with_qos(base, {})
        for iters in FIG3B_ITERATIONS:
            points.append(
                GridPoint(f"iters={iters}", with_optimizer(stripped, cycles=iters))
            )
    elif preset == "table1":
        for theta in TABLE1_THETA:
            for d7, d8 in TABLE1_TARGETS:
                qos = {
                    7: QosSpec(kind="mean_delay", target_slots=d7, theta_hat=theta),
                    8: QosSpec(kind="mean_delay", target_slots=d8, theta_hat=theta),
                }
                points.append(
                    GridPoint(f"theta={theta:g},targets={d7:g}/{d8:g}", with_qos(base, qos))
                )
    else:
        for deadline, ratio, d8 in TABLE2_ROWS:
            qos = {
                7: QosSpec(
                    kind="hard_deadline",
                    deadline_slots=deadline,
                    drop_ratio_target=ratio,
                    theta_hat=TABLE2_THETA[0],
                ),
                8: QosSpec(kind="mean_delay", target_slots=d8, theta_hat=TABLE2_THETA[1]),
            }
            points.append(
                GridPoint(
                    f"deadline={deadline},drop={ratio:g},target8={d8:g}", with_qos(base, qos)
                )
            )
    return tuple(points)


def _run_point(job) -> tuple[dict[int, FlowMetrics], float | None]:
    config, seed, horizon = job
    report = run_simulation(config, horizon=horizon, seed=seed)
    return report.flows, _mean(report.periods.column("c3"))


def _use_warning_filters(filters) -> None:
    """Make this process's warnings.filters a copy of filters."""
    warnings.resetwarnings()
    warnings.filters.extend(filters)


def run_jobs(
    jobs: Sequence[tuple[SimConfig, int, int]], workers: int = 1
) -> list[tuple[dict[int, FlowMetrics], float | None]]:
    """Run each (config, seed, horizon) job; return its (flows, mean c3), in job order.

    One worker, or fewer than two jobs, runs the jobs in this process. More
    run them in a pool of min(workers, len(jobs)) processes started with
    'spawn', so no worker inherits this process's state (channel's lock and
    block cache among it). Each worker first takes this process's
    warnings.filters, so a warning that is an error here is an error in a
    job too. Raises ConfigError when workers is not an integer >= 1 (a bool
    is not one).
    """
    workers = integer(workers, "workers", 1)
    if workers == 1 or len(jobs) < 2:
        return list(map(_run_point, jobs))
    with ProcessPoolExecutor(
        max_workers=min(workers, len(jobs)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_use_warning_filters,
        initargs=(tuple(warnings.filters),),
    ) as pool:
        return list(pool.map(_run_point, jobs))


def _mean(values: Sequence[float]) -> float | None:
    """The mean of values summed left to right from 0.0, or None if empty.

    Builtin sum() is avoided: Python 3.12 made it compensated, which would
    make the exported bytes depend on the interpreter.
    """
    if not values:
        return None
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header_lines: list[str], columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def run_experiment(
    preset: str,
    out_dir,
    seeds=None,
    horizon: int | None = None,
    workers: int = 1,
    config: SimConfig | None = None,
) -> int:
    """Run every grid point for every seed and write tabular output.

    Writes <preset>_runs.csv (one row per grid point, seed, and flow),
    <preset>_summary.csv (seed-averaged), and <preset>_summary.json.
    The runs go through run_jobs with the given workers. Returns the process
    exit status (0 on completion). Raises ConfigError, before anything is
    written, when workers is not an integer >= 1 or seeds or horizon break
    RunParams' rule (an empty seed list, or a seed or horizon that is not a
    nonnegative integer).
    """
    workers = integer(workers, "workers", 1)
    grid = build_grid(preset, config)
    run = RunParams(
        horizon_slots=grid[0].config.run.horizon_slots if horizon is None else horizon,
        seeds=tuple(seeds if seeds is not None else DEFAULT_SEEDS),
    )
    seeds, horizon = run.seeds, run.horizon_slots
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot create output directory {out}: {exc}")
        return 2

    # Jobs run grid point by grid point, seed by seed; run_jobs keeps that order.
    jobs = [(point.config, seed, horizon) for point in grid for seed in seeds]
    results = run_jobs(jobs, workers)

    digest = grid[0].config.digest()
    header = [
        f"preset: {preset}",
        f"config_digest: {digest}",
        f"seeds: {','.join(str(s) for s in seeds)}",
        f"horizon_slots: {horizon}",
    ]
    run_rows, summary_rows, runs = [], [], []
    for gi, point in enumerate(grid):
        point_runs = results[gi * len(seeds):(gi + 1) * len(seeds)]
        for seed, (flows, c3) in zip(seeds, point_runs):
            stats = {fid: _flow_stats(fm) for fid, fm in sorted(flows.items())}
            run_rows += [(preset, point.label, seed, fid, *row, c3) for fid, row in stats.items()]
            runs.append({
                "label": point.label,
                "seed": seed,
                "mean_gap_bound_c3": c3,
                "flows": {str(fid): dict(zip(FLOW_STATS, row)) for fid, row in stats.items()},
            })
        # Every run of a grid point reports the same flows.
        for fid in sorted(point_runs[0][0]):
            group = [flows[fid] for flows, _ in point_runs]
            delays = [fm.mean_delay for fm in group if fm.mean_delay is not None]
            drops = [fm.drop_ratio for fm in group if fm.drop_ratio is not None]
            summary_rows.append((
                preset, point.label, fid, len(group), _mean(delays), _mean(drops),
                min(delays, default=None), max(delays, default=None),
            ))

    try:
        _write_csv(out / f"{preset}_runs.csv", header, RUNS_COLUMNS, run_rows)
        _write_csv(out / f"{preset}_summary.csv", header, SUMMARY_COLUMNS, summary_rows)
        payload = {
            "preset": preset,
            "config_digest": digest,
            "seeds": list(seeds),
            "horizon_slots": horizon,
            "runs": runs,
        }
        with open(out / f"{preset}_summary.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        print(f"failed writing experiment output: {exc}")
        return 2
    return 0


def export_metrics(report: MetricsReport, fmt: str, path) -> None:
    """Serialize one MetricsReport.

    csv: the stable per-flow table (columns in METRICS_COLUMNS, rows in
    ascending flow id; an empty report yields only the header row).
    json: the full report, streamed by MetricsReport.write_json (the bytes of
    json.dump(report.to_dict(), sort_keys=True, indent=1) and a newline);
    re-importing with report_from_json gives back an equal report.
    """
    path = Path(path)
    if fmt == "csv":
        rows = [(fid, *_flow_stats(fm)) for fid, fm in sorted(report.flows.items())]
        _write_csv(path, [], METRICS_COLUMNS, rows)
    elif fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            report.write_json(fh)
    else:
        raise ValueError(f"unknown export format {fmt!r} (expected 'csv' or 'json')")


def report_from_json(text: str) -> MetricsReport:
    return MetricsReport.from_dict(json.loads(text))
