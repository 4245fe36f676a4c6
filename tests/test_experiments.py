import json
import warnings

import pytest

from drainsched.config import parse_config, with_run
from drainsched.engine import MetricsReport, run_simulation
from drainsched.experiments import (
    FIG3B_ITERATIONS,
    bundled_preset_config,
    build_grid,
    export_metrics,
    report_from_json,
    run_experiment,
    run_jobs,
)
from drainsched.network import ConfigError

SMALL_YAML = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.0]]
  links: [[0, 1]]
  flows:
    - {source: 0, destination: 1, rate_pkts_per_slot: 0.6, routes: [[0, 1]]}
channel: {fixed_gain: 4.0}
control: {safety_stock_pkts: 0}
run: {horizon_slots: 400, seeds: [1]}
"""


class TestBuildGrid:
    def test_fig3b_axis_matches_iteration_list(self):
        grid = build_grid("fig3b-sweep")
        assert tuple(p.label for p in grid) == tuple(
            f"iters={n}" for n in FIG3B_ITERATIONS
        )
        for point, iters in zip(grid, FIG3B_ITERATIONS):
            assert point.config.optimizer.cycles == iters
            assert point.config.control.qos == {}

    def test_table1_grid_is_eight_runs_per_replication(self):
        grid = build_grid("table1")
        assert len(grid) == 8
        for point in grid:
            assert point.config.control.qos.get(7).kind == "mean_delay"
            assert point.config.control.qos.get(8).kind == "mean_delay"
            assert point.config.control.qos.get(9) is None

    def test_table2_grid_rows(self):
        grid = build_grid("table2")
        assert len(grid) == 6
        for point in grid:
            q7 = point.config.control.qos.get(7)
            q8 = point.config.control.qos.get(8)
            assert q7.kind == "hard_deadline" and q7.theta_hat == 2.0
            assert q8.kind == "mean_delay" and q8.theta_hat == 1.5

    def test_custom_requires_config(self):
        with pytest.raises(ConfigError, match="custom"):
            build_grid("custom")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_grid("table9")


class TestRunExperiment:
    def test_custom_run_writes_deterministic_output(self, tmp_path):
        cfg = parse_config(SMALL_YAML)
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            status = run_experiment("custom", out, seeds=(1, 2), horizon=300, config=cfg)
            assert status == 0
        for name in ("custom_runs.csv", "custom_summary.csv", "custom_summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_header_records_reconstruction_inputs(self, tmp_path):
        cfg = parse_config(SMALL_YAML)
        run_experiment("custom", tmp_path, seeds=(7,), horizon=100, config=cfg)
        text = (tmp_path / "custom_runs.csv").read_text()
        assert f"# config_digest: {cfg.digest()}" in text
        assert "# seeds: 7" in text
        assert "# horizon_slots: 100" in text
        assert "# preset: custom" in text

    def test_workers_do_not_change_output(self, tmp_path):
        # Every file, for one grid point and for six (table2): results cross
        # the process pool and are grouped by grid point.
        for preset, seeds, horizon, cfg in [("custom", (1, 2, 3), 200, parse_config(SMALL_YAML)),
                                            ("table2", (1, 2), 300, None)]:
            for workers in (1, 2):
                out = tmp_path / f"{preset}-{workers}"
                assert run_experiment(preset, out, seeds=seeds, horizon=horizon,
                                      workers=workers, config=cfg) == 0
            for name in ("runs.csv", "summary.csv", "summary.json"):
                serial = (tmp_path / f"{preset}-1" / f"{preset}_{name}").read_bytes()
                assert serial == (tmp_path / f"{preset}-2" / f"{preset}_{name}").read_bytes()

    @pytest.mark.parametrize("workers", [0, -2, 2.5, True, "2"])
    def test_workers_must_be_an_integer_of_at_least_one(self, tmp_path, workers):
        # run_jobs checks it, and run_experiment before it writes anything.
        cfg = parse_config(SMALL_YAML)
        with pytest.raises(ConfigError, match="workers must be"):
            run_jobs([(cfg, 1, 10), (cfg, 2, 10)], workers=workers)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="workers must be"):
            run_experiment("table2", out, seeds=[1], horizon=30, workers=workers)
        assert not out.exists()

    # The ids of the seed cases are those pytest gave them before the
    # horizon cases were added.
    @pytest.mark.parametrize("seeds, horizon, key", [
        pytest.param([2.5], 50, "run.seeds", id="seeds0"),
        pytest.param([True], 50, "run.seeds", id="seeds1"),
        pytest.param([], 50, "run.seeds", id="seeds2"),
        pytest.param([-1], 50, "run.seeds", id="seeds3"),
        pytest.param([1], -5, "run.horizon_slots", id="horizon-negative"),
        pytest.param([1], 2.5, "run.horizon_slots", id="horizon-float"),
        pytest.param([1], True, "run.horizon_slots", id="horizon-bool"),
    ])
    def test_seeds_checked_with_run_params_rule(self, tmp_path, seeds, horizon, key):
        # Checked before the output directory is made.
        cfg = parse_config(SMALL_YAML)
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=key):
            run_experiment("custom", out, seeds=seeds, horizon=horizon, config=cfg)
        assert not out.exists()

    def test_fig3b_sweep_rows_match_axis(self, tmp_path):
        status = run_experiment("fig3b-sweep", tmp_path, seeds=(1,), horizon=300)
        assert status == 0
        lines = (tmp_path / "fig3b-sweep_runs.csv").read_text().splitlines()
        rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
        # one row per iteration count per flow
        assert len(rows) == len(FIG3B_ITERATIONS) * 3
        labels = [r[1] for r in rows]
        assert labels == sorted(labels, key=labels.index)  # grid order preserved
        assert {r[3] for r in rows} == {"7", "8", "9"}

    def test_summary_json_structure(self, tmp_path):
        cfg = parse_config(SMALL_YAML)
        run_experiment("custom", tmp_path, seeds=(1, 2), horizon=200, config=cfg)
        payload = json.loads((tmp_path / "custom_summary.json").read_text())
        assert payload["preset"] == "custom"
        assert payload["seeds"] == [1, 2]
        assert len(payload["runs"]) == 2
        assert set(payload["runs"][0]["flows"].keys()) == {"1"}


class _WarningSeed(int):
    """A seed that raises a RuntimeWarning where a run reads it as an int: a
    stand-in for a numpy fault inside a job. Pooled jobs import it by name."""

    def __int__(self):
        warnings.warn("raised inside a job", RuntimeWarning)
        return int.__int__(self)


class TestRunJobs:
    # Jobs of unequal length, so that pooled jobs finish out of order.
    HORIZONS = (3000, 300, 0, 3000, 300, 0)

    def test_results_in_job_order_and_equal_for_one_and_two_workers(self):
        cfg = bundled_preset_config()
        jobs = [(cfg, seed, h) for seed, h in enumerate(self.HORIZONS, start=1)]
        serial = run_jobs(jobs, workers=1)
        pooled = run_jobs(jobs, workers=2)
        assert len(pooled) == len(jobs)
        for (_, seed, h), (flows, c3), (pooled_flows, pooled_c3) in zip(jobs, serial, pooled):
            assert flows == run_simulation(cfg, horizon=h, seed=seed).flows
            # Every FlowMetrics field, the histograms included.
            assert pooled_flows == flows
            assert pooled_c3 == c3
            assert (c3 is None) == (h == 0)
        assert serial[0][0][8].histogram  # so the histograms compared are not all empty

    def test_no_jobs_give_no_results(self):
        assert run_jobs([], workers=2) == []

    def test_pooled_jobs_keep_the_callers_warning_filters(self):
        # pyproject.toml makes a RuntimeWarning an error in the test process;
        # a pooled job must meet the same filter, and an ignoring caller's.
        cfg = parse_config(SMALL_YAML)
        jobs = [(cfg, 1, 50), (cfg, _WarningSeed(2), 50)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="raised inside a job"):
                run_jobs(jobs, workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert run_jobs(jobs, workers=2) == run_jobs([(cfg, 1, 50), (cfg, 2, 50)])


class TestExportMetrics:
    def test_empty_report_header_only_csv(self, tmp_path):
        empty = MetricsReport(seed=0, horizon=0, flows={}, queue_avg={}, periods=[])
        dest = tmp_path / "empty.csv"
        export_metrics(empty, "csv", dest)
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("flow,")

    def test_rows_keyed_by_ascending_flow_id(self, tmp_path):
        cfg = with_run(bundled_preset_config(), horizon_slots=500)
        rep = run_simulation(cfg, seed=1)
        dest = tmp_path / "m.csv"
        export_metrics(rep, "csv", dest)
        lines = dest.read_text().strip().splitlines()
        flow_col = [int(line.split(",")[0]) for line in lines[1:]]
        assert flow_col == sorted(flow_col) == [7, 8, 9]

    def test_json_roundtrip_equal(self, tmp_path):
        cfg = parse_config(SMALL_YAML)
        rep = run_simulation(cfg, seed=2)
        dest = tmp_path / "m.json"
        export_metrics(rep, "json", dest)
        again = report_from_json(dest.read_text())
        assert again == rep

    def test_unknown_format(self, tmp_path):
        empty = MetricsReport(seed=0, horizon=0, flows={}, queue_avg={}, periods=[])
        with pytest.raises(ValueError, match="format"):
            export_metrics(empty, "xml", tmp_path / "m.xml")
