import json
from importlib import resources

import pytest

from drainsched.cli import main

SMALL_YAML = """
network:
  nodes: [[0.0, 0.0], [0.5, 0.0]]
  links: [[0, 1]]
  flows:
    - {source: 0, destination: 1, rate_pkts_per_slot: 0.6, routes: [[0, 1]]}
channel: {fixed_gain: 4.0}
control: {safety_stock_pkts: 0}
run: {horizon_slots: 300, seeds: [1]}
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


class TestRunCommand:
    def test_run_writes_metrics(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        status = main(["run", "--config", str(config_path), "--out", str(out)])
        assert status == 0
        assert (out / "metrics_seed1.csv").exists()
        assert "flow 1" in capsys.readouterr().out

    def test_run_json_format_and_seed_override(self, config_path, tmp_path):
        out = tmp_path / "out"
        status = main(
            ["run", "--config", str(config_path), "--out", str(out),
             "--format", "json", "--seed", "9", "--horizon", "100"]
        )
        assert status == 0
        payload = json.loads((out / "metrics_seed9.json").read_text())
        assert payload["seed"] == 9
        assert payload["horizon"] == 100

    def test_trace_stream_written(self, config_path, tmp_path):
        out = tmp_path / "out"
        status = main(
            ["run", "--config", str(config_path), "--out", str(out),
             "--horizon", "50", "--trace"]
        )
        assert status == 0
        lines = (out / "trace_seed1.jsonl").read_text().strip().splitlines()
        assert lines
        first = json.loads(lines[0])
        assert {"t", "window", "objective", "queues"} <= set(first)

    def test_config_error_exit_code_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("network: {nodes: [], links: [], flows: []}")
        status = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [["--horizon", "-5"], ["--seed", "-1"]])
    def test_bad_override_is_config_error(self, config_path, tmp_path, capsys, override):
        out = tmp_path / "out"
        status = main(["run", "--config", str(config_path), "--out", str(out)] + override)
        assert status == 1
        assert "config error: run." in capsys.readouterr().err
        assert not out.exists()  # checked before the output directory is made

    @pytest.mark.parametrize("channel, key", [
        ("{fixed_gain: .nan}", "channel.fixed_gain"),
        ("{fixed_gain: 4.0, noise_power: .inf}", "channel.noise_power"),
        ("{fixed_gain: 4.0, tx_power: .inf}", "channel.tx_power"),
    ], ids=["fixed_gain", "noise_power", "tx_power"])
    def test_non_finite_number_is_config_error(self, tmp_path, capsys, channel, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL_YAML.replace("{fixed_gain: 4.0}", channel))
        status = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 1
        assert f"config error: {key}: expected a finite number" in capsys.readouterr().err

    def test_overflowing_link_rate_is_config_error(self, tmp_path, capsys):
        # Each channel value is finite, but gain * tx_power / noise is not.
        bad = tmp_path / "bad.yaml"
        bad.write_text(SMALL_YAML.replace(
            "{fixed_gain: 4.0}",
            "{fixed_gain: 1.0e+300, tx_power: 1.0e+300}",
        ))
        status = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 1
        assert "config error: channel: link (0, 1): gain * power / noise" in capsys.readouterr().err

    def test_infinite_drawn_gain_is_config_error(self, tmp_path, capsys):
        # Nodes 1e-160 apart: the squared length 1e-320 is subnormal, so the
        # amplitude scale 1 / d^2 overflows and the Rayleigh gain is infinite.
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            SMALL_YAML.replace("[0.5, 0.0]", "[1.0e-160, 0.0]")
            .replace("{fixed_gain: 4.0}", "{}")
        )
        status = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 1
        assert "config error: channel: link (0, 1): power gain inf gives an infinite rate" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("far", ["1.0e-200", "1.0e+200"])
    def test_squared_length_out_of_float_range_is_config_error(self, tmp_path, capsys, far):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            SMALL_YAML.replace("[0.5, 0.0]", f"[{far}, 0.0]")
            .replace("{fixed_gain: 4.0}", "{}")
        )
        status = main(["run", "--config", str(bad), "--out", str(tmp_path)])
        assert status == 1
        assert "config error: network.links[0]: nodes 0 and 1 are" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["a1", "a2"])
    def test_overflowing_review_window_is_config_error(self, tmp_path, capsys, key):
        # The bundled mesh's backlog at its second review makes the window inf.
        text = resources.files("drainsched.presets").joinpath("mesh10.yaml").read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace(f"  {key}: 1.0\n", f"  {key}: 1.0e+308\n"))
        status = main(["run", "--config", str(bad), "--out", str(tmp_path), "--horizon", "50"])
        assert status == 1
        assert "config error: control.a1/control.a2: review window" in capsys.readouterr().err

    def test_review_window_beyond_the_period_log_is_config_error(self, tmp_path, capsys):
        # Finite, but ~2.9e300 slots: more than the int64 window column holds.
        text = resources.files("drainsched.presets").joinpath("mesh10.yaml").read_text()
        bad = tmp_path / "bad.yaml"
        bad.write_text(text.replace("  a1: 1.0\n", "  a1: 1.0e+300\n"))
        status = main(["run", "--config", str(bad), "--out", str(tmp_path), "--horizon", "50"])
        assert status == 1
        assert "config error: control.a1/control.a2: review window" in capsys.readouterr().err

    def test_missing_config_file_exit_code_2(self, tmp_path, capsys):
        status = main(["run", "--config", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path)])
        assert status == 2


class TestUsageErrors:
    @pytest.mark.parametrize("args, message", [
        (["preset", "table1", "--workers", "2.5"],
         "drainsched preset: argument --workers: invalid int value: '2.5'"),
        (["run", "--horizon", "2.5"],
         "drainsched run: argument --horizon: invalid int value: '2.5'"),
        (["run", "--seed", "1.5"], "drainsched run: argument --seed: invalid int value: '1.5'"),
    ], ids=["workers", "horizon", "seed"])
    def test_rejected_option_is_config_error(self, config_path, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        status = main(args + ["--config", str(config_path), "--out", str(out)])
        assert status == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestPresetCommand:
    def test_custom_preset_runs(self, config_path, tmp_path):
        out = tmp_path / "exp"
        status = main(
            ["preset", "custom", "--config", str(config_path), "--out", str(out),
             "--seed", "1", "--seed", "2", "--horizon", "150"]
        )
        assert status == 0
        assert (out / "custom_runs.csv").exists()
        assert (out / "custom_summary.json").exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, workers):
        out = tmp_path / "exp"
        status = main(["preset", "table1", "--out", str(out), "--workers", workers])
        assert status == 1
        assert f"config error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCheckCommand:
    def test_oracle_check_passes(self, capsys):
        status = main(["oracle-check", "--instances", "10"])
        assert status == 0
        out = capsys.readouterr().out
        assert "10 instances" in out
        assert "failures 0" in out

    @pytest.mark.parametrize("override", [
        ["--cycles", "0"], ["--instances", "0"], ["--instances", "-3"], ["--base-seed", "-1"],
    ])
    def test_bad_override_is_config_error(self, capsys, override):
        status = main(["oracle-check"] + override)
        assert status == 1
        captured = capsys.readouterr()
        assert f"config error: {override[0]}" in captured.err
        assert "instances" not in captured.out
