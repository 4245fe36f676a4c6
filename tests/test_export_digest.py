"""Byte-identity of the JSON export on pinned runs.

The mesh10 and longwin digests are those recorded in perfbench/golden.json;
the links-divisor and fixed-gain runs cover optimizer and channel paths the
benchmark never takes. The run_experiment pins cover the preset output
files: table2's QoS grid and fig3b-sweep's ten cycle counts. A refactor that keeps every answer must keep all of
them; a change that alters an answer must say so and update every place that
records the digest.
"""

import hashlib
from dataclasses import replace

import pytest

from conftest import longwin_config
from drainsched.engine import run_simulation
from drainsched.experiments import bundled_preset_config, export_metrics, run_experiment


def links_divisor_config():
    """mesh10 with optimizer.projection_divisor = links."""
    cfg = bundled_preset_config()
    return replace(cfg, optimizer=replace(cfg.optimizer, divisor_mode="links"))


def fixed_gain_config():
    """mesh10 with channel.gain_model = fixed and fixed_gain = 4."""
    cfg = bundled_preset_config()
    return replace(cfg, channel=replace(cfg.channel, gain_model="fixed", fixed_gain=4.0))


@pytest.mark.parametrize("build, horizon, sha256", [
    (bundled_preset_config, 10_000,
     "06f675f70e0ca2929650ec7d496cdbc67f43b968e7ff870e4f20105294fd23bd"),
    (longwin_config, 30_000,
     "21a74aa72beaa07af6115c24467998ac5025fe08045e70e5a5d5f685e0e70a9f"),
    (links_divisor_config, 2_000,
     "79ca4dd743eeb9ec4efbbc2dfeb528fca99ab5538bdee09ea651b0a33ec8cba2"),
    (fixed_gain_config, 2_000,
     "4b43efe8ca44b0b6aa6e4ef369aa4ff85db3d684745a2980033da10a6dbb0f71"),
], ids=["mesh10", "mesh10-longwin-deadline", "mesh10-links-divisor", "mesh10-fixed-gain"])
def test_json_export_digest(tmp_path, build, horizon, sha256):
    path = tmp_path / "metrics.json"
    export_metrics(run_simulation(build(), horizon=horizon, seed=1), "json", path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


# The output files record the config digest in their headers, so these pins
# move with SimConfig's layout even when every simulated number stays.
EXPERIMENT_SHA256 = {
    "table2": {
        "_runs.csv": "c4d8c0232be0968b5153af6503678e774de6a5f9edc9e0bd5a11eb1f77647ca7",
        "_summary.csv": "488820a848370a7995aa8b124d857e31b87a72ea3ef06c1c9b5d4b8ea5a9f833",
        "_summary.json": "2e46584d80435911d4cfec5d3f04a2a6920594c279ff7b8b46d007b4b045d807",
    },
    "fig3b-sweep": {
        "_runs.csv": "804057037baebbf7dc8d155e24048a9f4139d07abdbcc9e1106e6465f0177844",
        "_summary.csv": "c41f1a4758c7277716ea5babf7ee484f6754831e6ad4cf9c1b9ffa0b4508c6aa",
        "_summary.json": "a0fa4303a17f739acf2fe96417ae42230600bdd9a7e5af0d0636289a3a74f6fb",
    },
}


@pytest.mark.parametrize("preset", sorted(EXPERIMENT_SHA256))
def test_run_experiment_digest(tmp_path, preset):
    assert run_experiment(preset, tmp_path, seeds=[1, 2], horizon=1500, workers=1) == 0
    got = {
        suffix: hashlib.sha256((tmp_path / f"{preset}{suffix}").read_bytes()).hexdigest()
        for suffix in EXPERIMENT_SHA256[preset]
    }
    assert got == EXPERIMENT_SHA256[preset]
