"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion. The long-horizon mesh runs are shared between criteria through
fixtures: conftest.py's mesh_runs, which also serves the engine's delay band
test, and module-scoped ones here.
"""

import math
import time

import numpy as np
import pytest

from conftest import MEAN_DELAY_TARGETS
from drainsched.config import with_run
from drainsched.engine import run_simulation
from drainsched.experiments import bundled_preset_config, run_experiment
from drainsched.instances import instance_stream
from drainsched.network import Halfspace
from drainsched.optim import (
    OptParams,
    objective,
    project_onto_halfspace,
    solve_review_optimization,
)
from drainsched.oracle import oracle_solve


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def preset_cfg():
    return bundled_preset_config()


@pytest.fixture(scope="module")
def oracle_battery():
    """Criterion 1 data: 200 seeded random instances, solver vs oracle."""
    t0 = time.monotonic()
    rows = []
    for inst in instance_stream(200, base_seed=0):
        params = OptParams(step_size=inst.step_size, cycles=50)
        s, diag = solve_review_optimization(inst.weights, inst.constraints, params)
        _, best = oracle_solve(inst.weights, inst.constraints)
        got = objective(s, inst.weights)
        rows.append(
            {"seed": inst.seed, "oracle": best, "got": got, "gap": best - got,
             "c3": diag.c3}
        )
    return rows, time.monotonic() - t0


@pytest.fixture(scope="module")
def checked_preset_run(preset_cfg):
    """Criteria 3 and 4 share one fully checked 1e5-slot mesh run."""
    return run_simulation(
        preset_cfg, horizon=100_000, seed=1, check_invariants=True
    )


def test_criterion_1_optimizer_vs_oracle(oracle_battery):
    rows, elapsed = oracle_battery
    assert len(rows) == 200
    worst_gap = 0.0
    for row in rows:
        allowed = max(row["c3"], 0.01 * row["oracle"])
        assert row["got"] <= row["oracle"] + 1e-9, (
            f"instance {row['seed']}: solver {row['got']} beats oracle {row['oracle']}"
        )
        assert row["gap"] <= allowed, (
            f"instance {row['seed']}: gap {row['gap']} above max(c3={row['c3']}, "
            f"1% oracle={0.01 * row['oracle']})"
        )
        worst_gap = max(worst_gap, row["gap"])
    assert elapsed < 30.0, f"battery took {elapsed:.1f}s"
    _report(1, True, f"200 instances, worst gap {worst_gap:.3g}, {elapsed:.1f}s")


def test_criterion_2_projection_properties():
    rng = np.random.default_rng(20240501)

    def random_halfspace(n, point, violated, margin):
        size = int(rng.integers(1, n + 1))
        members = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
        raw = rng.random(size) + 1e-3
        nu = raw / math.sqrt(float(np.dot(raw, raw)))
        h = Halfspace(members=members, normal=tuple(float(c) for c in nu), bound=0.0,
                      uniform=False)
        bound = h.value(point) + (-margin if violated else margin)
        return Halfspace(members=members, normal=h.normal, bound=bound, uniform=False)

    # 10^4 randomized checks: projecting onto a violated halfspace never
    # breaks a satisfied one (nonnegative normals), exactly.
    for _ in range(10_000):
        n = int(rng.integers(2, 10))
        s = rng.normal(0.0, 1.5, n)
        h_v = random_halfspace(n, s, violated=True, margin=float(rng.uniform(0.05, 1.0)))
        h_w = random_halfspace(n, s, violated=False, margin=float(rng.uniform(0.05, 1.0)))
        out = project_onto_halfspace(s, h_v)
        assert h_w.value(out) <= h_w.bound, "projection broke a satisfied constraint"

    # boundary equality within 1e-12 on violated inputs
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        s = rng.normal(0.0, 2.0, n)
        h = random_halfspace(n, s, violated=True, margin=float(rng.uniform(0.05, 2.0)))
        out = project_onto_halfspace(s, h)
        worst = max(worst, abs(h.value(out) - h.bound))
    assert worst <= 1e-12, f"boundary residual {worst}"

    # the three-variable worked update, bit for bit
    s = np.array([0.0, 0.7, 0.8, 0.0, 0.9])
    out = project_onto_halfspace(s, Halfspace.sum_cap((1, 2, 4)))
    total = s[1] + s[2] + s[4]
    expected = s.copy()
    for k in (1, 2, 4):
        expected[k] = s[k] - (total - 1.0) / 3.0
    assert np.array_equal(out, expected), "three-variable update not bit-exact"
    _report(2, True, f"10^4 checks exact, boundary residual {worst:.2g}, example bit-exact")


def test_criterion_3_conservation(checked_preset_run):
    rep = checked_preset_run
    assert rep.horizon == 100_000
    ok = rep.conservation_violations == 0
    _report(3, ok, f"violations {rep.conservation_violations} over 1e5 slots")


def test_criterion_4_interference_honesty(checked_preset_run):
    rep = checked_preset_run
    ok = rep.interference_violations == 0
    _report(4, ok, f"violations {rep.interference_violations} over 1e5 slots")


def test_criterion_5_iteration_trend(mesh_runs):
    runs, elapsed = mesh_runs
    means = {
        cycles: {
            f: sum(flows[f].mean_delay for flows in runs[cycles]) / len(runs[cycles])
            for f in (7, 8, 9)
        }
        for cycles in (1, 5)
    }
    for f in (7, 8, 9):
        assert means[5][f] < means[1][f], (
            f"flow {f}: {means[5][f]:.1f} at 5 cycles not below {means[1][f]:.1f} at 1"
        )
    ratio = means[1][8] / means[5][8]
    assert ratio > 3.0, f"flow 8 improvement {ratio:.2f}x not above 3x"
    assert elapsed < 600.0, f"runs took {elapsed:.0f}s"
    detail = ", ".join(
        f"flow {f}: {means[1][f]:.0f}->{means[5][f]:.0f}" for f in (7, 8, 9)
    )
    _report(5, True, f"{detail}; flow 8 ratio {ratio:.1f}x; {elapsed:.0f}s")


def test_criterion_6_mean_delay_targets(mesh_runs):
    targets = MEAN_DELAY_TARGETS
    delays = {f: [flows[f].mean_delay for flows in mesh_runs[0]["targets"]] for f in (7, 8, 9)}
    means = {f: sum(v) / len(v) for f, v in delays.items()}
    for fid, target in targets.items():
        assert means[fid] <= 1.25 * target, (
            f"flow {fid}: achieved {means[fid]:.1f} above 1.25 x {target}"
        )
    assert means[9] > means[7] and means[9] > means[8], (
        f"non-QoS flow 9 ({means[9]:.1f}) does not exceed QoS flows "
        f"({means[7]:.1f}, {means[8]:.1f})"
    )
    _report(
        6, True,
        f"achieved 7: {means[7]:.1f}<= {1.25 * targets[7]:.0f}, "
        f"8: {means[8]:.1f}<= {1.25 * targets[8]:.1f}, flow 9: {means[9]:.1f}",
    )


def test_criterion_7_deadline_mix(mesh_runs):
    runs = mesh_runs[0]["deadline"]
    drops = [flows[7].drop_ratio for flows in runs]
    delays8 = [flows[8].mean_delay for flows in runs]
    mean_drop = sum(drops) / len(drops)
    mean_d8 = sum(delays8) / len(delays8)
    assert mean_drop <= 0.03, f"drop ratio {mean_drop:.4f} above 3%"
    assert mean_d8 <= 1.25 * 50.0, f"flow 8 delay {mean_d8:.1f} above 62.5"
    _report(7, True, f"drop ratio {mean_drop:.4f} <= 3%, flow 8 delay {mean_d8:.1f} <= 62.5")


def test_criterion_8_determinism(preset_cfg, tmp_path):
    cfg = with_run(preset_cfg, horizon_slots=2000)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        status = run_experiment("custom", out, seeds=(1, 2), config=cfg)
        assert status == 0
        outs.append(out)
    names = ("custom_runs.csv", "custom_summary.csv")
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
    )
    _report(8, same, "byte-identical CSV output across identical runs")


def test_criterion_9_theorem_bound(oracle_battery):
    rows, _ = oracle_battery
    binding = [r for r in rows if r["c3"] >= 0.01 * r["oracle"]]
    assert binding, "no instance with a binding theorem bound"
    for row in binding:
        assert row["gap"] <= row["c3"], (
            f"instance {row['seed']}: gap {row['gap']} above c3 {row['c3']}"
        )
    _report(9, True, f"gap <= c3 on all {len(binding)} binding instances")
