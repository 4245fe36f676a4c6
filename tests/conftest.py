"""Helpers shared by the test modules, which import them from here so that no
test module imports another."""

import time
from dataclasses import replace
from typing import NamedTuple

import pytest

from drainsched import engine
from drainsched.config import SimConfig, with_optimizer, with_qos
from drainsched.control import QosSpec
from drainsched.experiments import TABLE2_ROWS, TABLE2_THETA, bundled_preset_config, run_jobs
from drainsched.network import ConstraintSet
from drainsched.optim import OptDiagnostics, OptParams, WeightVector


def longwin_config():
    """mesh10 with control.a1 = 8 and table2's first QoS row."""
    deadline, ratio, target8 = TABLE2_ROWS[0]
    theta7, theta8 = TABLE2_THETA
    cfg = with_qos(bundled_preset_config(), {
        7: QosSpec(kind="hard_deadline", deadline_slots=deadline,
                   drop_ratio_target=ratio, theta_hat=theta7),
        8: QosSpec(kind="mean_delay", target_slots=target8, theta_hat=theta8),
    })
    return replace(cfg, control=replace(cfg.control, a1=8.0))


class Review(NamedTuple):
    """One review's solve: its inputs and what it returned."""

    weights: WeightVector
    constraints: ConstraintSet
    params: OptParams
    s: list[float]
    diag: OptDiagnostics


def record_reviews(cfg: SimConfig, seed: int, horizon: int | None = None):
    """Run cfg; return the Review of every solve, in order, and the report."""
    seen = []
    solve = engine.solve_review_optimization

    def recording(weights, constraints, params):
        s, diag = solve(weights, constraints, params)
        seen.append(Review(weights, constraints, params, s, diag))
        return s, diag

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "solve_review_optimization", recording)
        rep = engine.run_simulation(cfg, seed=seed, horizon=horizon)
    return seen, rep


# Acceptance criterion 6's mean-delay targets and criterion 7's deadline mix.
MEAN_DELAY_TARGETS = {7: 40.0, 8: 25.0}
DEADLINE_MIX = {
    7: QosSpec(kind="hard_deadline", deadline_slots=180, drop_ratio_target=0.02,
               theta_hat=2.0),
    8: QosSpec(kind="mean_delay", target_slots=50.0, theta_hat=1.5),
}
SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def mesh_runs():
    """The flows of Tier-1's 23 1e5-slot mesh runs, from one run_jobs call on
    two workers, and the time of all 23.

    Keyed by "deadline" (acceptance criterion 7), "targets" (criterion 6) and
    optimizer cycles 5 and 1 (no QoS; criterion 5), five seeds each, and
    cycles 10 (no QoS, seeds 1-3; the engine's delay band test). Only each
    run's flows are kept; its ~14k period records stay in the worker.
    """
    base = with_qos(bundled_preset_config(), {})
    # The longest runs first, so that the two workers finish close together.
    configs = {
        "deadline": (with_qos(base, DEADLINE_MIX), SEEDS),
        "targets": (with_qos(base, {
            fid: QosSpec(kind="mean_delay", target_slots=t, theta_hat=6.0)
            for fid, t in MEAN_DELAY_TARGETS.items()
        }), SEEDS),
        10: (with_optimizer(base, cycles=10), (1, 2, 3)),
        5: (with_optimizer(base, cycles=5), SEEDS),
        1: (with_optimizer(base, cycles=1), SEEDS),
    }
    jobs = [(cfg, seed, 100_000) for cfg, seeds in configs.values() for seed in seeds]
    t0 = time.monotonic()
    flows = iter([f for f, _ in run_jobs(jobs, workers=2)])
    elapsed = time.monotonic() - t0
    return {key: [next(flows) for _ in seeds] for key, (_, seeds) in configs.items()}, elapsed
