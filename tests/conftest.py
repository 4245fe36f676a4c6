"""Helpers shared by the test modules, which import them from here so that no
test module imports another."""

from dataclasses import replace
from typing import NamedTuple

import pytest

from drainsched import engine
from drainsched.config import SimConfig, with_qos
from drainsched.control import QosSpec
from drainsched.experiments import TABLE2_ROWS, TABLE2_THETA, bundled_preset_config
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
