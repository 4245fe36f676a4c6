import math
from dataclasses import replace

import numpy as np
import pytest

from drainsched.control import (
    QosSpec,
    build_slot_schedule,
    next_review_time,
    update_qos_weights,
)
from drainsched.engine import FlowMetrics
from drainsched.network import ConfigError, Flow, NetworkSpec, build_constraints, \
    build_link_flow_index, derive_interference_sets


def star_constraints(n_branches, n_nodes=None):
    flows = tuple(
        Flow(source=0, destination=d, routes=((0, d),), arrival_rate=1.0)
        for d in range(1, n_branches + 1)
    )
    n_nodes = n_nodes or n_branches + 1
    positions = tuple((0.07 * v, 0.11 * v % 1.0) for v in range(n_nodes))
    spec = derive_interference_sets(
        NetworkSpec(
            positions=positions,
            links=tuple((0, d) for d in range(1, n_branches + 1)),
            flows=flows,
        )
    )
    entries = build_link_flow_index(spec)
    return entries, build_constraints(entries, spec)


class TestNextReviewTime:
    def test_zero_backlog_floor_one_slot(self):
        assert next_review_time(100, 0.0) == 101

    def test_analytic_one_slot(self):
        assert next_review_time(0, math.e - 1.0, 1.0, 1.0) == 1

    def test_analytic_five_slots(self):
        assert next_review_time(10, 100.0, 1.0, 1.0) == 15

    def test_negative_backlog_rejected(self):
        with pytest.raises(ValueError):
            next_review_time(0, -1.0)

    @pytest.mark.parametrize("backlog, a1, a2, message", [
        (math.nan, 1.0, 1.0, "total backlog must be finite"),
        (math.inf, 1.0, 1.0, "total backlog must be finite"),
        (-math.inf, 1.0, 1.0, "total backlog must be finite"),
        (10.0, math.nan, 1.0, "review constants"),
        (10.0, math.inf, 1.0, "review constants"),
        (10.0, 1.0, math.nan, "review constants"),
        (10.0, 1.0, math.inf, "review constants"),
    ])
    def test_non_finite_input_rejected_with_own_message(self, backlog, a1, a2, message):
        with pytest.raises(ValueError, match=message):
            next_review_time(0, backlog, a1, a2)

    @pytest.mark.parametrize("backlog, a1, a2", [
        (10.0, 1.0e308, 1.0),
        (2.0, 1.0, 1.0e308),
        (1.0e300, 1.0e308, 1.0e308),
    ])
    def test_window_that_overflows_is_config_error(self, backlog, a1, a2):
        with pytest.raises(ConfigError, match=r"^control\.a1/control\.a2: review window"):
            next_review_time(0, backlog, a1, a2)

    def test_largest_finite_window_is_returned(self):
        # a1 * ln(1 + e - 1) = a1: finite, however large.
        assert next_review_time(0, math.e - 1.0, 1.0e308, 1.0) > 10**307


class TestQosSpec:
    def test_mean_delay_requires_target(self):
        with pytest.raises(ConfigError, match="target_slots"):
            QosSpec(kind="mean_delay")

    def test_hard_deadline_requires_ratio(self):
        with pytest.raises(ConfigError, match="drop_ratio_target"):
            QosSpec(kind="hard_deadline", deadline_slots=100)

    def test_theta_hat_must_exceed_one(self):
        with pytest.raises(ConfigError, match="theta_hat"):
            QosSpec(kind="mean_delay", target_slots=10, theta_hat=1.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind"):
            QosSpec(kind="jitter")

    @pytest.mark.parametrize("field, value", [
        ("target_slots", math.inf),
        ("theta_hat", math.nan),
        ("theta_hat", math.inf),
        ("deadline_slots", math.inf),
    ])
    def test_non_finite_value_named(self, field, value):
        spec = (
            QosSpec(kind="hard_deadline", deadline_slots=100, drop_ratio_target=0.02)
            if field == "deadline_slots"
            else QosSpec(kind="mean_delay", target_slots=10.0)
        )
        with pytest.raises(ConfigError, match=f"finite {field}|{field} must be finite"):
            replace(spec, **{field: value})


class TestUpdateQosWeights:
    def test_mean_delay_violation_raises_weight(self):
        specs = {7: QosSpec(kind="mean_delay", target_slots=50, theta_hat=6.0)}
        flows = {7: FlowMetrics(delivered=100, delay_sum=5100)}  # mean 51
        assert update_qos_weights(specs, flows) == {7: 6.0}

    def test_mean_delay_at_target_stays_one(self):
        specs = {7: QosSpec(kind="mean_delay", target_slots=50, theta_hat=6.0)}
        flows = {7: FlowMetrics(delivered=100, delay_sum=5000)}  # mean 50 exactly
        assert update_qos_weights(specs, flows) == {7: 1.0}

    def test_late_fraction_at_target_stays_one(self):
        specs = {5: QosSpec(kind="hard_deadline", deadline_slots=180,
                            drop_ratio_target=0.02, theta_hat=2.0)}
        flows = {5: FlowMetrics(delivered=100, delay_sum=0, late=2)}  # exactly 2%
        assert update_qos_weights(specs, flows) == {5: 1.0}

    def test_late_fraction_above_target(self):
        specs = {5: QosSpec(kind="hard_deadline", deadline_slots=180,
                            drop_ratio_target=0.02, theta_hat=2.0)}
        flows = {5: FlowMetrics(delivered=100, delay_sum=0, late=3)}
        assert update_qos_weights(specs, flows) == {5: 2.0}

    def test_no_spec_weighs_one(self):
        assert update_qos_weights({9: None}, {9: FlowMetrics(delivered=10)}) == {9: 1.0}

    def test_no_deliveries_weigh_one(self):
        specs = {7: QosSpec(kind="mean_delay", target_slots=1, theta_hat=4.0)}
        assert update_qos_weights(specs, {7: FlowMetrics()}) == {7: 1.0}

    def test_pure_function_replays(self):
        specs = {
            7: QosSpec(kind="mean_delay", target_slots=40, theta_hat=6.0),
            8: QosSpec(kind="hard_deadline", deadline_slots=120,
                       drop_ratio_target=0.05, theta_hat=3.0),
            9: None,
        }
        flows = {
            7: FlowMetrics(delivered=10, delay_sum=900),
            8: FlowMetrics(delivered=50, delay_sum=100, late=10),
            9: FlowMetrics(delivered=3, delay_sum=3),
        }
        first = update_qos_weights(specs, flows)
        assert first == update_qos_weights(specs, flows)
        assert first == {7: 6.0, 8: 3.0, 9: 1.0}


class TestBuildSlotSchedule:
    def test_half_rate_single_link_gets_half_the_window(self):
        entries, cons = star_constraints(1)
        sched = build_slot_schedule(np.array([0.5]), 10, cons)
        assert sched.assigned == (5,)

    def test_two_conflicting_links_never_co_active(self):
        entries, cons = star_constraints(2)
        sched = build_slot_schedule(np.array([1.0, 1.0]), 10, cons)
        for active in sched.active_by_offset:
            assert len(active) <= 1
        assert sum(sched.assigned) <= 10
        assert sched.count_violations(cons) == 0

    def test_three_branch_star_fills_4_4_2(self):
        entries, cons = star_constraints(3)
        sched = build_slot_schedule(np.array([0.4, 0.4, 0.4]), 10, cons)
        assert sched.assigned == (4, 4, 2)

    def test_quota_rounding_bumps_above_half(self):
        entries, cons = star_constraints(1)
        assert build_slot_schedule(np.array([0.26]), 10, cons).quota == (3,)  # 2.6
        assert build_slot_schedule(np.array([0.24]), 10, cons).quota == (2,)  # 2.4
        assert build_slot_schedule(np.array([0.25]), 10, cons).quota == (2,)  # 2.5 no bump

    def test_quota_never_exceeds_ceiling_or_window(self):
        rng = np.random.default_rng(5)
        entries, cons = star_constraints(4)
        from drainsched.optim import finalize_feasible

        for _ in range(200):
            s = finalize_feasible(rng.uniform(0, 1.5, 4), cons)
            window = int(rng.integers(1, 15))
            sched = build_slot_schedule(s, window, cons)
            for k in range(4):
                target = float(s[k]) * window
                assert sched.assigned[k] <= sched.quota[k] <= math.ceil(target) <= window + 1
                assert sched.quota[k] in (math.floor(target), math.ceil(target))
                assert sched.assigned[k] <= window
            assert sched.count_violations(cons) == 0

    def test_window_must_be_positive(self):
        entries, cons = star_constraints(1)
        with pytest.raises(ValueError):
            build_slot_schedule(np.array([0.5]), 0, cons)
