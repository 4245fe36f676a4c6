"""The benchmark's workloads, driven through drainsched's public API.

A job is one unit of work as a user runs it. For the mesh workloads that is
what ``drainsched run --format json`` does for one seed: build the config,
construct the Simulation, run it and export the report as JSON. For the
oracle battery it is one pass of ``oracle-check``: generate each instance,
solve it with the cyclic optimizer and with the exact oracle, and check the
criterion-1 rule.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field, replace

from drainsched import channel, config, control, engine, experiments, instances, optim, oracle

from tracing import SpanSummary, percentile

LAYERS = (
    "config", "network", "channel", "control", "optim",
    "engine", "oracle", "instances", "experiments",
)
DEADLINE_FLOW = 7  # the hard-deadline flow of table2's first row
CYCLES = 50  # the criterion-1 battery's solver budget


@dataclass
class Job:
    ops: int  # simulated slots or battery instances
    work_s: float  # time of those operations alone
    total_s: float  # the whole job
    digest: str  # sha256 of the job's answers
    checks: int  # operations whose answers were checked
    bad: int  # of those, how many broke the workload's own rule
    stats: dict = field(default_factory=dict)  # simulated statistics
    export_bytes: int = 0


class MeshWorkload:
    """The bundled mesh10 preset, optionally with table2's first QoS row and a longer review clock."""

    def __init__(self, horizon: int, a1: float | None = None, table2_qos: bool = False):
        self.ops = horizon
        self.a1 = a1
        self.table2_qos = table2_qos

    def build_config(self):
        cfg = experiments.bundled_preset_config()
        if self.table2_qos:
            deadline, ratio, target8 = experiments.TABLE2_ROWS[0]
            theta7, theta8 = experiments.TABLE2_THETA
            cfg = config.with_qos(cfg, {
                DEADLINE_FLOW: control.QosSpec(
                    kind="hard_deadline", deadline_slots=deadline,
                    drop_ratio_target=ratio, theta_hat=theta7,
                ),
                8: control.QosSpec(kind="mean_delay", target_slots=target8, theta_hat=theta8),
            })
        if self.a1 is not None:
            cfg = replace(cfg, control=replace(cfg.control, a1=self.a1))
        return cfg

    def setup(self, seed: int) -> None:
        engine.Simulation(self.build_config(), seed=seed, horizon=self.ops)

    def job(self, seed: int, export_path, check: bool = False) -> Job:
        t0 = time.perf_counter()
        sim = engine.Simulation(
            self.build_config(), seed=seed, horizon=self.ops, check_invariants=check
        )
        t1 = time.perf_counter()
        report = sim.run()
        t2 = time.perf_counter()
        experiments.export_metrics(report, "json", export_path)
        t3 = time.perf_counter()
        data = export_path.read_bytes()
        violations = report.conservation_violations + report.interference_violations
        delivered = sum(fm.delivered for fm in report.flows.values())
        deadline_flow = report.flows[DEADLINE_FLOW]
        return Job(
            ops=self.ops,
            work_s=t2 - t1,
            total_s=t3 - t0,
            digest=hashlib.sha256(data).hexdigest(),
            checks=1,
            bad=int(violations > 0),
            export_bytes=len(data),
            stats={
                "engine.mean_delay_slots":
                    sum(fm.delay_sum for fm in report.flows.values()) / max(delivered, 1),
                "engine.deadline_drop_ratio":
                    deadline_flow.late / max(deadline_flow.delivered, 1),
                "engine.backlog_mean_pkts": sum(report.queue_avg.values()),
                "engine.reviews": len(report.periods),
                "engine.delivered_pkts": delivered,
            },
        )


class BatteryWorkload:
    """Criterion-1 battery: random instances of at most 6 coordinates, 50 cycles, exact oracle."""

    def __init__(self, size: int):
        self.ops = size

    def _seeds(self, seed: int) -> range:
        return range(seed * self.ops, (seed + 1) * self.ops)

    def setup(self, seed: int) -> None:
        for s in self._seeds(seed):
            instances.random_instance(s)

    def job(self, seed: int, export_path=None, check: bool = False) -> Job:
        rows = []
        t0 = time.perf_counter()
        for s in self._seeds(seed):
            inst = instances.random_instance(s)
            params = optim.OptParams(step_size=inst.step_size, cycles=CYCLES)
            sol, diag = optim.solve_review_optimization(inst.weights, inst.constraints, params)
            _, best = oracle.oracle_solve(inst.weights, inst.constraints)
            rows.append((best, optim.objective(sol, inst.weights), diag.c3))
        t1 = time.perf_counter()
        bad = sum(
            1 for best, got, c3 in rows
            if got > best + 1e-9 or best - got > max(c3, 0.01 * best)
        )
        return Job(
            ops=self.ops,
            work_s=t1 - t0,
            total_s=t1 - t0,
            digest=hashlib.sha256(repr(rows).encode()).hexdigest(),
            checks=self.ops,
            bad=bad,
            stats={
                "optim.oracle_gap_rel_p50":
                    statistics.median((best - got) / best for best, got, _ in rows),
            },
        )


# oracle-battery is not listed in BENCHMARK.json: the criterion-1 rule fails
# on about 0.11% of random_instance seeds (see NOTES.md), so most of its runs
# report failures. It stays runnable by hand, with its check unchanged.
WORKLOADS = {
    "mesh10": MeshWorkload(horizon=10_000),
    "mesh10-longwin-deadline": MeshWorkload(horizon=30_000, a1=8.0, table2_qos=True),
    "oracle-battery": BatteryWorkload(size=1000),
}


class Seen:
    """Values the traced wrappers read off returned objects."""

    def __init__(self):
        self.broadcasts: list[int] = []
        self.quota = 0
        self.assigned = 0
        self.windows: list[int] = []

    def solve(self, out) -> None:
        self.broadcasts.append(out[1].excess_broadcasts)

    def schedule(self, sched) -> None:
        self.quota += sum(sched.quota)
        self.assigned += sum(sched.assigned)
        self.windows.append(sched.window)


def trace_targets(tracer, seen: Seen) -> list:
    """(owner, attribute, wrapper) for every public function a job reaches.

    Each wrapper goes where its caller looks the name up: the engine's own
    namespace for what it imports by name, the module for what is reached
    through it.
    """
    w = tracer.wrap
    sim = engine.Simulation
    step = sim.step
    call = tracer.call
    slot = tracer.name_id("engine.slot")
    review = tracer.name_id("engine.review_slot")

    def traced_step(self):
        return call(review if self.t == self.t_rev else slot, step, (self,), {})

    return [
        (experiments, "bundled_preset_config",
         w("experiments.bundled_preset_config", experiments.bundled_preset_config)),
        (experiments, "parse_config", w("config.parse_config", experiments.parse_config)),
        (config, "derive_interference_sets",
         w("network.derive_interference_sets", config.derive_interference_sets)),
        (config, "with_qos", w("config.with_qos", config.with_qos)),
        (experiments, "export_metrics", w("experiments.export_metrics", experiments.export_metrics)),
        (sim, "__init__", w("engine.init", sim.__init__)),
        (sim, "step", traced_step),
        (engine, "build_link_flow_index",
         w("network.build_link_flow_index", engine.build_link_flow_index)),
        (engine, "build_constraints", w("network.build_constraints", engine.build_constraints)),
        (channel, "draw_gains", w("channel.draw_gains", channel.draw_gains)),
        (channel, "rate_table", w("channel.rate_table", channel.rate_table)),
        (engine, "update_qos_weights", w("control.update_qos_weights", engine.update_qos_weights)),
        (engine, "next_review_time", w("control.next_review_time", engine.next_review_time)),
        (engine, "build_slot_schedule",
         w("control.build_slot_schedule", engine.build_slot_schedule, seen.schedule)),
        (engine, "WeightVector", w("optim.weight_vector", engine.WeightVector)),
        (engine, "solve_review_optimization",
         w("optim.solve", engine.solve_review_optimization, seen.solve)),
        (optim, "finalize_feasible", w("optim.finalize_feasible", optim.finalize_feasible)),
        (optim, "solve_review_optimization",
         w("optim.solve", optim.solve_review_optimization, seen.solve)),
        (optim, "objective", w("optim.objective", optim.objective)),
        (oracle, "oracle_solve", w("oracle.solve", oracle.oracle_solve)),
        (instances, "random_instance", w("instances.random_instance", instances.random_instance)),
        (instances, "derive_interference_sets",
         w("network.derive_interference_sets", instances.derive_interference_sets)),
        (instances, "build_link_flow_index",
         w("network.build_link_flow_index", instances.build_link_flow_index)),
        (instances, "build_constraints", w("network.build_constraints", instances.build_constraints)),
        (instances, "WeightVector", w("optim.weight_vector", instances.WeightVector)),
    ]


def layer_metrics(
    sm: SpanSummary, seen: Seen, traced: list[Job], untraced: list[Job], scale: float
) -> dict:
    """Per-layer metrics of a traced run as name -> (value, unit).

    Times are multiplied by the run's host-speed scale. A span that never
    fired reads 0.
    """

    def us(name, p, self_time=False):
        values = sm.self_s(name) if self_time else sm.durations_s(name)
        return percentile(values, p) * 1e6 * scale, "us"

    def median_s(name):
        return percentile(sm.durations_s(name), 50) * scale, "s"

    builds = sm.count("network.build_constraints")
    network_build = sum(
        float(sm.durations_s(n).sum())
        for n in ("network.build_link_flow_index", "network.build_constraints")
    )
    job_total = float(sm.durations_s("bench.job").sum())
    last = traced[-1]
    stats = {
        "engine.mean_delay_slots": (0.0, "slots"),
        "engine.deadline_drop_ratio": (0.0, "frac"),
        "engine.backlog_mean_pkts": (0.0, "pkts"),
        "engine.reviews": (0, "count"),
        "engine.delivered_pkts": (0, "count"),
        "optim.oracle_gap_rel_p50": (0.0, "frac"),
    }
    for name, value in last.stats.items():
        stats[name] = (value, stats[name][1])
    out = {
        "channel.draw_gains_us_p50": us("channel.draw_gains", 50),
        "channel.draw_gains_us_p99": us("channel.draw_gains", 99),
        "channel.rate_table_us_p50": us("channel.rate_table", 50),
        "optim.solve_us_p50": us("optim.solve", 50),
        "optim.solve_us_p99": us("optim.solve", 99),
        "optim.solve_self_us_p50": us("optim.solve", 50, self_time=True),
        "optim.finalize_feasible_us_p50": us("optim.finalize_feasible", 50),
        "optim.weight_vector_us_p50": us("optim.weight_vector", 50),
        "optim.excess_broadcasts_per_solve": (
            statistics.fmean(seen.broadcasts) if seen.broadcasts else 0.0, "count"),
        "control.build_slot_schedule_us_p50": us("control.build_slot_schedule", 50),
        "control.build_slot_schedule_us_p99": us("control.build_slot_schedule", 99),
        "control.update_qos_weights_us_p50": us("control.update_qos_weights", 50),
        "control.next_review_time_us_p50": us("control.next_review_time", 50),
        "control.rounding_loss_frac": (
            (seen.quota - seen.assigned) / seen.quota if seen.quota else 0.0, "frac"),
        "control.window_slots_mean": (
            statistics.fmean(seen.windows) if seen.windows else 0.0, "slots"),
        "engine.slot_us_p50": us("engine.slot", 50),
        "engine.slot_us_p99": us("engine.slot", 99),
        "engine.review_self_us_p50": us("engine.review_slot", 50, self_time=True),
        "engine.init_s": median_s("engine.init"),
        "network.build_s": (network_build / builds * scale if builds else 0.0, "s"),
        "config.parse_s": median_s("config.parse_config"),
        "oracle.solve_us_p50": us("oracle.solve", 50),
        "oracle.solve_us_p99": us("oracle.solve", 99),
        "instances.random_instance_us_p50": us("instances.random_instance", 50),
        "experiments.export_json_s": median_s("experiments.export_metrics"),
        "experiments.export_bytes": (last.export_bytes, "B"),
        **stats,
    }
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = (sm.layer_self_s(layer) / job_total, "frac")
    overhead = (
        statistics.median(j.work_s for j in traced)
        / statistics.median(j.work_s for j in untraced) - 1.0
    )
    out["trace.overhead_frac"] = (overhead, "frac")
    return out
