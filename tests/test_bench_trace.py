"""The benchmark's traced runs find every function they time.

perfbench/workloads.py replaces drainsched functions by name (for example
engine.build_link_flow_index) with span-recording wrappers. A rename in the
package would break the benchmark, and a function taken off the path a job
runs would leave its span silent; this guard catches both. perfbench/ is only
read: it is put on sys.path and nothing is written there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

REVIEW_SPANS = (
    "engine.review_slot",
    "channel.draw_gains",
    "channel.rate_table",
    "control.update_qos_weights",
    "control.next_review_time",
    "control.build_slot_schedule",
    "optim.weight_vector",
    "optim.solve",
    "optim.finalize_feasible",
)
NETWORK_SPANS = (
    "network.derive_interference_sets",
    "network.build_link_flow_index",
    "network.build_constraints",
)
# Simulation.run() calls step() only on review slots and runs the other
# slots of a window in one _advance call, so this span no longer fires.
SILENT_SPANS = {"engine.slot"}


@pytest.fixture()
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import tracing
    import workloads

    return tracing, workloads


def traced(bench, jobs):
    """Run each job under the benchmark's wrappers; the tracer and the jobs' results."""
    tracing, workloads = bench
    tracer = tracing.Tracer()
    targets = workloads.trace_targets(tracer, workloads.Seen())  # every name resolves
    with tracing.patched(targets):
        results = [job() for job in jobs]
    return tracer, results


def test_mesh_job_fires_every_review_and_network_build_span(bench, tmp_path):
    _, workloads = bench
    mesh = workloads.MeshWorkload(horizon=300)
    tracer, (job,) = traced(bench, [lambda: mesh.job(1, tmp_path / "mesh.json")])
    summary = tracer.summary()
    reviews = job.stats["engine.reviews"]
    assert reviews > 0
    for name in REVIEW_SPANS:
        assert summary.count(name) >= reviews, name
    assert summary.count("engine.review_slot") == reviews
    for name in NETWORK_SPANS:
        assert summary.count(name) == 1, name


def test_every_traced_name_fires_in_some_workload(bench, tmp_path):
    _, workloads = bench
    mesh = workloads.MeshWorkload(horizon=300, a1=8.0, table2_qos=True)
    battery = workloads.BatteryWorkload(size=2)
    tracer, _ = traced(bench, [
        lambda: mesh.job(1, tmp_path / "longwin.json"),
        lambda: battery.job(0),
    ])
    summary = tracer.summary()
    silent = {name for name in tracer.names if summary.count(name) == 0}
    assert silent == SILENT_SPANS
