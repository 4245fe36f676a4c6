"""drainsched benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload mesh10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. A run:

1. sets the workload up several times and keeps the median (``setup_s``);
2. runs one checked job: for the mesh workloads with invariant checking on,
   which must report no conservation or interference violation, and whose
   JSON export digest is the reference for every later job of the run (and
   must equal the digest in golden.json for the recorded seed);
3. repeats jobs for ``--seconds`` seconds and reports medians. With
   ``--trace 1`` every untraced job is followed by a traced one, and the
   per-layer metrics come from the traced jobs' spans.

After the timed jobs, one more job runs under tracemalloc, and its peak is
``heap_peak_mb``: the memory that the workload's own objects and arrays
take, without the interpreter and its imports.

Times are reported at a reference host speed: the host-speed probe
(hostspeed.py) runs before every job and after the last, and each job's
times are scaled by PROBE_REF_S over the mean of the probes around it.

Every metric is printed with its name and unit, then the last line of
standard output is the JSON result. See NOTES.md for what each workload and
metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
SETUP_REPS = 7
MIN_JOBS = 3

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "job_s": "s",
    "setup_s": "s",
    "heap_peak_mb": "MB",
}


def add_source_path() -> bool:
    """Make the checkout's drainsched importable; False if it has no source."""
    src = ROOT / "src"
    if not (src / "drainsched" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def measure(workload_name: str, workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload as described above and return the result object."""
    from hostspeed import PROBE_REF_S, probe_s
    from tracing import Tracer, patched
    from workloads import Seen, layer_metrics, trace_targets

    OUT.mkdir(exist_ok=True)
    export_path = OUT / f"export-{workload_name}-seed{seed}-{os.getpid()}.json"

    setup_probes = [probe_s()]
    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        workload.setup(seed)
        setup.append(time.perf_counter() - t0)
    setup_probes.append(probe_s())

    ref = workload.job(seed, export_path, check=True)
    print(f"reference digest sha256={ref.digest} seed={seed} ops={ref.ops}")
    attempted, failed = ref.checks, ref.bad
    golden = json.loads(GOLDEN.read_text())[workload_name]
    if (golden["seed"], golden["ops"]) == (seed, ref.ops) and golden["sha256"] != ref.digest:
        print(f"digest differs from golden.json ({golden['sha256']})")
        failed = attempted

    def checked(job):
        nonlocal attempted, failed
        attempted += job.checks
        failed += job.bad if job.digest == ref.digest else job.checks
        return job

    tracer, seen = Tracer(), Seen()
    root = tracer.name_id("bench.job")
    targets = trace_targets(tracer, seen) if trace else []
    untraced, traced, probes = [], [], []
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_JOBS or time.perf_counter() < deadline:
        probes.append(probe_s())
        untraced.append(checked(workload.job(seed, export_path)))
        if trace:
            with patched(targets):
                job = tracer.call(root, workload.job, (seed, export_path), {})
            traced.append(checked(job))
    probes.append(probe_s())
    # A full collection first puts the collector in the same state on every
    # run, so the peak repeats for a seed. Tracemalloc slows the job about
    # 20-fold, so it is not timed.
    gc.collect()
    tracemalloc.start()
    checked(workload.job(seed, export_path))
    heap_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    export_path.unlink(missing_ok=True)

    raw = {
        "ops_per_s": statistics.median(j.ops / j.work_s for j in untraced),
        "job_s": statistics.median(j.total_s for j in untraced),
        "setup_s": statistics.median(setup),
    }
    print("unscaled:", ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    job_scale = [2 * PROBE_REF_S / (a + b) for a, b in zip(probes, probes[1:])]
    values = {
        "ops_per_s": statistics.median(
            j.ops / (j.work_s * c) for j, c in zip(untraced, job_scale)
        ),
        "job_s": statistics.median(j.total_s * c for j, c in zip(untraced, job_scale)),
        "setup_s": raw["setup_s"] * 2 * PROBE_REF_S / sum(setup_probes),
        "heap_peak_mb": heap_peak_mb,
    }
    metrics = {name: (v, END_TO_END_UNITS[name]) for name, v in values.items()}
    if trace:
        # The end-to-end figures of a traced run are printed but not reported:
        # its traced jobs share the probes with the untraced ones.
        for name, (v, unit) in metrics.items():
            print(f"{name} = {v:.6g} {unit} (traced run, not reported)")
        summary = tracer.summary()
        scale = PROBE_REF_S / statistics.median(probes)
        metrics = layer_metrics(summary, seen, traced, untraced, scale)
        np.savez(
            OUT / f"trace-{workload_name}-seed{seed}.npz",
            spans=tracer.spans(), names=np.array(tracer.names),
        )
        for name in tracer.names:
            print(f"span {name}: {summary.count(name)} samples")
    print(f"host speed: median probe {statistics.median(probes):.4f} s over {len(probes)} probes")
    print(f"jobs: {len(untraced)} untraced, {len(traced)} traced; {attempted} checks, {failed} failed")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mesh10", "mesh10-longwin-deadline", "oracle-battery"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("--seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    if not add_source_path():
        print(f"no drainsched source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    result = measure(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
