"""Self-test of the benchmark at tiny lengths.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with tiny jobs (300 slots, 20
instances) and checks that each run reports exactly the metrics
BENCHMARK.json names for that mode, with the declared units and finite
values, that every name matches [A-Za-z0-9_.-]+, and that the result
object has the shape the benchmark promises. Exits 1 on the first failure.
The oracle battery, which BENCHMARK.json does not list (see NOTES.md), is
checked the same way, against the same metric names.
"""

from __future__ import annotations

import json
import math
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def main() -> int:
    if not run.add_source_path():
        print("no drainsched source next to the benchmark", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BatteryWorkload, MeshWorkload

    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    tiny = {
        "mesh10": MeshWorkload(horizon=300),
        "mesh10-longwin-deadline": MeshWorkload(horizon=300, a1=8.0, table2_qos=True),
        "oracle-battery": BatteryWorkload(size=20),
    }
    assert set(tiny) == set(WORKLOADS) >= {w["name"] for w in declared["workloads"]}
    for name, workload in tiny.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(name, workload, seed=3, seconds=0.01, trace=trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            assert result["correct"] == (result["failed"] == 0)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = result["metrics"]
            assert set(got) == set(want), (name, key, set(got) ^ set(want))
            for metric, value in got.items():
                assert NAME.fullmatch(metric), metric
                assert value["unit"] == want[metric], (metric, value["unit"], want[metric])
                assert isinstance(value["value"], (int, float)), metric
                assert math.isfinite(value["value"]), (metric, value["value"])
            print(f"selftest {name} trace={int(trace)}: ok ({len(got)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
