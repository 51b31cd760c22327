#!/usr/bin/env python3
"""Smoke test: one workload at its tiny size, untraced and traced.

    python3 smoke_test.py <path to cpqbench binary> <workload>

Checks that both runs exit 0, pass their correctness checks, print every
metric BENCHMARK.json names for that mode (with its unit) in the final
JSON line, print the full end-to-end table and, when traced, the
self-time identity.
"""

import json
import math
import os
import subprocess
import sys


def fail(message: str) -> None:
    print("FAIL: " + message)
    sys.exit(1)


def run(binary: str, workload: str, trace: int) -> tuple[str, dict]:
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=240)
    print(out.stdout)
    if out.returncode != 0:
        fail(f"trace={trace}: exit status {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"trace={trace}: correct={result['correct']} "
             f"failed={result['failed']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"trace={trace}: attempted={result['attempted']}")
    return out.stdout, result["metrics"]


def check_metrics(metrics: dict, wanted: list, trace: int) -> None:
    if set(metrics) != {m["name"] for m in wanted}:
        fail(f"trace={trace}: metric names differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics[m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            fail(f"trace={trace}: {m['name']} = {got}")


def main() -> None:
    binary, workload = sys.argv[1], sys.argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    if workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"{workload} is not a BENCHMARK.json workload")

    text, metrics = run(binary, workload, 0)
    check_metrics(metrics, spec["end_to_end"], 0)
    for name in ("qps", "latency_p50_ms", "latency_p99_ms",
                 "disk_accesses_per_query", "inserts_per_s", "insert_p99_us",
                 "setup_s", "peak_rss_mb", "failed_frac"):
        if f"  {name} " not in text:
            fail(f"end-to-end table lacks {name}")
    for name in ("qps", "latency_p50_ms", "latency_p99_ms", "setup_s"):
        if not metrics[name]["value"] > 0:
            fail(f"{name} is {metrics[name]['value']}")

    text, metrics = run(binary, workload, 1)
    check_metrics(metrics, spec["per_layer"], 1)
    if "# identity over " not in text:
        fail("traced run printed no self-time identity")
    print(f"OK {workload}")


if __name__ == "__main__":
    main()
