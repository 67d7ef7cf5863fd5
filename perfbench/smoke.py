#!/usr/bin/env python3
"""Smoke check of the benchmark: each workload once untraced, once traced.

    python3 perfbench/smoke.py            # toy configs, about a minute
    python3 perfbench/smoke.py --full     # benchmark scale, a few minutes

For every workload in BENCHMARK.json it asserts that the run is correct with
``ops_failed_frac`` 0, that every declared metric is emitted with its unit and
nothing else is, and that the traced run's report digests equal the untraced
run's for the operations both made. It prints the tracing overhead (traced minus untraced median
operation latency). Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600


def run_once(spec: dict, workload: str, trace: int, full: bool) -> tuple:
    seconds = spec["run_seconds"] if full else 1
    cmd = [*spec["command"], "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    if not full:
        cmd.append("--toy")
    proc = subprocess.run([sys.executable if c == "python3" else c
                           for c in cmd], cwd=ROOT, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="benchmark-scale configs and run_seconds")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for w in spec["workloads"]:
        name = w["name"]
        digests = {}
        latency = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            record, result = run_once(spec, name, trace, args.full)
            label = f"{name} trace={trace}"
            check(result["correct"], f"{label}: not correct: {record['errors']}")
            check(result["failed"] == 0 and record["ops_failed_frac"] == 0,
                  f"{label}: ops_failed_frac {record['ops_failed_frac']}")
            declared = {m["name"]: m["unit"] for m in spec[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == declared,
                  f"{label}: emitted {sorted(set(emitted) ^ set(declared))} "
                  "differ from BENCHMARK.json, or units differ")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{label}: non-numeric metric value")
            digests[trace] = record["report_digests"]
            latency[trace] = (result["metrics"]["op_p50_ms"]["value"]
                              if trace == 0 else
                              result["metrics"]["bench.traced_op_p50_ms"]["value"])
        # Runs may differ in length; the operations both made must agree.
        common = min(len(digests[0]), len(digests[1]))
        check(common >= 1 and digests[0][:common] == digests[1][:common],
              f"{name}: traced digests {digests[1]} != untraced {digests[0]}")
        print(f"{name}: ok; tracing overhead "
              f"{latency[1] - latency[0]:+.3f} ms on op_p50_ms "
              f"{latency[0]:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
