#!/usr/bin/env python3
"""Run the benchmark several times per workload and record the baseline.

Usage (from the root of a checkout):

    python3 perfbench/record.py [--runs 10] [--first-seed 1] [--out perfbench/baseline.json]

For each workload: --runs untraced runs with seeds first-seed, first-seed+1,
..., then two traced runs with the first seed.  Writes the median and the
quartile spread (Q3 - Q1) / median of every end-to-end metric, the error
rate, the per-layer metrics of the first traced run, and whether the traced
counts repeated exactly.  Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_SUFFIXES = (".calls", ".in_degree", ".out_degree_max", ".coeff_bits_max",
                  ".out_terms", ".factors", ".remainder_degree", ".flagged_variants")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    record = {
        "python": platform.python_version(),
        "commit": commit(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(bench(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
        traced = [bench(name, args.first_seed, seconds, 1) for _ in range(2)]
        end_to_end = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            end_to_end[metric["name"]] = {
                "median": med, "spread": (q3 - q1) / med, "bound": metric["bound"],
                "unit": metric["unit"], "values": values,
            }
        layers = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        repeat = all(traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"]
                     for k in layers if k.endswith(COUNT_SUFFIXES))
        record["workloads"][name] = {
            "queries_per_run": runs[0]["attempted"],
            "queries_per_traced_run": traced[0]["attempted"],
            "correct": all(r["correct"] for r in runs + traced),
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": layers,
            "traced_counts_repeat": repeat,
        }
        print(f"{name}: " + ", ".join(f"{k} median {v['median']:.4g} spread {v['spread']:.3f}"
                                      for k, v in end_to_end.items()), flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
