"""Run the benchmark once per seed on each workload and summarise each
end-to-end metric by its median, quartiles and spread (interquartile
distance over the median), as a JSON document on stdout.

    python3 bench/spread.py --seeds 1-10 [--workload NAME ...] [--trace-seed N]

With ``--trace-seed`` it also runs ``--trace 1`` twice with that seed per
workload, keeps the per-layer counts and reports whether they repeat.
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

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def counts(result):
    """The deterministic per-layer numbers: every metric that is not a time."""
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] != "s" and k != "trace.overhead_ratio"}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace-seed", type=int)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": config["run_seconds"], "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in workloads:
        results = [run_once(workload, s, config["run_seconds"], 0) for s in report["seeds"]]
        entry = {
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {m["name"]: summarise([r["metrics"][m["name"]]["value"] for r in results])
                           for m in config["end_to_end"]},
        }
        if args.trace_seed is not None:
            a, b = (counts(run_once(workload, args.trace_seed, config["run_seconds"], 1))
                    for _ in range(2))
            entry["trace"] = {"seed": args.trace_seed, "counts_repeat": a == b, "counts": a}
        report["workloads"][workload] = entry
        print(f"{workload}: " + ", ".join(f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
                                          for k, v in entry["end_to_end"].items()), file=sys.stderr)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
