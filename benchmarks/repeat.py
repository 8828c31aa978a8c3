#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 benchmarks/repeat.py --seeds 1-10
    python3 benchmarks/repeat.py --workloads sweep-imperfect --seeds 1-5
    python3 benchmarks/repeat.py --seeds 1-10 --label seed   # also writes BENCH_seed.json

For every workload it runs `run.py --trace 0` once per seed, one run at a
time, for BENCHMARK.json's run_seconds, and prints per end-to-end metric the
median, the quartiles and the spread: the distance between the quartiles of
`statistics.quantiles(values, n=4)` as a share of the median. A spread above a
third of the metric's bound is flagged. With --label, one traced run per
workload (on the first seed) adds the per-layer metrics, and everything is
written to benchmarks/BENCH_<label>.json.
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

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread_of(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10 or a list like 3,7")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--label", help="write benchmarks/BENCH_<label>.json")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    record = {
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "run_seconds": args.seconds, "seeds": seeds, "workloads": {},
    }
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in results[-1]["metrics"].items()), flush=True)
        row = {"attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        print(f"== {workload}: failed {row['failed']} of {row['attempted']} operations")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            s = spread_of([r["metrics"][name]["value"] for r in results])
            row["end_to_end"][name] = {"unit": metric["unit"], **s}
            flag = "ok" if s["spread"] <= metric["bound"] / 3 else "WIDE"
            if name != "setup_s" and flag == "WIDE":
                steady = False
            print(f"  {name:<12} median {s['median']:<12.5g} q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g} "
                  f"spread {s['spread']:.4f} (bound {metric['bound']}) {flag}")
        if args.label:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][workload] = row
    if args.label:
        out = HERE / f"BENCH_{args.label}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    print("steady" if steady else "NOT steady: a spread exceeds a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
