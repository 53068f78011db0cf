#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json on ten seeds (2014 and the nine
after it) and reports each end-to-end metric's spread: the distance between
its first and third quartile as a share of its median, next to the metric's
bound.

    python3 perfbench/steadiness.py [--out FILE]

A spread at or above a third of its bound is flagged and makes the exit code
1.  With --out, the per-run values and the summary are written there as JSON
(the sets in perfbench/README.md were recorded so).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUNS = 10
FIRST_SEED = 2014


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        runs = []
        for i in range(RUNS):
            seed = FIRST_SEED + i
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: {result['failed']} failed operations")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            report = json.loads(proc.stdout.strip().splitlines()[-2][len("report "):])
            runs[-1]["host_steal_frac"] = report["info"].get("host_steal_frac")
            print(f"  seed {seed} (host steal {100 * runs[-1]['host_steal_frac']:.1f} %): " +
                  ", ".join(f"{n} {m['value']:.6g}" for n, m in sorted(result["metrics"].items())),
                  flush=True)
        summary = {}
        print(f"{workload} ({RUNS} seeds from {FIRST_SEED})", flush=True)
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:18s} median {med:<12.6g} spread {spread:7.4f}  bound {bound}{flag}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1, sort_keys=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
