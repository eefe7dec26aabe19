#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each end-to-end metric's
median and quartile spread (Q3-Q1 as a share of the median), the figure
a run-to-run comparison is judged by.

    python3 perfbench/spread.py --workloads flow-cold,cache-hit --seeds 1-10 --seconds 15
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="flow-cold,cache-hit,analysis-mix,flow-recorded")
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m.get("bound") for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    for wl in args.workloads.split(","):
        values = {}
        for seed in range(first, last + 1):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{wl} seed {seed}: {res['failed']}/{res['attempted']} failed", file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, v in sorted(values.items()):
            med = statistics.median(v)
            line = f"{wl:14} {name:28} median {med:12.4f}"
            if len(v) >= 2:
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
                line += f"  spread {spread:7.4f}"
                if bounds.get(name):
                    line += f"  (bound {bounds[name]}, {'ok' if spread <= bounds[name] / 3 else 'WIDE'})"
            print(line, flush=True)
            print(" " * 15 + " ".join(f"{x:.4g}" for x in v), flush=True)


if __name__ == "__main__":
    main()
