#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root, after building the benchmark):

    python3 perfbench/tools/spread.py --workload bfs_heavy --seeds 1-10 \
        --seconds 20 [--trace 0] [--bin .bench_build/release/perfbench]

For every end-to-end metric it prints the median over the runs and the
distance between the first and third quartile as a share of the median
(Python's ``statistics.quantiles(values, n=4)``), beside the metric's bound
from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", type=seeds)
    parser.add_argument("--seconds", default=None)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--bin", default=".bench_build/release/perfbench")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        cmd = [args.bin, "--workload", args.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
        if out.returncode != 0 or not last.startswith("{"):
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}", file=sys.stderr)
            sys.exit(1)
        result = json.loads(last)
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
        else:
            spread = 0.0
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:32s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
