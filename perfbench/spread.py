#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each named workload once per seed (untraced) and prints, for every
end-to-end metric, the median of the runs and the distance between the
first and third quartile as a share of that median -- the spread the
metric's bound in BENCHMARK.json has to cover.

Usage, from the repository root, after building the benchmark:

    python3 perfbench/spread.py --seeds 1-10 --seconds 10 wire_bulk offline_shift

Workloads default to every one declared in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--binary", default="perfbench/target/release/perfbench")
    ap.add_argument("--out", help="also write every run's metrics to this JSON file")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    raw = {}
    for w in workloads:
        values = {}
        walls = []
        for seed in parse_seeds(args.seeds):
            t0 = time.time()
            run = subprocess.run(
                [args.binary, "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=False)
            walls.append(time.time() - t0)
            if run.returncode != 0:
                print(f"{w} seed {seed}: exit {run.returncode}\n{run.stderr}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: incorrect or failed: {result}", file=sys.stderr)
                sys.exit(1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        raw[w] = values
        print(f"{w}  (runs {len(walls)}, wall max {max(walls):.1f} s)")
        for name, vals in values.items():
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            share = spread / bounds[name]
            if name != "setup_s":
                worst = max(worst, share)
            print(f"  {name:22s} median {med:14.4f}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}  ({share:4.0%} of bound)")
    print(f"worst spread / bound (setup_s excluded): {worst:.0%}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
