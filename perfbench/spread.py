#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload given, runs the command from BENCHMARK.json once per
seed and prints, per metric, the median of the values and the spread:
the distance between the first and third quartile (as
statistics.quantiles(values, n=4) gives them) as a share of the median,
next to the metric's bound and a third of it.

With --sets N, N sets of the same seeds run interleaved (seed 1 of every
set, then seed 2 of every set, ...), so slow drift of the host falls on
every set alike; each set's spread is printed, and how far each later
set's median is worse than the first set's, as a share of it.

    python3 perfbench/spread.py --workloads serve_hot paper_render --seeds 5
    python3 perfbench/spread.py --workloads paper_render --seeds 10 --sets 2

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", trace,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect result")
    return result["metrics"]


def spread(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true", help="print every value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        # values[set][metric] -> one value per seed
        values = [{} for _ in range(args.sets)]
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            for vs in values:
                for name, m in run(bench, workload, seed, args.trace).items():
                    vs.setdefault(name, []).append(m["value"])
        print(f"== {workload} ({args.seeds} seeds, {args.sets} interleaved sets)")
        for name in values[0]:
            bound = metrics.get(name, {}).get("bound")
            lower = metrics.get(name, {}).get("better") == "lower"
            first_med = None
            for k, vs in enumerate(values):
                med, sp = spread(vs[name])
                mark = ""
                if bound is not None and name != "setup_s":
                    worst = max(worst, sp / bound)
                    mark = "ok" if sp < bound / 3 else "WIDE"
                drift = ""
                if first_med is None:
                    first_med = med
                elif bound is not None:
                    worse = (med - first_med) if lower else (first_med - med)
                    share = worse / first_med
                    worst = max(worst, share / bound)
                    drift = f"  worse than set 1 by {share:+.4f}"
                print(f"  {name:<34} set {k + 1} median {med:>14.4f}  spread {sp:7.4f}"
                      f"  bound {bound}  {mark}{drift}")
                if args.verbose:
                    print("    " + " ".join(f"{v:.4g}" for v in vs[name]))
    print(f"worst spread or drift / bound: {worst:.3f}")


if __name__ == "__main__":
    main()
