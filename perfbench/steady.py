#!/usr/bin/env python3
"""Steadiness check: run one workload of the benchmark on several seeds
and report, per metric, the median and the quartile spread
(Q3 - Q1) / median, as `statistics.quantiles(values, n=4)` gives the
quartiles.

    python3 perfbench/steady.py --workload serve_keepalive --runs 10
    python3 perfbench/steady.py --workload pipeline_lake --runs 5 --first-seed 100 --out spread.json

Run it from the repository root. It invokes the command in
BENCHMARK.json with the arguments BENCHMARK.json's contract defines,
`--seconds` taken from BENCHMARK.json unless given.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", help="write every run's result and the spreads here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(args.trace),
        ]
        t0 = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = round(wall, 2)
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-12:]
        results.append(result)
        print(f"seed {seed}: {wall:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}", flush=True)

    spreads = {}
    print(f"\n{'metric':36} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        spreads[name] = {"median": med, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:36} {med:14.6g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": results, "spreads": spreads}, f, indent=1)


if __name__ == "__main__":
    main()
