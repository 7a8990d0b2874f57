#!/usr/bin/env python3
"""Run-to-run spread check for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each chosen workload and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median (statistics.quantiles(values, n=4)), next to the
metric's bound. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(spec):
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    key = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in bench[key]}

    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: INCORRECT {out.stdout}", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload}")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s" and not spread <= bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:28s} median {med:<14.6g} spread {spread:7.4f}  bound {bound}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
