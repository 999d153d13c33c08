#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

Runs perfbench/run.py once per seed on each chosen workload (untraced),
then prints, per end-to-end metric, the median of the runs and their
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, beside the
metric's bound from BENCHMARK.json. A spread below a third of the bound is
marked ok. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 --workloads ffwd-roi-16c
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="append every run's result here (JSONL)")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: run failed ({proc.returncode})")
                failures += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed")
                failures += 1
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "result": result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            runs = values[name]
            if len(runs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(runs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound
                                                    else "OVER")
            print(f"{workload:24s} {name:14s} median={med:<12.6g} "
                  f"spread={spread:7.4f} bound={bound:<5} {mark} "
                  f"n={len(runs)}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
