#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the benchmark driver from source (perfbench/CMakeLists.txt, into
.bench_build/perfbench), runs one workload for a host-time budget and
prints, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones. Run from the repository root:

    python3 perfbench/run.py --workload ffwd-roi-16c --seed 42 --seconds 50 --trace 0

--bless records the run's result digest for this workload and seed in
perfbench/expected.json (after a deliberate change to simulated results).
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
EXPECTED = HERE / "expected.json"
WORKLOADS = ("matmul-1c", "spmv-64c-coherent", "ffwd-roi-16c",
             "campaign-small-points")
DRIVER_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; build output goes to
    stderr so stdout stays the result stream."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed:", " ".join(step))
            return None
    return BUILD / "perfbench_driver"


def load_avg():
    with open("/proc/loadavg") as f:
        return " ".join(f.read().split()[:3])


def provenance():
    """Git SHA (with -dirty) when run from a git checkout, plus a digest of
    the simulator and benchmark sources, which also identifies a
    checkout that is not a git repository."""
    git = "none"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip()
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain",
                 "--untracked-files=no"],
                capture_output=True, text=True).stdout.strip()
            git = sha + ("-dirty" if dirty else "")
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return git, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--bless", action="store_true",
                        help="record this run's digest in expected.json")
    args = parser.parse_args()

    driver = build()
    if driver is None:
        return 1
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    expect = expected.get(args.workload, {}).get(str(args.seed))

    OUT.mkdir(parents=True, exist_ok=True)
    command = [str(driver), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}",
               f"--trace={args.trace}", f"--out-dir={OUT}"]
    if expect and not args.bless:
        command.append(f"--expect={expect}")
    load_before = load_avg()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    load_after = load_avg()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: driver exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("perfbench: malformed driver result")
        return 1

    if args.bless:
        digest = next(line.split()[2] for line in lines
                      if line.startswith("# digest "))
        expected.setdefault(args.workload, {})[str(args.seed)] = digest
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        log(f"perfbench: recorded {args.workload} seed {args.seed} -> {digest}")

    git, source = provenance()
    print("\n".join(lines[:-1]))
    print(f"# provenance git={git} sources={source} nproc={os.cpu_count()} "
          f"loadavg_before={load_before} loadavg_after={load_after} "
          f"expected_digest={expect or 'none'}")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
