#!/usr/bin/env python3
"""Record the benchmark of the current tree in one JSON file.

Runs `perfbench/run.py --trace 0` for every workload that BENCHMARK.json
declares, with the given seed and run length, keeps the JSON line each run
prints last, and writes them together with the machine (nproc, Python, numpy
and scipy versions) and the git commit:

    python scripts/bench_record.py --seed 1 --seconds 25 --out BENCH_6.json

`dirty` is true when tracked files differ from that commit.  The exit status
is 1 when any run reports `correct: false` or `failed > 0` (the file is still
written) or when a run prints no report (no file is written).
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_workload(name, seed, seconds):
    """The last line perfbench prints for one workload, parsed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{name}: perfbench exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's)")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    runs = {}
    for name in names:
        runs[name] = run_workload(name, args.seed, args.seconds)
        print(f"{name}: " + json.dumps(runs[name]), flush=True)
    record = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    bad = [n for n, r in runs.items() if not r["correct"] or r["failed"] > 0]
    if bad:
        print("incorrect or failed operations in: " + ", ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
