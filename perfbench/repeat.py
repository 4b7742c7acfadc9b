#!/usr/bin/env python3
"""Run one workload over several seeds and print the aggregate report.

    python3 perfbench/repeat.py --workload sim_paper_n40 --seeds 1-10 \\
        [--seconds 10] [--trace 0] [--raw runs.jsonl]

Builds the runner once, runs it once per seed (sequentially, so runs do not
compete for the CPU), appends every raw record to `--raw` (default
`perfbench-runs.jsonl` in the working directory) and prints the median and
quartiles of every metric via `aggregate.py`.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--raw", default="perfbench-runs.jsonl")
    a = ap.parse_args()
    manifest = os.path.join(HERE, "Cargo.toml")
    cargo = ["cargo", "run", "--quiet", "--release", "--offline", "--manifest-path", manifest, "--"]
    subprocess.run(["cargo", "build", "--quiet", "--release", "--offline", "--manifest-path", manifest], check=True)
    failed = 0
    for s in seeds(a.seeds):
        args = ["--workload", a.workload, "--seed", str(s), "--seconds", a.seconds, "--trace", a.trace, "--raw", a.raw]
        r = subprocess.run(cargo + args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        print(f"seed {s}: exit {r.returncode}", file=sys.stderr)
        failed += r.returncode != 0
    subprocess.run([sys.executable, os.path.join(HERE, "aggregate.py"), a.raw], check=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
