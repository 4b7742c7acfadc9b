#!/usr/bin/env python3
"""Aggregate raw run records into one report.

Each line of the input files is one raw record as `idea-perfbench --raw`
appends it. For every (workload, trace, metric) the report gives the run
count, the median, the first and third quartiles (Python's
`statistics.quantiles(values, n=4)`), and the spread (Q3 - Q1) as a share
of the median, so no single-shot number stands alone.

    python3 perfbench/aggregate.py runs.jsonl [more.jsonl ...] [--markdown]
"""

import json
import statistics
import sys
from collections import defaultdict


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    records.append(json.loads(line)["raw"])
    return records


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def main(argv):
    markdown = "--markdown" in argv
    paths = [a for a in argv if a != "--markdown"]
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = load(paths)
    groups = defaultdict(lambda: defaultdict(list))
    units = {}
    meta = defaultdict(lambda: {"seeds": set(), "commits": set(), "nproc": set(), "correct": True})
    for r in records:
        key = (r["workload"], r["trace"])
        m = meta[key]
        m["seeds"].add(r["seed"])
        m["commits"].add(r["commit"])
        m["nproc"].add(r["nproc"])
        m["correct"] &= r["correct"]
        for name, v in list(r["metrics"].items()) + list(r.get("extras", {}).items()):
            groups[key][name].append(v["value"])
            units[name] = v["unit"]
    for key in sorted(groups):
        workload, trace = key
        m = meta[key]
        print(
            f"\n## {workload} (trace {trace}): {len(m['seeds'])} seeds, "
            f"commits {sorted(m['commits'])}, nproc {sorted(m['nproc'])}, "
            f"all correct: {m['correct']}"
        )
        if markdown:
            print("\n| metric | unit | runs | median | Q1 | Q3 | spread |")
            print("|---|---|---|---|---|---|---|")
        for name, values in groups[key].items():
            median, q1, q3, spread = summarize(values)
            if markdown:
                print(f"| {name} | {units[name]} | {len(values)} | {median:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
            else:
                print(
                    f"{name:<40} {units[name]:>6} n={len(values):<3} median={median:<14.6g} "
                    f"q1={q1:<14.6g} q3={q3:<14.6g} spread={spread:.3f}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
