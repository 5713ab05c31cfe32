#!/usr/bin/env python3
"""Summarize paired benchmark runs of a parent and a changed checkout.

Each side is a directory of untraced results as `perfbench/run.py` writes
them to `.perfbench/`, one `<workload>-seed<N>-trace0.json` per run.  The
runs of one workload and seed on both sides form a pair.  For every
workload and every end-to-end metric that `BENCHMARK.json` names, the
summary gives each side's median and quartiles over the pairs, the
relative change of the median, and the number of pairs the change wins
(ties count for neither side).  It also gives the seeds, the pair count,
the operations failed and attempted, and the benchmark command.

    python3 scripts/bench_summary.py --parent ../parent/.perfbench \\
        --change .perfbench --out BENCH_<n>.json
"""

import argparse
import json
import re
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"(?P<workload>\w+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(directory):
    """{(workload, seed): result} for every untraced result in `directory`."""
    runs = {}
    for path in Path(directory).iterdir():
        match = RESULT.fullmatch(path.name)
        if match:
            runs[match["workload"], int(match["seed"])] = json.loads(path.read_text())
    return runs


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(parent, change, metrics):
    workloads = {}
    for name in sorted({w for w, _ in parent.keys() & change.keys()}):
        seeds = sorted(s for w, s in parent.keys() & change.keys() if w == name)
        pairs = [(parent[name, s], change[name, s]) for s in seeds]
        entry = {"seeds": seeds, "pairs": len(pairs), "metrics": {}}
        for metric in metrics:
            key, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
            before = [p["metrics"][key]["value"] for p, _ in pairs]
            after = [c["metrics"][key]["value"] for _, c in pairs]
            sides = {"parent": quartiles(before), "change": quartiles(after)}
            entry["metrics"][key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **sides,
                "median_change": sides["change"]["median"] / sides["parent"]["median"] - 1.0,
                "change_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
                "parent_wins": sum(sign * (a - b) < 0 for b, a in zip(before, after)),
            }
        for side, k in (("parent", 0), ("change", 1)):
            entry[f"failed_{side}"] = sum(pair[k]["failed"] for pair in pairs)
            entry[f"attempted_{side}"] = sum(pair[k]["attempted"] for pair in pairs)
        env = pairs[0][0]["environment"]
        entry["command"] = (
            f"python3 perfbench/run.py --workload {name} --seed <seed> "
            f"--seconds {env['seconds']:g} --trace 0"
        )
        workloads[name] = entry
    return workloads


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--parent", required=True, help="result directory of the parent")
    parser.add_argument("--change", required=True, help="result directory of the change")
    parser.add_argument("--out", required=True, help="summary JSON to write")
    args = parser.parse_args()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent, change = load_runs(args.parent), load_runs(args.change)
    workloads = summarize(parent, change, metrics)
    if not workloads:
        parser.error("no workload and seed has a result on both sides")
    Path(args.out).write_text(json.dumps({"workloads": workloads}, indent=2) + "\n")
    for name, entry in workloads.items():
        for key, m in entry["metrics"].items():
            print(f"{name} {key}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"({m['median_change']:+.1%}), change better in "
                  f"{m['change_wins']} of {entry['pairs']} pairs")


if __name__ == "__main__":
    main()
