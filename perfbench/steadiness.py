#!/usr/bin/env python3
"""Steadiness checks of the benchmark itself.  Run from the checkout root.

    python3 perfbench/steadiness.py repeat --workload zones --seed 3
        Two traced and two untraced runs of one seed.  Every per-layer count
        (calls, stop reasons, distinct_frac, failed_frac, ...) must repeat
        exactly; every end-to-end metric must agree within its bound in
        BENCHMARK.json; the metric names must be those BENCHMARK.json lists.

    python3 perfbench/steadiness.py seeds --workload descent --seeds 1-10
        One untraced run per seed.  Prints each end-to-end metric's median
        and quartile spread (inter-quartile range over median) against its
        bound; every spread except setup_s's must stay within the bound, and
        the aim is to stay below a third of it.  setup_s is exempt (short
        set-ups are dominated by host noise, and transverse's set-up work
        differs by seed): only its median is held to its bound.

Every run uses run_seconds from BENCHMARK.json.

Exit status 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics derived from timings vary run to run; the rest must repeat
TIMED_SUFFIXES = ("_s", "overhead_frac", "cost_exponent")


def run(workload, seed, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_names(result, expected, label) -> list[str]:
    got = set(result["metrics"])
    want = {m["name"] for m in SPEC[expected]}
    if got != want:
        return [f"{label}: metrics {sorted(got ^ want)} differ from BENCHMARK.json {expected}"]
    return []


def repeat(args) -> list[str]:
    problems = []
    traced = [run(args.workload, args.seed, 1) for _ in range(2)]
    plain = [run(args.workload, args.seed, 0) for _ in range(2)]
    problems += check_names(traced[0], "per_layer", "trace 1")
    problems += check_names(plain[0], "end_to_end", "trace 0")
    a, b = (r["metrics"] for r in traced)
    fracs = [r["failed"] / r["attempted"] for r in traced]
    if fracs[0] != fracs[1]:
        problems.append(f"failed_frac differs: {fracs}")
    for name in sorted(a):
        if name.endswith(TIMED_SUFFIXES):
            continue
        if a[name]["value"] != b[name]["value"]:
            problems.append(f"{name} differs: {a[name]['value']} vs {b[name]['value']}")
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        x, y = (r["metrics"][name]["value"] for r in plain)
        rel = abs(x - y) / min(x, y)
        status = "ok" if rel <= bound else "TOO FAR"
        print(f"{name}: {x:.6g} vs {y:.6g}, relative difference {rel:.3f}, bound {bound}, {status}")
        if rel > bound:
            problems.append(f"{name} runs differ by {rel:.3f} > bound {bound}")
    return problems


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def seeds(args) -> list[str]:
    values = {m["name"]: [] for m in SPEC["end_to_end"]}
    problems = []
    for seed in seed_range(args.seeds):
        result = run(args.workload, seed, 0)
        if not result["correct"]:
            problems.append(f"seed {seed}: outputs failed the correctness checks")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)
    for metric in SPEC["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        # setup_s is exempt (see the module docstring); only its median is
        # compared between two sets of runs
        exempt = name == "setup_s"
        ok = exempt or spread <= bound
        aim = "below a third of the bound" if spread < bound / 3 else "above a third of the bound"
        print(f"{name}: median {med:.6g}, spread {spread:.4f}, bound {bound}, {aim}"
              f"{' (exempt from the spread check)' if exempt else ''}"
              f"{'' if ok else ', TOO WIDE'}")
        if not ok:
            problems.append(f"{name} spread {spread:.4f} exceeds the bound {bound}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("repeat")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p = sub.add_parser("seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    problems = repeat(args) if args.mode == "repeat" else seeds(args)
    for problem in problems:
        print("FAIL:", problem)
    print("steady" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
