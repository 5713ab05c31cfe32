#!/usr/bin/env python3
"""Interleaved A/B timing of two sgmc checkouts on the benchmark's operations.

For each seed it makes a pair: two fresh subprocesses, one that imports
the parent checkout's `src/sgmc` and one that imports this checkout's,
the change.  Each makes the workload's inputs from the recipes of this
checkout's perfbench/workloads.py (read, never changed) and runs on one
BLAS thread.  Both run on the same CPU, so that neither gets a core that
is faster or less busy than the other's.  The two run the operations of
the first `--rounds` rounds in turn, one operation at a time, `--best-of`
times each.  The side that goes first alternates from one run of an
operation to the next, so that a slow spell of the host falls on both
sides alike.  An operation's time is the wall time of its library calls,
as perfbench/run.py times them, and its best time the least of its runs.
A pair's ratio is the change's summed best times over the parent's, so a
ratio below 1 means the change is faster.  The script prints each pair,
then the median ratio over the pairs with a 95 % bootstrap interval of
that median.

    python3 scripts/ab_pairs.py --parent /path/to/parent/checkout \\
        --workload descent --seeds 1,2,3,4,5,6,7,8,9,10 --best-of 5 --rounds 2

An interval that holds 1 resolves no difference at this number of pairs.
"""

import os

# one BLAS thread, set before numpy loads, whatever the caller's environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("descent", "transverse", "zones")
BOOTSTRAP = 2000  # resamples of the pairs


def worker(args):
    """Serve the operations of one workload on the checkout `args.src`.
    First prints one JSON object, the package directory imported and the
    operations' labels; then, for each index read from standard input,
    runs that operation once and prints its time."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(Path(args.src).resolve() / "src"), str(ROOT / "perfbench")]
    import sgmc
    from workloads import WORKLOADS as RECIPES

    def no_mark(kind):
        pass

    work = RECIPES[args.workload](args.seed)
    work.setup()
    tasks = [task for k in range(args.rounds) for task in work.tasks(k)]
    labels = [task[0] for task in tasks]
    print(json.dumps({"sgmc": str(Path(sgmc.__file__).resolve().parent), "labels": labels}),
          flush=True)
    for line in sys.stdin:
        result, _ = work.run(tasks[int(line)], no_mark)
        print(repr(result.busy_s), flush=True)


class Side:
    """A worker subprocess on one checkout."""

    def __init__(self, src: Path, args, seed: int):
        self.src = src
        cmd = [sys.executable, __file__, "--worker", "--src", str(src), "--workload",
               args.workload, "--seed", str(seed), "--rounds", str(args.rounds)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        hello = json.loads(self.read())
        if Path(hello["sgmc"]) != src.resolve() / "src" / "sgmc":
            self.close()
            sys.exit(f"worker on {src} imported sgmc from {hello['sgmc']}")
        self.labels = hello["labels"]

    def read(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"worker on {self.src} exited with {self.proc.wait()}")
        return line

    def run(self, op: int) -> float:
        self.proc.stdin.write(f"{op}\n")
        self.proc.stdin.flush()
        return float(self.read())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_pair(sides: dict[str, Path], args, seed: int) -> dict[str, list[float]]:
    """Best time of each operation on each side, the sides taking turns."""
    workers = {name: Side(src, args, seed) for name, src in sides.items()}
    try:
        labels = workers["parent"].labels
        if workers["change"].labels != labels:
            sys.exit(f"seed {seed}: the two sides make different operations")
        best = {name: [float("inf")] * len(labels) for name in sides}
        for run in range(args.best_of):
            for op in range(len(labels)):
                order = ("parent", "change") if (run + op) % 2 == 0 else ("change", "parent")
                for name in order:
                    best[name][op] = min(best[name][op], workers[name].run(op))
    finally:
        for w in workers.values():
            w.close()
    return best


def bootstrap_median(ratios: list[float], seed: int = 0) -> tuple[float, float]:
    """95 % interval of the median ratio, resampling the pairs."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(ratios), size=(BOOTSTRAP, len(ratios)))
    medians = np.median(np.asarray(ratios)[picks], axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return float(lo), float(hi)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="checkout whose src/sgmc is the baseline")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--rounds", type=int, default=1, help="workload rounds per side")
    parser.add_argument("--best-of", type=int, default=3, help="runs of each operation")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--src", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if min(args.rounds, args.best_of) < 1:
        parser.error("--rounds and --best-of must be at least 1")
    if args.worker:
        return worker(args)
    if not args.parent:
        parser.error("--parent is required")
    sides = {"parent": Path(args.parent), "change": ROOT}
    ratios = []
    for pair, seed in enumerate(int(s) for s in args.seeds.split(",")):
        total = {name: sum(times) for name, times in run_pair(sides, args, seed).items()}
        ratios.append(total["change"] / total["parent"])
        print(f"pair {pair + 1} seed {seed} parent {total['parent']:.4f} s "
              f"change {total['change']:.4f} s ratio {ratios[-1]:.4f}")
    lo, hi = bootstrap_median(ratios)
    print(f"{args.workload} pairs {len(ratios)} median ratio {statistics.median(ratios):.4f} "
          f"interval {lo:.4f} {hi:.4f}")


if __name__ == "__main__":
    main()
