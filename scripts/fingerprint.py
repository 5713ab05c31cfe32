#!/usr/bin/env python3
"""One SHA-256 over every output of the benchmark's seeded instances, so
that two source trees can be checked for bitwise equal results.

For each seed it runs the `descent` tasks of rounds 0-1, the
`transverse` pool and `enumerate_zones` on the `zones` rounds 0-7, the
recipes of perfbench/workloads.py (read, never changed).  The hash covers
every segment's s, t_start, t_end, p, q and edits, every sweep's stop
reason and `to_dict()`, and every zone graph's `to_dict()`, `covered` and
edge witnesses.  It prints the counts, the stop reasons and the digest.

    python3 scripts/fingerprint.py --src /path/to/other/checkout --seeds 1,2,3

`--src` names the checkout whose `src/sgmc` is imported (this one by
default); the recipes always come from this checkout's perfbench/.  BLAS
runs on one thread, as in perfbench/run.py: the outputs differ bitwise
between thread counts, so the digest fixes the arithmetic it checks.
Indicators are hashed by value as int64, so that their storage type does
not enter the digest.
"""

import os

# one BLAS thread, set before numpy loads, whatever the caller's environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("descent", "transverse", "zones")
DESCENT_ROUNDS = 2
ZONES_ROUNDS = 8


class Fingerprint:
    """Running SHA-256 of the outputs fed to it, with their counts."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.segments = 0
        self.graphs = 0
        self.stops = Counter()

    def update(self, *items):
        """Hash each item by value: arrays and floats by their bytes, so a
        Python float and a NumPy scalar of the same value hash alike."""
        for item in items:
            if isinstance(item, np.ndarray):
                self.sha.update(f"{item.dtype.str}{item.shape}".encode())
                self.sha.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, (float, np.floating)):
                self.sha.update(np.float64(item).tobytes())
            elif isinstance(item, (int, np.integer)):
                self.sha.update(f"i{int(item)}".encode())
            elif isinstance(item, (tuple, list)):
                self.sha.update(f"[{len(item)}".encode())
                self.update(*item)
            else:
                self.sha.update(f"s{item}".encode())

    def sweep(self, result):
        for seg in result.segments:
            self.update(seg.s.astype(np.int64), seg.t_start, seg.t_end, seg.p, seg.q,
                        seg.deleted, seg.inserted)
        self.update(result.stop_reason, json.dumps(result.to_dict(), sort_keys=True))
        self.segments += len(result.segments)
        self.stops[result.stop_reason] += 1

    def graph(self, graph):
        self.update(json.dumps(graph.to_dict(), sort_keys=True), graph.covered)
        for sa, sb, b_w, lam_w in graph.edges:
            self.update(sa, sb, b_w, lam_w)
        self.graphs += 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="checkout whose src/sgmc is imported")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset of " + ",".join(WORKLOADS))
    args = parser.parse_args()
    names = args.workloads.split(",")
    if not set(names) <= set(WORKLOADS):
        parser.error(f"unknown workloads {sorted(set(names) - set(WORKLOADS))}")
    sys.path[:0] = [str(Path(args.src).resolve() / "src"), str(ROOT / "perfbench")]
    import sgmc
    from workloads import Descent, Transverse, Zones

    def no_mark(kind):
        pass

    fp = Fingerprint()
    for seed in (int(s) for s in args.seeds.split(",")):
        if "descent" in names:
            work = Descent(seed)
            for k in range(DESCENT_ROUNDS):
                for task in work.make_tasks(k):
                    fp.sweep(work.run(task, no_mark)[1][2])
        if "transverse" in names:
            work = Transverse(seed)
            for task in work.make_tasks(0):
                fp.sweep(work.run(task, no_mark)[1][2])
        if "zones" in names:
            work = Zones(seed)
            for k in range(ZONES_ROUNDS):
                for _, A, config in work.make_tasks(k):
                    inst = sgmc.ProblemInstance(A=A, rho=work.rho, y=np.zeros(A.shape[0]),
                                                lam=1.0)
                    fp.graph(sgmc.enumerate_zones(inst, config))
    print(f"sgmc {Path(sgmc.__file__).resolve().parent}")
    print(f"sweeps {sum(fp.stops.values())} segments {fp.segments} graphs {fp.graphs}")
    for reason, count in sorted(fp.stops.items()):
        print(f"stop {reason} {count}")
    print(f"sha256 {fp.sha.hexdigest()}")


if __name__ == "__main__":
    main()
