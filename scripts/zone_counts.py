#!/usr/bin/env python3
"""Count what zone enumeration and its brute-force check do on the `zones`
benchmark instances.

For each instance (seed, round) of the `zones` workload it prints the
nodes and edges of `enumerate_zones`, its `rays` counter (the sweeps from
b = 0 to a coverage point), the E-LARS steps it takes (calls of
`elars_iterate`) and the batched rank cuts of `brute_force_indicators` over
the graph's coverage points (calls of `rank_cut`, one per support size
k = 0..2n), then the totals.  Calls are counted by rebinding the names the
package calls them by, as perfbench/tracing.py does, so the package runs
unchanged.

    python3 scripts/zone_counts.py --seeds 1,2,3 --rounds 8

A 30 s `zones` run does rounds 0-7 of its seed.  The search sweeps only
to coverage points that no zone found so far holds, so the nodes and
edges are the zones on those sweeps: over seeds 1-3, rounds 0-7, the
totals are 581 nodes, 586 edges, 198 rays, 944 steps and 168 rank cuts.
"""

import argparse
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sgmc  # noqa: E402
import sgmc.elars  # noqa: E402
import sgmc.oracle  # noqa: E402
from workloads import Zones  # noqa: E402

COLUMNS = ("nodes", "edges", "rays", "steps", "rank_cuts")


@contextmanager
def counting(calls: Counter, **targets):
    """Count calls of `module.name` under `calls[label]` for each
    label=(module, name) in `targets`, restoring the names afterwards."""
    originals = {label: getattr(mod, name) for label, (mod, name) in targets.items()}

    def wrap(label, fn):
        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        return counted

    for label, (mod, name) in targets.items():
        setattr(mod, name, wrap(label, originals[label]))
    try:
        yield
    finally:
        for label, (mod, name) in targets.items():
            setattr(mod, name, originals[label])


def instance_counts(A, config) -> dict:
    inst = sgmc.ProblemInstance(A=A, rho=Zones.rho, y=np.zeros(A.shape[0]), lam=1.0)
    calls = Counter()
    with counting(calls, steps=(sgmc.elars, "elars_iterate"),
                  rank_cuts=(sgmc.oracle, "rank_cut")):
        graph = sgmc.enumerate_zones(inst, config)
        sgmc.brute_force_indicators(A, Zones.rho, graph.coverage_points)
    return {"nodes": len(graph.nodes), "edges": len(graph.edges), "rays": graph.rays,
            **{k: calls[k] for k in ("steps", "rank_cuts")}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    parser.add_argument("--rounds", type=int, default=8, help="rounds per seed")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"{'instance':<10}" + "".join(f"{c:>13}" for c in COLUMNS))
    total = Counter()
    for seed in seeds:
        for k in range(args.rounds):
            for _label, A, config in Zones(seed).make_tasks(k):
                counts = instance_counts(A, config)
                total.update(counts)
                print(f"{f'{seed}.{k}':<10}" + "".join(f"{counts[c]:>13}" for c in COLUMNS))
    print(f"{'total':<10}" + "".join(f"{total[c]:>13}" for c in COLUMNS))


if __name__ == "__main__":
    main()
