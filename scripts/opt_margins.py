#!/usr/bin/env python3
"""Measure how close the `descent` benchmark's checked points come to
failing the optimality certificate, on three scales.

For each descent (seed, round, rho) of the `descent` workload's recipe at
the given shape, it sweeps lambda from lambda_max to the lambda -> 0
terminus and, at the two interior points of each segment that perfbench
checks, takes `check_opt`'s excess before its slack (max `per_index` +
`CERT_TOL`).  It prints, per descent, the smallest lambda checked and the
worst excess relative to the certificate's scale
S = max(lambda, ||C^T b||_inf), relative to lambda alone, and absolute,
then the worst of each over all descents.

    python3 scripts/opt_margins.py --seeds 1701,1702,1703 --shape 100x200

Relative to lambda alone the excess grows as lambda falls towards the
terminus, where it is orders of magnitude below S; relative to S it stays
at the rounding of xi.
"""

import argparse
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import sgmc  # noqa: E402
from sgmc.optimality import CERT_TOL, certificate_scale  # noqa: E402
from workloads import MAX_SEGMENTS, RHOS, descent_line, gaussian, lambda_max  # noqa: E402

COLUMNS = ("segments", "min_lambda", "rel_S", "rel_lambda", "absolute")


def descent_margins(inst) -> dict:
    line = descent_line(inst, lambda_max(inst))
    sweep = sgmc.path_sweep(inst, line, sgmc.zero_indicator(inst.n), t_start=0.0,
                            max_segments=MAX_SEGMENTS)
    worst = {"min_lambda": math.inf, "rel_S": 0.0, "rel_lambda": 0.0, "absolute": 0.0}
    for seg in sweep.segments:
        hi = seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0
        for frac in (1.0 / 3.0, 2.0 / 3.0):
            t = seg.t_start + frac * (hi - seg.t_start)
            lam = float(line.lam_at(t))
            probe = inst.with_params(b=line.b_at(t), lam=lam)
            rel = max(sgmc.check_opt(probe, seg.weq_at(t)).per_index) + CERT_TOL
            absolute = rel * certificate_scale(probe)
            worst["min_lambda"] = min(worst["min_lambda"], lam)
            worst["rel_S"] = max(worst["rel_S"], rel)
            worst["rel_lambda"] = max(worst["rel_lambda"], absolute / lam)
            worst["absolute"] = max(worst["absolute"], absolute)
    return {"segments": len(sweep.segments), **worst}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1701,1702,1703", help="comma-separated workload seeds")
    parser.add_argument("--rounds", type=int, default=1, help="rounds per seed")
    parser.add_argument("--shape", default="100x200", help="m x n of the instances")
    args = parser.parse_args()
    m, n = (int(v) for v in args.shape.split("x"))
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"{'descent':<16}" + "".join(f"{c:>12}" for c in COLUMNS))
    total = {"segments": 0, "min_lambda": math.inf, "rel_S": 0.0, "rel_lambda": 0.0,
             "absolute": 0.0}
    for seed in seeds:
        for k in range(args.rounds):
            for j, rho in enumerate(RHOS):
                inst = gaussian(np.random.default_rng((seed, k, j)), m, n, rho)
                row = descent_margins(inst)
                total["segments"] += row["segments"]
                total["min_lambda"] = min(total["min_lambda"], row["min_lambda"])
                for c in ("rel_S", "rel_lambda", "absolute"):
                    total[c] = max(total[c], row[c])
                print(f"{f'{seed}.{k}.rho{rho}':<16}{row['segments']:>12}"
                      + "".join(f"{row[c]:>12.3e}" for c in COLUMNS[1:]))
    print(f"{'worst':<16}{total['segments']:>12}"
          + "".join(f"{total[c]:>12.3e}" for c in COLUMNS[1:]))


if __name__ == "__main__":
    main()
