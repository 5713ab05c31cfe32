#!/usr/bin/env python3
"""Measure how one deletion-insertion step scales with the support size.

A step restricts the zone to the line and scans every constraint, O(mn +
|E|^2) given the zone's piece.  Along a path the next piece comes from a
one-index bordered-inverse update, also O(mn + |E|^2), that appends the
inserted index or swaps the deleted one with the last and permutes nothing;
only the start zone, multi-index steps, rank drops and updates that fail
their residual check rebuild it from an SVD, O(m|E|^2 + |E|^3).  The
script times the step over growing supports on a fixed Gaussian instance
and fits the log-log slope.  By default each timed call is
`candidate_slope` plus the step, the piece built from scratch as for a
start zone; --reuse-slope builds the piece once per support and times the
step alone, as a path step runs.
"""

import argparse
import time

import numpy as np

from sgmc import ParameterLine, ProblemInstance, candidate_slope, elars_iterate


def time_step(inst, line, size, repeats=9, inner=3, reuse_slope=False):
    s = np.zeros(2 * inst.n, dtype=int)
    s[:size] = 1
    piece = candidate_slope(inst, s)
    elars_iterate(inst, piece, line)  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            elars_iterate(inst, piece if reuse_slope else candidate_slope(inst, s), line)
        samples.append((time.perf_counter() - t0) / inner)
    return float(np.median(samples))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=48)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--sizes", default="5,10,20,40")
    parser.add_argument("--seed", type=int, default=888)
    parser.add_argument(
        "--reuse-slope",
        action="store_true",
        help="precompute the slope once per support (isolates the sweep cost)",
    )
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    inst = ProblemInstance(
        A=rng.normal(size=(args.m, args.n)), rho=args.rho, y=rng.normal(size=args.m), lam=1.0
    )
    line = ParameterLine(inst.b, 5.0, np.zeros(2 * args.m), -1.0)
    sizes = [int(v) for v in args.sizes.split(",")]

    medians = []
    print(f"m={args.m} n={args.n} rho={args.rho}")
    print(f"{'|E|':>6} {'median step':>14}")
    for size in sizes:
        med = time_step(inst, line, size, reuse_slope=args.reuse_slope)
        medians.append(med)
        print(f"{size:>6} {med * 1e3:>11.3f} ms")
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    print(f"fitted log-log slope: {slope:.2f} (cubic bound: 3.0)")


if __name__ == "__main__":
    main()
