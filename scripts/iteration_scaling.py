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
step alone, as a path step runs.  --update times the one-index update
itself instead, `next_piece` from a support of each size: an insertion,
which grows it by one index, and a deletion from the middle of it, which
moves the last index into the freed position.  Its supports are split
between the primal and the dual block, so C_E keeps full column rank up
to |E| = 2m at rho > 0, and a column says whether the update fell back to
a rebuild, whose time is then an SVD's.

    python3 scripts/iteration_scaling.py --update --m 100 --n 200 \
        --sizes 50,100,150,190

--descent instead sweeps one lambda-descent at fixed b, from lambda_max =
||C^T b||_inf down to --to times it, from the zero zone, and prints its
segments, milliseconds per segment, largest support, the peak RSS once the
instance and its structural matrices are built, and the peak RSS of the
whole run.  Peak RSS is per process, so each size runs in its own:

    python3 scripts/iteration_scaling.py --descent --m 500 --n 5000 --to 0.2

--enumerate instead runs one `enumerate_zones` on the instance with y = 0
(A is the first draw of default_rng(--seed), as in the other modes), with
--samples coverage points at r_y = 3 and lambda = --delta-lambda-min,
drawn from the same seed.  It prints the nodes, edges, rays and covered
samples, the seconds of the call, the peak RSS of the run, whether the
dense C or D of the structural matrices was formed, and a sha256 of the
graph (nodes, edges with their witnesses, and which samples are covered),
which two checkouts can compare.  --samples defaults to 4 and
--delta-lambda-min to 3:

    python3 scripts/iteration_scaling.py --enumerate --m 200 --n 2000 --seed 0

BLAS runs on one thread, as in scripts/fingerprint.py.
"""

import os

# one BLAS thread, set before numpy loads, whatever the caller's environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sgmc import (  # noqa: E402
    EnumerationConfig,
    ParameterLine,
    ProblemInstance,
    candidate_slope,
    elars_iterate,
    enumerate_zones,
    path_sweep,
    zero_indicator,
)
from sgmc.candidate import next_piece  # noqa: E402


def time_call(fn, repeats=9, inner=5):
    """Median over `repeats` of the mean time of `inner` calls of fn."""
    fn()  # warm-up
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    return float(np.median(samples))


def time_step(inst, line, size, reuse_slope=False):
    s = np.zeros(2 * inst.n, dtype=int)
    s[:size] = 1
    piece = candidate_slope(inst, s)
    return time_call(
        lambda: elars_iterate(piece if reuse_slope else candidate_slope(inst, s), line),
        inner=3,
    )


def time_updates(inst, size):
    """Median times of a `next_piece` insertion into and a deletion from
    a support of `size` indices, half primal and half dual, and whether
    each gave an updated piece."""
    n = inst.n
    s = np.zeros(2 * n, dtype=int)
    s[: size - size // 2] = 1
    s[n : n + size // 2] = -1
    piece = candidate_slope(inst, s)
    j_in = n + size // 2  # the next dual index: the dual block is the smaller
    grown = s.copy()
    grown[j_in] = -1
    j_out = piece.support[size // 2]
    shrunk = s.copy()
    shrunk[j_out] = 0
    out = []
    for s_next, j in ((grown, j_in), (shrunk, j_out)):
        out.append(time_call(lambda: next_piece(inst, piece, s_next, j)))
        out.append(next_piece(inst, piece, s_next, j).updated)
    return out


def peak_rss_mb():
    """Peak resident set size of this process so far, in MB (Linux reports
    ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def descent(inst, frac):
    """Sweep the lambda-descent of `inst` from lambda_max to frac times it;
    return the sweep and its wall time."""
    lam_max = float(np.abs(inst.matrices.ct(inst.b)).max())
    line = ParameterLine(inst.b, lam_max, np.zeros(2 * inst.m), -1.0)
    t0 = time.perf_counter()
    result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0,
                        t_end=(1.0 - frac) * lam_max)
    return result, time.perf_counter() - t0


def enumerate_once(inst, samples, delta_lambda_min, seed):
    """One `enumerate_zones` on `inst`; print its graph, time, memory and
    whether the dense C or D was formed."""
    config = EnumerationConfig(r_y=3.0, delta_lambda_min=delta_lambda_min,
                               n_coverage=samples, seed=seed)
    t0 = time.perf_counter()
    graph = enumerate_zones(inst, config)
    seconds = time.perf_counter() - t0
    dense = "yes" if {"C", "D"} & set(vars(inst.matrices)) else "no"
    digest = hashlib.sha256(
        json.dumps({"graph": graph.to_dict(), "covered": graph.covered}).encode()
    ).hexdigest()
    print(f"{'nodes':>6} {'edges':>6} {'rays':>5} {'covered':>8} {'seconds':>8} "
          f"{'peak RSS':>10} {'dense C/D':>9}")
    print(f"{len(graph.nodes):>6} {len(graph.edges):>6} {graph.rays:>5} "
          f"{graph.coverage_covered:>4}/{graph.coverage_required:<3} {seconds:>8.2f} "
          f"{peak_rss_mb():>7.1f} MB {dense:>9}")
    print(f"graph sha256 {digest}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=48)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--rho", type=float, default=0.3)
    parser.add_argument("--sizes", default="5,10,20,40")
    parser.add_argument("--seed", type=int, default=888,
                        help="seed of the instance (and, with --enumerate, of the coverage samples)")
    parser.add_argument(
        "--reuse-slope",
        action="store_true",
        help="precompute the slope once per support (isolates the sweep cost)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="time the one-index updates of next_piece instead of the step",
    )
    parser.add_argument(
        "--descent",
        action="store_true",
        help="sweep one lambda-descent and report its time and memory instead",
    )
    parser.add_argument("--to", type=float, default=0.01,
                        help="with --descent, the end of the descent as a fraction of lambda_max")
    parser.add_argument(
        "--enumerate",
        action="store_true",
        help="run one zone enumeration with y = 0 and report its graph, time and memory",
    )
    parser.add_argument("--samples", type=int, default=4,
                        help="with --enumerate, the number of coverage samples")
    parser.add_argument("--delta-lambda-min", type=float, default=3.0,
                        help="with --enumerate, the lambda of the coverage samples")
    args = parser.parse_args()
    if args.descent and not 0.0 < args.to < 1.0:
        parser.error(f"--to must lie in (0, 1), got {args.to}")

    rng = np.random.default_rng(args.seed)
    A = rng.normal(size=(args.m, args.n))
    y = np.zeros(args.m) if args.enumerate else rng.normal(size=args.m)
    inst = ProblemInstance(A=A, rho=args.rho, y=y, lam=1.0)
    print(f"m={args.m} n={args.n} rho={args.rho}")

    if args.enumerate:
        enumerate_once(inst, args.samples, args.delta_lambda_min, args.seed)
        return

    if args.descent:
        inst.matrices  # noqa: B018 - built here, so the setup figure includes it
        setup_mb = peak_rss_mb()
        result, seconds = descent(inst, args.to)
        segments = result.segments
        support = max(int(np.count_nonzero(seg.s)) for seg in segments)
        print(f"{'to':>6} {'segments':>9} {'ms/segment':>11} {'max |E|':>8} "
              f"{'setup RSS':>10} {'peak RSS':>10} stop")
        print(f"{args.to:>6g} {len(segments):>9} {seconds * 1e3 / len(segments):>11.2f} "
              f"{support:>8} {setup_mb:>7.1f} MB {peak_rss_mb():>7.1f} MB {result.stop_reason}")
        return
    line = ParameterLine(inst.b, 5.0, np.zeros(2 * args.m), -1.0)
    sizes = [int(v) for v in args.sizes.split(",")]

    if args.update:
        rows = [time_updates(inst, size) for size in sizes]
        print(f"{'|E|':>6} {'insertion':>12} {'updated':>8} {'deletion':>12} {'updated':>8}")
        for size, (t_in, up_in, t_out, up_out) in zip(sizes, rows):
            print(f"{size:>6} {t_in * 1e6:>9.1f} us {str(up_in):>8} "
                  f"{t_out * 1e6:>9.1f} us {str(up_out):>8}")
        fit = [float(np.polyfit(np.log(sizes), np.log([r[k] for r in rows]), 1)[0])
               for k in (0, 2)]
        print(f"fitted log-log slope: insertion {fit[0]:.2f}, deletion {fit[1]:.2f} "
              f"(update bound: 2.0)")
        return

    medians = []
    print(f"{'|E|':>6} {'median step':>14}")
    for size in sizes:
        med = time_step(inst, line, size, reuse_slope=args.reuse_slope)
        medians.append(med)
        print(f"{size:>6} {med * 1e3:>11.3f} ms")
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    print(f"fitted log-log slope: {slope:.2f} (cubic bound: 3.0)")


if __name__ == "__main__":
    main()
