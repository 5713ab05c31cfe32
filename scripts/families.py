#!/usr/bin/env python3
"""Named, seeded families of hard instances, each reported by how its
lambda-descents end.

Every instance is descended in lambda from lambda_max = ||C^T b||_inf at
fixed b, lambda(t) = lambda_max - t, from the zero zone and with no segment
cap, so each sweep ends on its own stop.  For each family it prints the
descents, the segments, the segments whose midpoint fails `check_opt`,
the seconds the sweeps took and the stops by reason:

    python3 scripts/families.py

- `triu(p,c)`, one descent per cell p in {6, 8} x c in {0.3, 0.15, 0.1}:
  X upper triangular with X_ii = c^i and X_ij = 0.2 c^i for j > i, y = 1,
  rho = 0.  Small c grades the columns' scales over many decades.
- `int(6x12)`: A = rng.integers(-1, 2, (6, 12)), y = rng.integers(-2, 3, 6)
  with rng = default_rng(seed), seeds 0-19 x rho in {0, 0.3, 0.8}.

BLAS runs on one thread, as in scripts/fingerprint.py, since a sweep's
stops can differ between thread counts.
"""

import os

# one BLAS thread, set before numpy loads, whatever the caller's environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sgmc  # noqa: E402


def triu(p: int, c: float) -> sgmc.ProblemInstance:
    X = (np.eye(p) + np.triu(np.full((p, p), 0.2), 1)) * (c ** np.arange(p))[:, None]
    return sgmc.ProblemInstance(A=X, rho=0.0, y=np.ones(p), lam=1.0)


def integer(seed: int, rho: float, m: int = 6, n: int = 12) -> sgmc.ProblemInstance:
    rng = np.random.default_rng(seed)
    A = rng.integers(-1, 2, (m, n))
    return sgmc.ProblemInstance(A=A, rho=rho, y=rng.integers(-2, 3, m), lam=1.0)


def families():
    """(label, instances) of each report row: one per triu cell, one for int."""
    for p in (6, 8):
        for c in (0.3, 0.15, 0.1):
            yield f"triu({p},{c})", [triu(p, c)]
    yield "int(6x12)", [integer(seed, rho) for seed in range(20) for rho in (0.0, 0.3, 0.8)]


def descend(inst: sgmc.ProblemInstance) -> tuple[sgmc.PathSweepResult, sgmc.ParameterLine, float]:
    """The uncapped descent from lambda_max, its line and its seconds."""
    lam_max = float(np.abs(inst.matrices.ct(inst.b)).max())
    line = sgmc.ParameterLine(inst.b, lam_max, np.zeros(2 * inst.m), -1.0)
    start = time.perf_counter()
    sweep = sgmc.path_sweep(inst, line, sgmc.zero_indicator(inst.n), t_start=0.0)
    return sweep, line, time.perf_counter() - start


def midpoint_failures(inst, line, segments) -> int:
    """Segments whose midpoint fails `check_opt`."""
    failed = 0
    for seg in segments:
        t = 0.5 * (seg.t_start + seg.t_end)
        b, lam = line.point_at(t)
        failed += not sgmc.check_opt(inst.with_params(b=b, lam=lam), seg.weq_at(t)).satisfied
    return failed


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    print(f"{'family':<16}{'descents':>9}{'segments':>9}{'failed':>7}{'seconds':>9}  stops")
    for label, instances in families():
        stops, segments, failed, seconds = Counter(), 0, 0, 0.0
        for inst in instances:
            sweep, line, took = descend(inst)
            stops[sweep.stop_reason] += 1
            segments += len(sweep.segments)
            failed += midpoint_failures(inst, line, sweep.segments)
            seconds += took
        reasons = " ".join(f"{r}={k}" for r, k in sorted(stops.items()))
        print(f"{label:<16}{len(instances):>9}{segments:>9}{failed:>7}{seconds:>9.3f}  {reasons}")


if __name__ == "__main__":
    main()
