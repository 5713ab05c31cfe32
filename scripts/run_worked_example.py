#!/usr/bin/env python3
"""Walk the duplicated-column toy problem end to end.

The sensing matrix [1 1] has a duplicated column, so the solution set is not
a singleton, yet the min-norm solution map is piecewise linear with exactly
three zones.  The script traces the path along y(t) = 1, lambda(t) = 2 - t
(the breakpoint inserts both coordinates at once, so the one-at-a-time
condition fails while the step is still correct) and then enumerates the
whole zone graph.
"""

import sys
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
    indicator_to_string,
    path_sweep,
    zero_indicator,
)


def main():
    inst = ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([1.0]), lam=2.0)
    line = ParameterLine(b0=inst.b, lam0=2.0, delta_b=np.zeros(2), delta_lam=-1.0)

    print("== one deletion-insertion step from the all-zero indicator ==")
    step = elars_iterate(candidate_slope(inst, zero_indicator(inst.n)), line)
    tied = sorted(set(step.deleted) | set(step.inserted))
    print(f"breakpoint t+ = {step.t_plus}")
    print(f"next indicator = {indicator_to_string(step.s_plus)}")
    print(f"inserted = {step.inserted} with signs {step.signs}, deleted = {step.deleted}")
    print(f"one-at-a-time = {step.one_at_a_time} (changed indices {tied})")

    print("\n== full sweep of the line ==")
    result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
    for seg in result.segments:
        print(
            f"  {indicator_to_string(seg.s)} on t in [{seg.t_start:g}, {seg.t_end:g}] "
            f"(lambda from {line.lam_at(seg.t_start):g} to {line.lam_at(seg.t_end):g})"
        )
    print(f"stop reason: {result.stop_reason}")

    print("\n== zone graph ==")
    graph = enumerate_zones(inst, EnumerationConfig(r_y=5.0, delta_lambda_min=0.1, seed=0))
    print(f"nodes: {sorted(graph.nodes)}")
    for sa, sb, b_w, lam_w in graph.edges:
        print(f"  edge {sa} -- {sb} at b = {np.round(b_w, 6).tolist()}, lambda = {lam_w:g}")
    print(
        f"coverage: {graph.coverage_covered}/{graph.coverage_required}, "
        f"incomplete: {graph.incomplete}"
    )


if __name__ == "__main__":
    main()
