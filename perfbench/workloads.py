"""Seeded inputs, timed operations and correctness checks of the workloads.

Each workload turns the seed into problem instances, runs them through the
public sgmc API one operation at a time (a closed loop with one client),
times only the library calls, and checks every output outside the timed
regions.  Mismatches are returned as strings, never raised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import sgmc

RHOS = (0.0, 0.3, 0.8)
SEGMENT_WORK = "support index of a certified segment"
VALID_STOPS = ("lambda_terminus", "t_end_reached", "unbounded")
MAX_SEGMENTS = 100_000  # effectively unbounded: sweeps end on their own stop
OPT_TOL = 1e-7  # worst optimality violation allowed at interior points
LASSO_TOL = 1e-5  # fit and l1 agreement with coordinate descent (criterion 3)
LASSO_FRACS = (0.5, 0.2, 0.05)  # lambda / lambda_max checked on rho = 0 descents


@dataclass
class OpResult:
    """Outcome of one operation: `pieces` are the path segments or zone
    nodes it produced, `work` what it adds to `work_per_s` if it passes the
    correctness pass, `solve_s` the wall time of the solver call, `certify_s` that
    of the brute-force cross-check (zones only), and `ref_s` the two together
    in reference seconds (hostspeed.py), 0 if the operation raised."""

    label: str
    pieces: int = 0
    work: float = 0.0
    solve_s: float = 0.0
    certify_s: float = 0.0
    valid: bool = False
    stop: str = ""
    supports: tuple[int, int] = (0, 0)
    problems: list[str] = field(default_factory=list)
    ref_s: float = 0.0

    @property
    def busy_s(self) -> float:
        return self.solve_s + self.certify_s


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def gaussian(rng, m, n, rho, y=None):
    A = rng.normal(size=(m, n))
    y = rng.normal(size=m) if y is None else y
    return sgmc.ProblemInstance(A=A, rho=rho, y=y, lam=1.0)


def lambda_max(inst) -> float:
    return float(np.abs(inst.matrices.C.T @ inst.b).max())


def descent_line(inst, lam0):
    return sgmc.ParameterLine(inst.b, lam0, np.zeros(2 * inst.m), -1.0)


def check_segments(inst, line, segments) -> list[str]:
    """Every segment must satisfy the optimality condition at two interior
    points (the criterion-4 form)."""
    problems = []
    for k, seg in enumerate(segments):
        hi = seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0
        for frac in (1.0 / 3.0, 2.0 / 3.0):
            t = seg.t_start + frac * (hi - seg.t_start)
            probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
            worst = sgmc.check_opt(probe, seg.weq_at(t)).worst_violation
            if worst > OPT_TOL:
                problems.append(f"segment {k} violates optimality by {worst:.2e} at t={t:.6g}")
    return problems


def warm_up():
    """One small descent: the first sweep in a process pays for lazy LAPACK
    initialisation, which must not land in timed work.  Its instance is the
    same for every seed, so that this part of the set-up is too."""
    inst = gaussian(np.random.default_rng(9999), 48, 96, 0.0)
    sgmc.path_sweep(inst, descent_line(inst, lambda_max(inst)), sgmc.zero_indicator(inst.n),
                    t_start=0.0, max_segments=MAX_SEGMENTS)


class Workload:
    """`tasks(k)` gives the inputs of round k; `run(task, mark)` performs one
    operation, calling `mark(kind)` before each timed library call so a
    tracer can tag its spans ("solve" or "certify"); `check` verifies it.

    A run does a fixed number of rounds, sized so that it lasts about the
    requested seconds at the commit that introduced the benchmark
    (`round_s` is the untraced wall time of one round there, checks
    included).  Fixed work means that two commits measured with one seed
    solve the same instances, whatever their speed."""

    name = ""
    piece = ""
    work_unit = ""
    round_s = 1.0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        warm_up()
        self.first = self.make_tasks(0)

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def tasks(self, k: int) -> list:
        return self.first if k == 0 else self.make_tasks(k)

    def make_tasks(self, k: int) -> list:
        raise NotImplementedError

    def trace_tasks(self) -> list:
        return self.tasks(0)

    def run(self, task, mark: Callable[[str], None]) -> OpResult:
        raise NotImplementedError

    def check(self, task, result: OpResult, out) -> list[str]:
        raise NotImplementedError

    def certified(self, result: OpResult) -> float:
        """Work the operation adds to `work_per_s`: none if it failed the
        correctness pass."""
        return 0.0 if result.problems else result.work


class Descent(Workload):
    """Lambda-descent sweeps from lambda_max to the lambda -> 0 terminus on
    Gaussian 100x200 instances, one per rho in each round."""

    name = "descent"
    piece = "segment"
    work_unit = SEGMENT_WORK
    round_s = 15.0
    shape = (100, 200)

    def make_tasks(self, k):
        return [
            (f"r{k}.rho{rho}", rho, (self.seed, k, j))
            for j, rho in enumerate(RHOS)
        ]

    def run(self, task, mark):
        label, rho, key = task
        inst = gaussian(np.random.default_rng(key), *self.shape, rho)
        line = descent_line(inst, lambda_max(inst))
        mark("solve")
        out, seconds = timed(sgmc.path_sweep, inst, line, sgmc.zero_indicator(inst.n),
                             t_start=0.0, max_segments=MAX_SEGMENTS)
        return sweep_result(label, out, seconds), (inst, line, out)

    def check(self, task, result, out):
        inst, line, sweep = out
        problems = check_segments(inst, line, sweep.segments)
        if inst.rho == 0.0:
            problems += check_lasso(inst, line, sweep)
        return problems


def check_lasso(inst, line, sweep) -> list[str]:
    """At rho = 0 the primal half of the path is the LASSO path (criterion 3)."""
    problems = []
    lam0 = line.lam0
    x_warm = None
    for frac in LASSO_FRACS:
        lam = frac * lam0
        w = sgmc.evaluate_path(sweep, lam0 - lam)
        if w is None:  # the sweep stopped before this lambda
            continue
        x = sgmc.split_extended(w)[0]
        x_cd = sgmc.lasso_reference(inst.A, inst.y, lam,
                                    sgmc.LassoConfig(tol=1e-10, max_iters=100_000), x0=x_warm)
        x_warm = x_cd
        fit = float(np.abs(inst.A @ x - inst.A @ x_cd).max())
        l1 = abs(float(np.abs(x).sum() - np.abs(x_cd).sum()))
        if fit > LASSO_TOL or l1 > LASSO_TOL:
            problems.append(f"LASSO mismatch at lambda={lam:.6g}: fit {fit:.2e}, l1 {l1:.2e}")
    return problems


def sweep_result(label, out, seconds) -> OpResult:
    """A sweep's work is the sum of its segments' support sizes |E|: the
    active-set algebra of a segment costs about in proportion to |E|, so
    this work per second does not depend on how far up the support a sweep
    gets before it stops (README.md)."""
    sizes = [int(np.count_nonzero(seg.s)) for seg in out.segments] or [0]
    return OpResult(
        label=label, pieces=len(out.segments), work=float(sum(sizes)), solve_s=seconds,
        valid=out.stop_reason in VALID_STOPS, stop=out.stop_reason,
        supports=(min(sizes), max(sizes)),
    )


class Transverse(Workload):
    """At fixed lambda = 0.1 lambda_max(y1), sweep b from [y1; 0] to [y2; 0]
    over t in [0, 1] on Gaussian 48x96 instances.  A pool of three
    instances per rho is prepared in set-up (each start indicator comes from
    a descent to that lambda) and every round sweeps the whole pool, on
    fresh instance objects so that nothing cached on an instance carries
    over between rounds."""

    name = "transverse"
    piece = "segment"
    work_unit = SEGMENT_WORK
    round_s = 7.0
    shape = (48, 96)
    per_rho = 3

    def make_tasks(self, k):
        pool = []
        for i in range(self.per_rho):
            for j, rho in enumerate(RHOS):
                rng = np.random.default_rng([self.seed, i, j])
                inst = gaussian(rng, *self.shape, rho)
                y2 = rng.normal(size=inst.m)
                lam_max = lambda_max(inst)
                lam = 0.1 * lam_max
                pool.append((f"i{i}.rho{rho}", inst.A, rho, inst.y, y2, lam,
                             start_indicator(inst, lam_max, lam)))
        return pool

    def tasks(self, k):
        return self.first

    def run(self, task, mark):
        label, A, rho, y1, y2, lam, s0 = task
        inst = sgmc.ProblemInstance(A=A, rho=rho, y=y1, lam=lam)
        m = inst.m
        line = sgmc.ParameterLine(inst.b, lam, np.concatenate([y2 - y1, np.zeros(m)]), 0.0)
        mark("solve")
        out, seconds = timed(sgmc.path_sweep, inst, line, s0, t_start=0.0, t_end=1.0,
                             max_segments=MAX_SEGMENTS)
        return sweep_result(label, out, seconds), (inst, line, out)

    def check(self, task, result, out):
        inst, line, sweep = out
        problems = check_segments(inst, line, sweep.segments)
        if result.valid and sweep.segments and sweep.segments[-1].t_end < 1.0:
            problems.append(f"path ends at t={sweep.segments[-1].t_end:.6g} < 1")
        return problems


def start_indicator(inst, lam_max, lam):
    """Indicator of the zone containing (b, lam): the last piece of a descent
    from lambda_max, or the saddle-point oracle if that descent stops early."""
    sweep = sgmc.path_sweep(inst, descent_line(inst, lam_max), sgmc.zero_indicator(inst.n),
                            t_start=0.0, t_end=lam_max - lam, max_segments=MAX_SEGMENTS)
    if sweep.stop_reason == "t_end_reached":
        return sweep.segments[-1].s
    return sgmc.initialize_indicator(inst, inst.b, lam, strategy="from_oracle")


class Zones(Workload):
    """`enumerate_zones` on Gaussian 2x3 instances at rho = 0.3 (r_y = 3,
    delta_lambda_min = 0.3, 24 coverage samples), then
    `brute_force_indicators` over the graph's coverage points."""

    name = "zones"
    piece = "zone node"
    work_unit = "certified zone graph"
    round_s = 4.0
    shape = (2, 3)
    rho = 0.3
    trace_instances = 2

    def make_tasks(self, k):
        A = np.random.default_rng([self.seed, k]).normal(size=self.shape)
        config = sgmc.EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, n_coverage=24, seed=k)
        return [(f"r{k}", A, config)]

    def trace_tasks(self):
        return [task for k in range(self.trace_instances) for task in self.tasks(k)]

    def run(self, task, mark):
        label, A, config = task
        inst = sgmc.ProblemInstance(A=A, rho=self.rho, y=np.zeros(A.shape[0]), lam=1.0)
        mark("solve")
        graph, enum_s = timed(sgmc.enumerate_zones, inst, config)
        mark("certify")
        brute, cert_s = timed(sgmc.brute_force_indicators, A, self.rho, graph.coverage_points)
        complete = all(graph.covered) and not graph.incomplete
        # a complete graph is one unit of work; counting nodes instead would
        # make the figure follow how many nodes the run's instances happen to
        # have (33 to 151), because brute force costs about the same for each
        result = OpResult(label=label, pieces=len(graph.nodes), work=float(complete),
                          solve_s=enum_s, certify_s=cert_s,
                          valid=complete, stop="complete" if complete else "incomplete")
        return result, (graph, brute)

    def check(self, task, result, out):
        """The nodes whose zones meet a coverage point must be exactly the
        brute-force assignments (the criterion-7 form): each graph node's
        slope is built and its zone tested at every coverage point."""
        graph, brute = out
        inst = sgmc.ProblemInstance(A=task[1], rho=self.rho, y=np.zeros(task[1].shape[0]),
                                    lam=1.0)
        meeting = set()
        for key, s in graph.nodes.items():
            piece = sgmc.candidate_slope(inst, s)
            if any(sgmc.zone_membership(inst, s, b, lam, piece=piece)
                   for b, lam in graph.coverage_points):
                meeting.add(key)
        if meeting != brute.indicators:
            return [f"zone graph disagrees with brute force: "
                    f"{len(meeting - brute.indicators)} extra, "
                    f"{len(brute.indicators - meeting)} missing"]
        return []


WORKLOADS = {w.name: w for w in (Descent, Transverse, Zones)}
