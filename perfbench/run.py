#!/usr/bin/env python3
"""Benchmark of the sgmc solution-map tracer.

Run from the root of an sgmc checkout:

    python3 perfbench/run.py --workload descent --seed 1 --seconds 30 --trace 0

With `--trace 0` it times a fixed amount of work, sized so that it takes
about `--seconds`, and prints the end-to-end metrics, with times scaled to
a reference host speed (hostspeed.py); with `--trace 1` it
runs a fixed list of operations alternately untraced and traced, and
prints the per-layer metrics.  A readable report goes first, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Results, the environment and the trace spans are also written to
`.perfbench/` in the checkout.  See perfbench/README.md for the metrics.
"""

import os

# BLAS threads are fixed before numpy loads: the host has two cores shared
# with other work, and one thread repeats more closely than two.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
# least number of probe samples taken before and after each timed set-up
SETUP_PROBES = 5
# no round starts after this many times --seconds, so that a run on a much
# slower host still ends within about three minutes
OVERRUN_FACTOR = 3.0

# end-to-end metrics: name -> unit (definitions in README.md)
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("descent", "transverse", "zones"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="make the inputs and the warm-up sweep, then exit (one timed set-up)")
    return parser.parse_args(argv)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except OSError:
        return "unknown (git not available)"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "sgmc_threads_env": os.environ.get("SGMC_THREADS"),
    }


class HostClock:
    """Host-speed probe samples around every timed library call of the
    operations (hostspeed.py).  `mark` is the workloads' hook, called just
    before each timed call; `settle`, called right after an operation,
    gives it its time in reference seconds.  Each call is scaled by the
    samples taken on both sides of it: before the first call, between the
    two calls of a `zones` operation, and after the last."""

    def __init__(self):
        self.points = [hostspeed.sample()]
        self.last = time.perf_counter()

    def mark(self, kind):
        now = time.perf_counter()
        if kind == "solve":  # an operation starts: keep the latest samples
            self.points = self.points[-1:]
        else:  # the solve call has just returned, and the certify call follows
            self.points.append(hostspeed.sample(now - self.last))
        self.last = time.perf_counter()

    def settle(self, result):
        self.points.append(hostspeed.sample(time.perf_counter() - self.last))
        scales = [hostspeed.scale(a + b) for a, b in zip(self.points, self.points[1:])]
        result.ref_s = result.solve_s * scales[0] + result.certify_s * scales[-1]


def run_op(workload, task, mark, check, settle=None):
    """One operation, then (outside any timed region) `settle` and, if
    `check`, the correctness pass."""
    from workloads import OpResult

    try:
        result, out = workload.run(task, mark)
        if settle:
            settle(result)
        if check:
            result.problems = workload.check(task, result, out)
    except Exception as exc:  # one failed operation must not end the run
        result = OpResult(label=str(task[0]), stop="raised",
                          problems=[f"raised {type(exc).__name__}: {exc}"])
    return result


def failed(result) -> bool:
    return not result.valid or bool(result.problems)


def percentile_line(name, unit, values, note="") -> str:
    """Median plus the highest whole percentile with >= 10 samples beyond it."""
    n = len(values)
    if n == 0:
        return f"  {name}.p50: no samples{note}"
    line = f"  {name}.p50: {statistics.median(values):.4g} {unit}"
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n >= 20 else None
    if p is None:
        line += ", no tail percentile with 10 samples beyond it"
    elif p > 50:
        import numpy as np

        line += f", {name}.p{p}: {float(np.percentile(values, p)):.4g} {unit}"
    return line + f" (n={n}{note})"


def set_up(args):
    """The workload's inputs and warm-up sweep, made in this process."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    return workload


def timed_set_up(args) -> tuple[float, float]:
    """Wall time of one whole set-up in a fresh interpreter: start-up, the
    sgmc import, the workload's inputs and its warm-up sweep, whose first
    LAPACK call pays the lazy initialisation.  Every timed set-up is made
    this way, so their median measures one thing.  Returns the wall time
    and the host-speed factor from probes taken just before and after."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    samples = hostspeed.sample(least=SETUP_PROBES)
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    samples += hostspeed.sample(wall, least=SETUP_PROBES)
    return wall, hostspeed.scale(samples)


def measure(args):
    """Closed loop over the rounds that --seconds buys (see Workload).

    The timed set-up runs SETUP_REPEATS times in all, spread between the
    rounds: the host's speed drifts over seconds, and this way the median
    set-up time sees the same conditions as the timed work.  The inputs of
    this process come from an untimed set-up of its own.  The host-speed
    probe runs around every timed call (HostClock)."""
    workload = set_up(args)
    rounds = workload.rounds(args.seconds)
    setups = [timed_set_up(args)]
    results = []
    clock = HostClock()
    start = time.perf_counter()
    for k in range(rounds):
        if time.perf_counter() - start > OVERRUN_FACTOR * args.seconds:
            break
        results += [run_op(workload, task, clock.mark, check=True, settle=clock.settle)
                    for task in workload.tasks(k)]
        while len(setups) < 1 + math.ceil((k + 1) * (SETUP_REPEATS - 1) / rounds):
            setups.append(timed_set_up(args))
    return workload, results, setups


def end_to_end(workload, results, setups):
    """The bounded metrics, with times in reference seconds (hostspeed.py).
    `work_per_s` is the median over operations of each one's certified work
    (`Workload.certified`) per second: on the sweep workloads the support
    sizes of all segments that passed the correctness pass, including those
    a falsely stopped sweep emitted before its stop, and on `zones` one per
    certified graph (README.md)."""
    rates = [workload.certified(r) / r.ref_s if r.ref_s > 0 else 0.0 for r in results]
    return {
        "setup_s": statistics.median(wall * scale for wall, scale in setups),
        "work_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report(workload, results, metrics, setups):
    """Readable per-workload report of every end-to-end figure.  The
    bounded metrics are in reference seconds; the rest are wall times."""
    lines = []
    n = len(results)
    bad = sum(failed(r) for r in results)
    stops = {}
    for r in results:
        stops[r.stop] = stops.get(r.stop, 0) + 1
    lines.append(f"operations: {n}, stops: {dict(sorted(stops.items()))}")
    scales = [r.ref_s / r.busy_s for r in results if r.busy_s > 0] or [0.0]
    lines.append(f"host-speed factor: median {statistics.median(scales):.4g} "
                 f"(range {min(scales):.4g}..{max(scales):.4g}; reference seconds per wall second)")
    for name, unit in END_TO_END.items():
        lines.append(f"  {name}: {metrics[name]:.6g} {unit}")
    lines.append(f"  (a unit of work is a {workload.work_unit})")
    wall_rates = [workload.certified(r) / r.busy_s for r in results if r.busy_s > 0]
    lines.append(f"  wall-clock setup_s: {statistics.median(w for w, _ in setups):.6g} s, "
                 f"work_per_s: {statistics.median(wall_rates or [0.0]):.6g} 1/s")
    ok = [r for r in results if not r.problems and r.pieces]
    ok_busy = sum(r.busy_s for r in ok) or math.inf
    lines.append(f"  pieces_per_s: {sum(r.pieces for r in ok) / ok_busy:.6g} 1/s "
                 f"(a piece is a {workload.piece}, all operations that passed the checks)")
    lines.append(percentile_line("ms_per_piece", "ms", [1e3 * r.busy_s / r.pieces for r in ok],
                                 ", per operation"))
    valid = [r for r in results if r.valid]
    solve = sum(r.solve_s for r in results) or math.inf
    if workload.name == "zones":
        lines.append(f"  zones_per_s: {sum(r.pieces for r in valid) / solve:.6g} 1/s "
                     "(nodes of complete enumerations / enumerate_zones time)")
        lines.append(percentile_line("enumerate_s", "s", [r.solve_s for r in results]))
        lines.append(percentile_line("certify_s", "s", [r.certify_s for r in results]))
    else:
        lines.append(f"  segments_per_s: {sum(r.pieces for r in valid) / solve:.6g} 1/s "
                     "(goodput: segments of valid-stop sweeps / time of all sweeps)")
        lines.append(percentile_line(
            "ms_per_segment", "ms", [1e3 * r.solve_s / r.pieces for r in valid if r.pieces],
            ", valid-stop sweeps"))
        lo = min(r.supports[0] for r in results)
        hi = max(r.supports[1] for r in results)
        lines.append(f"  support size range: {lo}..{hi}")
    lines.append(f"  failed_frac: {bad / n:.6g} ratio ({bad} of {n})")
    for r in results:
        for problem in r.problems:
            lines.append(f"  CHECK FAILED {r.label}: {problem}")
    return lines


def traced_run(args, workload):
    """Alternate untraced and traced passes over one fixed list of
    operations until --seconds have passed (at least one pair)."""
    import tracing as tr

    tasks = workload.trace_tasks()
    untraced, traced, first = [], [], None
    results, problems = [], set()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain = [run_op(workload, t, lambda kind: None, check=not traced) for t in tasks]
        tracer = tr.Tracer()
        kinds = {}

        def mark(kind):
            tracer.op += 1
            kinds[tracer.op] = kind

        with tracer:
            with_trace = [run_op(workload, t, mark, check=False) for t in tasks]
        untraced.append(sum(r.busy_s for r in plain))
        traced.append(sum(r.busy_s for r in with_trace))
        metrics, unknown_stops = tr.layer_metrics(tracer.spans, kinds)
        problems.update(f"traced name {name} not found in the package" for name in tracer.missing)
        problems.update(f"stop reason {reason!r} has no elars.stop metric"
                        for reason in unknown_stops)
        if first is None:
            first = (metrics, tracer)
            self_times = {k: [] for k in metrics if k.endswith(".self_s")}
        for key in self_times:
            self_times[key].append(metrics[key])
        results += plain + with_trace
    metrics, tracer = first
    for key, values in self_times.items():
        metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return results, metrics, tracer, (untraced, traced), sorted(problems)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or ".stop." in name:
        return "count"
    if name.endswith("support_mean"):
        return "indices"
    if name.endswith("cost_exponent"):
        return "1"
    return "ratio"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sgmc" / "__init__.py").is_file():
        print(f"perfbench: no sgmc source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        set_up(args)
        return 0

    env = environment(args)
    print(f"sgmc benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    if args.trace:
        workload = set_up(args)
        results, metrics, tracer, passes, trace_problems = traced_run(args, workload)
        for problem in trace_problems:
            print(f"perfbench: TRACE BROKEN: {problem}", file=sys.stderr)
            print(f"  TRACE BROKEN: {problem}")
        print(f"traced passes: untraced {[round(t, 3) for t in passes[0]]} s, "
              f"traced {[round(t, 3) for t in passes[1]]} s")
        import tracing as tr

        print("share of traced self time:")
        for name, share in tr.layer_shares(tracer.spans).items():
            print(f"  {name}: {100 * share:.1f} %")
        for name, value in metrics.items():
            print(f"  {name}: {value:.6g} {unit_of(name)}")
    else:
        trace_problems = []
        workload, results, setups = measure(args)
        print(f"set-ups (fresh interpreter: import + inputs + warm-up): "
              f"wall {[round(w, 3) for w, _ in setups]} s, "
              f"host-speed factor {[round(f, 3) for _, f in setups]}")
        metrics = end_to_end(workload, results, setups)
        for line in report(workload, results, metrics, setups):
            print(line)

    out = {
        "correct": not any(r.problems for r in results) and not trace_problems,
        "attempted": len(results),
        "failed": sum(failed(r) for r in results),
        "metrics": {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump({"environment": env, **out,
                   "operations": [vars(r) for r in results]}, fh, indent=1)
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.json")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
