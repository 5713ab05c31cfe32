"""In-memory span tracing around calls into the sgmc layers.

The package imports several functions by name (`elars` and `oracle` import
`candidate_slope`, `zone_membership`, `restrict_to_line` and
`zone_exit_times`; `candidate` imports `correlation`), so patching only the
defining module would miss most calls.  `Tracer.install` therefore rebinds
every module-level name, in every loaded `sgmc` module, that refers to a
traced function, and `Tracer.uninstall` puts the originals back.

A span is [name, start, end, parent, op, info]: `parent` is the index of the
enclosing span (-1 for none), `op` the benchmark operation it belongs to and
`info` a small per-call attribute (support size, stop reason, ...).
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

STOP_REASONS = (
    "t_end_reached",
    "unbounded",
    "lambda_terminus",
    "unverified_step",
    "degenerate_interval",
    "cycle_detected",
    "max_segments",
)


def _slope_info(args, kwargs, out):
    # support size and a hash of the indicator, for distinct_frac
    return int(np.count_nonzero(out.s)), hash(out.s.tobytes())


def _iterate_info(args, kwargs, out):
    return int(np.count_nonzero(out.s))


def _sweep_info(args, kwargs, out):
    return out.stop_reason, len(out.segments)


# (span name, module, attribute, info function)
FUNCTIONS = (
    ("model.build_matrices", "sgmc.model", "build_model_matrices", None),
    ("optimality.correlation", "sgmc.optimality", "correlation", None),
    ("candidate.slope", "sgmc.candidate", "candidate_slope", _slope_info),
    ("candidate.membership", "sgmc.candidate", "zone_membership", None),
    ("sweep.restrict", "sgmc.sweep", "restrict_to_line", None),
    ("sweep.exit_times", "sgmc.sweep", "zone_exit_times", None),
    ("elars.iterate", "sgmc.elars", "elars_iterate", _iterate_info),
    ("elars.path_sweep", "sgmc.elars", "path_sweep", _sweep_info),
    ("elars.enumerate_zones", "sgmc.elars", "enumerate_zones", None),
    ("elars.init_oracle", "sgmc.elars", "initialize_indicator", None),
    ("oracle.saddle", "sgmc.oracle", "solve_saddle", None),
    ("oracle.brute_force", "sgmc.oracle", "brute_force_indicators", None),
)
# methods are patched on their class; instances look them up there
METHODS = (("model.with_params", "sgmc.model", "ProblemInstance", "with_params"),)


class Tracer:
    """Records spans while installed; `op` tags the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # traced names the package no longer defines; their metrics would
        # read 0, which looks like a gain, so the run reports them as errors
        self.missing: list[str] = []

    def span(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if info is not None:
                record[5] = info(args, kwargs, out)
            return out

        return traced

    def install(self):
        modules = [m for k, m in sys.modules.items() if k == "sgmc" or k.startswith("sgmc.")]
        for name, mod_name, attr, info in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.span(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for name, mod_name, cls_name, attr in METHODS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op", "info"], "spans": self.spans},
                fh,
            )


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Calls are sequential within one thread, so children never overlap and
    the sum of their durations is the part of the parent they cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, info in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def layer_metrics(spans, op_kinds: dict[int, str]) -> tuple[dict[str, float], set[str]]:
    """Per-layer counts, self times and ratios from one traced pass, and
    the stop reasons outside STOP_REASONS (which have no metric).

    `op_kinds` maps each operation id to "solve" (path_sweep or
    enumerate_zones) or "certify" (brute_force_indicators)."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, st in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st

    builds = {"solve": 0, "certify": 0}
    distinct = {"solve": set(), "certify": set()}
    support_total = 0
    step_sizes, step_times = [], []
    stops = dict.fromkeys(STOP_REASONS, 0)
    unknown = set()
    segments = 0
    for name, start, end, parent, op, info in spans:
        if info is None:  # the call raised, or its layer records no info
            continue
        if name == "candidate.slope":
            kind = op_kinds.get(op, "solve")
            builds[kind] += 1
            distinct[kind].add((op, info[1]))
            support_total += info[0]
        elif name == "elars.iterate":
            if info > 0:
                step_sizes.append(info)
                step_times.append(end - start)
        elif name == "elars.path_sweep":
            if info[0] in stops:
                stops[info[0]] += 1
            else:
                unknown.add(info[0])
            segments += info[1]

    def frac(num, den):
        return num / den if den else 0.0

    out = {}
    for name in (
        "candidate.slope", "candidate.membership", "optimality.correlation",
        "sweep.restrict", "sweep.exit_times", "elars.iterate",
        "oracle.brute_force", "oracle.saddle",
    ):
        out[f"{name}.self_s"] = self_s[name]
    for name in (
        "candidate.slope", "candidate.membership", "optimality.correlation",
        "model.build_matrices", "model.with_params", "sweep.restrict",
        "sweep.exit_times", "elars.iterate", "elars.path_sweep",
        "elars.init_oracle",
    ):
        out[f"{name}.calls"] = calls[name]
    out["candidate.slope.support_mean"] = frac(support_total, calls["candidate.slope"])
    out["candidate.slope.distinct_frac"] = frac(len(distinct["solve"]), builds["solve"])
    out["candidate.slope.distinct_frac.certify"] = frac(
        len(distinct["certify"]), builds["certify"]
    )
    out["elars.iterate.cost_exponent"] = cost_exponent(step_sizes, step_times)
    out["elars.steps_per_segment"] = frac(calls["elars.iterate"], segments)
    for reason, count in stops.items():
        out[f"elars.stop.{reason}"] = count
    return out, unknown


def cost_exponent(sizes, times) -> float:
    """Log-log slope of step time against support size |E|; 0 when fewer
    than two distinct sizes were traced."""
    if len(set(sizes)) < 2:
        return 0.0
    slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
    return float(slope) if math.isfinite(slope) else 0.0


def layer_shares(spans) -> dict[str, float]:
    """Share of all traced self time spent in each span name."""
    totals: dict[str, float] = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        totals[span[0]] += st
    whole = sum(totals.values()) or 1.0
    return {k: v / whole for k, v in sorted(totals.items(), key=lambda kv: -kv[1])}
