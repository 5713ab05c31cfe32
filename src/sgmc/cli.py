"""Command-line surface: solve one instance, sweep a parameter line,
enumerate the zone graph, or run the cross-oracle verification suite.

`sgmc path` starts in the zero zone, and in the oracle's zone only where
`path_sweep`, the one judge of a start, refuses the zero zone.

Exit codes: 0 success, 1 input error, 2 numerical non-convergence, a
refused path start or failed verification, 3 truncation/incomplete
enumeration.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .candidate import strictly_inside
from .elars import (
    EnumerationConfig,
    InitializationError,
    PathSegment,
    PathSweepResult,
    enumerate_zones,
    evaluate_path,
    initialize_indicator,
    line_from_dict,
    path_sweep,
)
from .sweep import ParameterLine
from .model import (
    INDEX_CONVENTION,
    ProblemInstance,
    indicator_to_string,
    load_instance,
    load_matrix_csv,
    zero_indicator,
)
from .optimality import (CROSS_CHECK_TOL, check_opt, encode_sopt, eqnq_membership,
                         l1_bound_holds, summarize)
from .oracle import NonConvergenceError, min_norm_over_eqnq, solve_saddle

HEADER = {"version": f"sgmc-{__version__}", "index_convention": INDEX_CONVENTION}

# sweep stop reasons that end a path normally (0) or truncate it (3); every
# other stop is a failed verification (2)
PATH_EXIT_CODES = {
    "t_end_reached": 0,
    "unbounded": 0,
    "lambda_terminus": 0,
    "max_segments": 3,
}


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _load_problem(args) -> ProblemInstance:
    if args.instance:
        return load_instance(args.instance)
    if not args.matrix_csv:
        raise ValueError("either --instance or --matrix-csv is required")
    if args.y is None or args.lam is None:
        raise ValueError("--matrix-csv mode needs --y and --lambda")
    A = load_matrix_csv(args.matrix_csv)
    return ProblemInstance(
        A=A,
        rho=args.rho,
        y=_parse_vector(args.y),
        r=None if args.r is None else _parse_vector(args.r),
        lam=args.lam,
    )


def _write_json(path: str | None, payload: dict):
    text = json.dumps({**HEADER, **payload}, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--instance", help="JSON instance file")
    p.add_argument("--matrix-csv", help="CSV file holding A (alternative to --instance)")
    p.add_argument("--y", help="comma-separated y (CSV mode)")
    p.add_argument("--r", help="comma-separated r (CSV mode, optional)")
    p.add_argument("--lambda", dest="lam", type=float, help="lambda (CSV mode)")
    p.add_argument("--rho", type=float, default=0.0, help="rho (CSV mode, default 0)")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")


def cmd_solve(args) -> int:
    """`solve_saddle` and `check_opt` at their defaults, the indicator read
    at ORACLE_READ_TOL; without convergence the best iterate (zeros if
    none) is written with "converged": false, and the exit code is 2."""
    inst = _load_problem(args)
    converged = True
    try:
        w = solve_saddle(inst)
    except NonConvergenceError as exc:
        w = exc.w if exc.w is not None else np.zeros(2 * inst.n)
        converged = False
    report = check_opt(inst, w)
    summary = summarize(inst, w)
    _write_json(
        args.out,
        {
            "w": w.tolist(),
            "indicator": indicator_to_string(encode_sopt(inst, w)),
            "beta_e": summary.beta_e.tolist(),
            "gamma_e": summary.gamma_e,
            "opt_report": report.to_dict(),
            "converged": converged,
        },
    )
    return 0 if converged else 2


def cmd_path(args) -> int:
    """Sweep the line from the zero zone; where `path_sweep` refuses that
    start, sweep from the oracle's certified indicator at
    (b(t_start), lambda(t_start)) instead.  A refusal of the oracle's
    start, by its certificate or by the sweep's, is an InitializationError
    (exit 2) whose message says it was the oracle's."""
    if args.grid < 1:  # an empty grid would write a CSV of its header alone
        raise ValueError(f"--grid must be at least 1, got {args.grid}")
    if args.t_end == args.t_start:  # an empty window would write no segment
        raise ValueError(f"--t-end must differ from --t-start, got {args.t_end} for both")
    inst = _load_problem(args)
    delta_b = (
        _parse_vector(args.delta_b) if args.delta_b else np.zeros(2 * inst.m)
    )
    if delta_b.size == inst.m:  # y-only velocity: keep r fixed
        delta_b = np.concatenate([delta_b, np.zeros(inst.m)])
    line = ParameterLine(inst.b, inst.lam, delta_b, args.delta_lambda)

    def sweep(s_init):
        return path_sweep(inst, line, s_init, t_start=args.t_start,
                          t_end=math.inf if args.t_end is None else args.t_end,
                          max_segments=args.max_segments)

    try:
        result = sweep(zero_indicator(inst.n))
    except InitializationError:  # the zero zone misses the start
        try:
            result = sweep(initialize_indicator(inst, *line.point_at(args.t_start)))
        except InitializationError as exc:
            raise InitializationError(
                f"{exc} [oracle start; the zero zone does not hold t_start]") from exc
    _write_json(args.out, result.to_dict())
    if args.csv_out:
        _write_path_csv(args.csv_out, inst, line, result, args.grid)
    return PATH_EXIT_CODES.get(result.stop_reason, 2)


def _range_end(seg: PathSegment) -> float:
    """The end of a segment's range, a ray's cut one unit past its start."""
    return seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0


def _write_path_csv(path, inst, line, result: PathSweepResult, grid: int):
    if not result.segments:
        return
    ts = np.linspace(result.segments[0].t_start, _range_end(result.segments[-1]), grid)
    with open(path, "w") as fh:
        labels = ",".join(f"w_{i}" for i in range(2 * inst.n))
        fh.write(f"t,lambda,{labels}\n")
        for t in ts:
            w = evaluate_path(result, t)
            if w is None:
                continue
            row = ",".join(repr(float(v)) for v in w)
            fh.write(f"{float(t)!r},{float(line.lam_at(t))!r},{row}\n")


def cmd_enumerate(args) -> int:
    inst = _load_problem(args)
    config = EnumerationConfig(
        r_y=args.r_y,
        delta_lambda_min=args.delta_lambda_min,
        n_coverage=args.coverage_samples,
        seed=args.seed,
    )
    graph = enumerate_zones(inst, config)
    _write_json(args.out, graph.to_dict())
    return 3 if graph.incomplete else 0


def _continuous(segments: list[PathSegment]) -> bool:
    """Whether w jumps at no breakpoint by more than 1e-8 of the path's
    largest |w| at its finite segment ends; a NaN fails."""
    ends = [seg.weq_at(t) for seg in segments for t in (seg.t_start, seg.t_end)
            if math.isfinite(t)]
    scale = np.max([np.abs(w).max() for w in ends], initial=0.0)
    return all(
        np.abs(a.weq_at(a.t_end) - b.weq_at(b.t_start)).max() <= 1e-8 * scale
        for a, b in zip(segments, segments[1:])
    )


def _spot_check(inst: ProblemInstance, line: ParameterLine, segments) -> tuple[bool, float]:
    """(ok, worst violation): whether each segment, at 0.1, 0.3, ..., 0.9 of
    its range on `line` (a ray cut one unit past its start) where lambda > 0,
    passes `check_opt` within CROSS_CHECK_TOL and `eqnq_membership` of its
    indicator.  A NaN fails, and so do a path with no segments and a segment
    with no such point, as neither is judged anywhere."""
    ok, worst = bool(segments), 0.0
    for seg in segments:
        t_hi = _range_end(seg)
        judged = False
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            t = seg.t_start + frac * (t_hi - seg.t_start)
            b_t, lam_t = line.point_at(t)
            if lam_t <= 0:
                continue
            judged = True
            probe = inst.with_params(b=b_t, lam=lam_t)
            w = seg.weq_at(t)
            v = check_opt(probe, w).worst_violation
            worst = float(np.maximum(worst, v))  # keeps a NaN
            ok = ok and v <= CROSS_CHECK_TOL and eqnq_membership(probe, seg.s, w)
        ok = ok and judged
    return ok, worst


def _verify_checks(inst: ProblemInstance):
    """Cross-oracle invariant suite on one instance; yields (name, ok, detail).

    The oracles run at their defaults, their indicators read at
    ORACLE_READ_TOL and their answers judged at CROSS_CHECK_TOL.  Each
    check is scale-free: optimality reads relative to the scale of
    `check_opt`, and every bound on w or on the fit (beta_e, gamma_e) is
    relative to the size of the quantity it bounds, so scaling
    (y, r, lambda) together changes no verdict.  The descent
    from 1.05 lambda_max starts in the zero zone, which `path_sweep`
    certifies, and is swept whole, without a segment cap: the path checks
    fail on a stop that does not end a path normally, or at a lambda the
    path does not reach."""
    w = solve_saddle(inst)
    v = check_opt(inst, w).worst_violation
    yield "saddle_optimality", v <= CROSS_CHECK_TOL, f"violation {v:.2e}"
    yield "l1_bound", l1_bound_holds(inst, w), ""

    pattern = indicator_to_string(encode_sopt(inst, w))
    # two warm starts on the answer's scale, so that scaling (y, r, lambda)
    # scales the solver's iterates with it and changes no verdict; at w = 0
    # on lambda / ||C^T D C||_2 instead, about one soft-threshold of the
    # solver, which ignores w0 where that norm is 0 (A = 0)
    start_scale = np.abs(w).max(initial=0.0)
    if start_scale == 0.0:
        mats = inst.matrices
        gram_norm = np.linalg.norm(mats.C.T @ (mats.D @ mats.C), 2)
        start_scale = inst.lam / gram_norm if gram_norm > 0.0 else 0.0
    starts = start_scale * np.random.default_rng(0).normal(size=(2, 2 * inst.n))
    patterns = [indicator_to_string(encode_sopt(inst, solve_saddle(inst, w0=w0)))
                for w0 in starts]
    yield "indicator_invariance", all(p == pattern for p in patterns), pattern

    lam_max = float(np.abs(inst.matrices.ct(inst.b)).max())
    if lam_max <= 0:
        yield "path_continuity", True, "zero signal, single zone"
        return
    lam0 = 1.05 * lam_max
    line = ParameterLine(inst.b, lam0, np.zeros(2 * inst.m), -1.0)
    result = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)
    stop = result.stop_reason
    yield ("path_continuity", PATH_EXIT_CODES.get(stop) == 0 and _continuous(result.segments),
           f"{len(result.segments)} segments, stop {stop}")

    opt_ok, worst = _spot_check(inst, line, result.segments)
    yield "path_optimality", opt_ok, f"worst {worst:.2e}"

    agree_ok = True
    detail = ""
    for frac in (0.25, 0.5, 0.75):
        lam_t = frac * lam0
        t = lam0 - lam_t
        w_path = evaluate_path(result, t)
        if w_path is None:
            agree_ok = False
            detail = f"path stops before lambda {lam_t:.3g}"
            break
        probe = inst.with_params(lam=lam_t)
        w_it = solve_saddle(probe)
        s_path = summarize(probe, w_path)
        s_it = summarize(probe, w_it)
        gap = max(  # relative to the path's fit and l1-norm
            float(np.abs(s_path.beta_e - s_it.beta_e).max() / np.abs(s_path.beta_e).max()),
            abs(s_path.gamma_e - s_it.gamma_e) / s_path.gamma_e,
        )
        detail = f"relative gap {gap:.2e}"
        agree_ok = agree_ok and gap <= 1e-5
    yield "cross_oracle_agreement", agree_ok, detail

    mid = result.segments[len(result.segments) // 2]
    t_mid = 0.5 * (mid.t_start + _range_end(mid))
    b_mid, lam_mid = line.point_at(t_mid)
    if strictly_inside(inst, mid.s, b_mid, lam_mid):
        probe = inst.with_params(b=b_mid, lam=lam_mid)
        w_mn = min_norm_over_eqnq(probe, mid.s)
        w_mid = mid.weq_at(t_mid)
        gap = float(np.abs(w_mn - w_mid).max() / np.abs(w_mid).max())
        yield "min_norm_agreement", gap <= 1e-6, f"relative gap {gap:.2e}"
    else:
        yield "min_norm_agreement", True, "no strictly interior sample"


def _verify_segments_file(inst: ProblemInstance, path: str):
    with open(path) as fh:
        data = json.load(fh)
    segments = [PathSegment.from_dict(d) for d in data["segments"]]
    line = line_from_dict(data["line"])
    yield "segments_continuity", _continuous(segments), f"{len(segments)} segments"
    spot_ok, worst = _spot_check(inst, line, segments)
    yield "segments_spot_checks", spot_ok, f"worst {worst:.2e}"


def cmd_verify(args) -> int:
    inst = _load_problem(args)
    rows = list(_verify_checks(inst))
    if args.segments:
        rows.extend(_verify_segments_file(inst, args.segments))
    width = max(len(name) for name, *_ in rows)
    all_ok = True
    for name, ok, detail in rows:
        flag = "ok  " if ok else "FAIL"
        print(f"{flag}  {name:<{width}}  {detail}")
        all_ok = all_ok and ok
    if args.out:
        _write_json(
            args.out,
            {"checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in rows]},
        )
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgmc",
        description="Piecewise-linear min-norm solution maps of the sGMC/LASSO model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance and certify optimality")
    _add_instance_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_path = sub.add_parser("path", help="piecewise-linear path along a parameter line")
    _add_instance_flags(p_path)
    p_path.add_argument("--delta-b", help="comma-separated velocity of b (or of y alone)")
    p_path.add_argument("--delta-lambda", type=float, default=0.0)
    p_path.add_argument("--t-start", type=float, default=0.0)
    p_path.add_argument("--t-end", type=float, default=None)
    p_path.add_argument(
        "--max-segments", type=int, default=math.inf,
        help="stop after this many segments and exit 3 (default: no cap; the sweep "
        "ends at its own stop, and a descent from lambda_max can have hundreds)")
    p_path.add_argument("--csv-out", help="plot-ready CSV of (t, lambda, w)")
    p_path.add_argument("--grid", type=int, default=201)
    p_path.set_defaults(func=cmd_path)

    p_enum = sub.add_parser(
        "enumerate",
        help="zone-graph enumeration: sweeps from b = 0 to each coverage sample "
        "that no zone found so far holds",
    )
    _add_instance_flags(p_enum)
    p_enum.add_argument("--seed", type=int, default=0)
    p_enum.add_argument("--r-y", type=float, required=True)
    p_enum.add_argument("--delta-lambda-min", type=float, required=True)
    p_enum.add_argument("--coverage-samples", type=int, default=64)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="cross-oracle invariant suite")
    _add_instance_flags(p_verify)
    p_verify.add_argument("--segments", help="path JSON to spot-check")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NonConvergenceError, InitializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
