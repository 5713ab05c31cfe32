"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget, printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from sgmc import (
    EnumerationConfig,
    LassoConfig,
    OracleConfig,
    ParameterLine,
    ProblemInstance,
    brute_force_indicators,
    candidate_slope,
    check_opt,
    elars_iterate,
    encode_sopt,
    enumerate_zones,
    evaluate_path,
    indicator_from_string,
    indicator_to_string,
    l1_bound_holds,
    lasso_reference,
    min_norm_over_eqnq,
    path_sweep,
    solve_saddle,
    split_extended,
    summarize,
    zero_indicator,
    zone_membership,
)
from sgmc.candidate import eval_weq, strictly_inside


@contextmanager
def criterion(number: int, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")


def gaussian_instance(seed, m, n, rho):
    rng = np.random.default_rng(seed)
    return ProblemInstance(A=rng.normal(size=(m, n)), rho=rho, y=rng.normal(size=m), lam=1.0)


def lambda_max(inst):
    return float(np.abs(inst.matrices.C.T @ inst.b).max())


def descent_sweep(inst, lam0=None):
    lam0 = lam0 if lam0 is not None else 1.0 * lambda_max(inst)
    line = ParameterLine(inst.b, lam0, np.zeros(2 * inst.m), -1.0)
    return line, path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0)


def test_criterion_1_three_zone_reproduction():
    with criterion(1, "three-zone enumeration and published zone membership"):
        start = time.perf_counter()
        inst = ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([2.0]), lam=1.0)
        graph = enumerate_zones(inst, EnumerationConfig(r_y=5.0, delta_lambda_min=0.1, seed=0))
        assert sorted(graph.nodes) == ["++00", "--00", "0000"]

        s0 = zero_indicator(2)
        s1 = indicator_from_string("++00")
        s2 = indicator_from_string("--00")
        pieces = {k: candidate_slope(inst, s) for k, s in (("0", s0), ("+", s1), ("-", s2))}
        ys = np.linspace(-3.0, 3.0, 20)
        lams = np.linspace(0.2, 2.0, 5)
        checked = 0
        for y in ys:
            for lam in lams:
                if abs(abs(y) - lam) <= 1e-6:
                    continue  # classification only asserted away from the boundary
                b = np.array([y, 0.0])
                assert zone_membership(inst, s0, b, lam, piece=pieces["0"]) == (abs(y) <= lam)
                assert zone_membership(inst, s1, b, lam, piece=pieces["+"]) == (y >= lam)
                assert zone_membership(inst, s2, b, lam, piece=pieces["-"]) == (y <= -lam)
                checked += 1
        assert checked >= 95  # 100-point grid minus boundary hits
        assert time.perf_counter() - start < 1.0


def test_criterion_2_worked_line_reproduction():
    with criterion(2, "two-segment worked line with simultaneous double insertion"):
        start = time.perf_counter()
        inst = ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([1.0]), lam=2.0)
        line = ParameterLine(inst.b, 2.0, np.zeros(2), -1.0)
        step = elars_iterate(candidate_slope(inst, zero_indicator(2)), line)
        assert step.inserted == (0, 1) and step.deleted == ()
        assert not step.one_at_a_time
        result = path_sweep(inst, line, zero_indicator(2), t_start=0.0)
        assert len(result.segments) == 2
        assert abs(result.segments[0].t_end - 1.0) <= 1e-9
        assert abs(result.segments[1].t_end - 2.0) <= 1e-9
        assert indicator_to_string(result.segments[1].s) == "++00"
        assert result.stop_reason == "lambda_terminus"
        assert time.perf_counter() - start < 0.1


def test_criterion_3_lasso_reduction():
    with criterion(3, "lambda-descent path matches coordinate-descent LASSO"):
        start = time.perf_counter()
        cd_cfg = LassoConfig(tol=1e-11, max_iters=500000)
        for seed in range(20):
            inst = gaussian_instance(300 + seed, m=5, n=10, rho=0.0)
            lam0 = lambda_max(inst)
            line, result = descent_sweep(inst, lam0)
            x_warm = None
            for lam_s in np.linspace(0.95, 0.05, 20) * lam0:
                w = evaluate_path(result, lam0 - lam_s)
                assert w is not None
                x = split_extended(w)[0]
                x_cd = lasso_reference(inst.A, inst.y, lam_s, cd_cfg, x0=x_warm)
                x_warm = x_cd
                assert np.abs(inst.A @ x - inst.A @ x_cd).max() <= 1e-5
                assert abs(np.abs(x).sum() - np.abs(x_cd).sum()) <= 1e-5
        assert time.perf_counter() - start < 10.0


def test_criterion_4_optimality_certification():
    with criterion(4, "segmentwise optimality and saddle-solver agreement"):
        start = time.perf_counter()
        rhos = [0.0, 0.3, 0.8]
        cfg = OracleConfig(tol=1e-9)
        for k in range(20):
            inst = gaussian_instance(400 + k, m=5, n=10, rho=rhos[k % 3])
            line, result = descent_sweep(inst)
            assert len(result.segments) >= 1
            for seg in result.segments:
                hi = seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0
                for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                    t = seg.t_start + frac * (hi - seg.t_start)
                    probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
                    assert check_opt(probe, seg.weq_at(t)).worst_violation <= 1e-7
            for frac in (0.3, 0.6, 0.9):
                seg = result.segments[min(int(frac * len(result.segments)), len(result.segments) - 1)]
                hi = seg.t_end if math.isfinite(seg.t_end) else seg.t_start + 1.0
                t = 0.5 * (seg.t_start + hi)
                probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
                w_it = solve_saddle(probe, cfg)
                a, b = summarize(probe, seg.weq_at(t)), summarize(probe, w_it)
                assert np.abs(a.beta_e - b.beta_e).max() <= 1e-5
                assert abs(a.gamma_e - b.gamma_e) <= 1e-5
        assert time.perf_counter() - start < 30.0


def test_criterion_5_min_norm_property():
    with criterion(5, "candidate map equals the min-norm feasible element"):
        start = time.perf_counter()
        samples = 0
        seed = 0
        while samples < 50:
            seed += 1
            inst = gaussian_instance(500 + seed, m=4, n=7, rho=[0.0, 0.3, 0.6][seed % 3])
            inst = inst.with_params(lam=0.5 * max(lambda_max(inst), 0.1))
            w = solve_saddle(inst, OracleConfig(tol=1e-11))
            s = encode_sopt(inst, w)
            if not strictly_inside(inst, s, inst.b, inst.lam):
                continue
            piece = candidate_slope(inst, s)
            w_map = eval_weq(piece, inst.b, inst.lam)
            w_mn = min_norm_over_eqnq(inst, s)
            assert np.linalg.norm(w_map) <= np.linalg.norm(w_mn) + 1e-8
            assert np.abs(w_map - w_mn).max() <= 1e-6
            samples += 1
        assert time.perf_counter() - start < 20.0


def test_criterion_6_geometry_property_suite():
    with criterion(6, "geometry invariants over 200 randomized trials"):
        start = time.perf_counter()
        trials = 0
        failures = 0

        # cone scaling and midpoint convexity: 50 + 30 trials
        for k in range(50):
            inst = gaussian_instance(600 + k, m=4, n=6, rho=[0.0, 0.4][k % 2])
            inst = inst.with_params(lam=0.6 * max(lambda_max(inst), 0.1))
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            s = encode_sopt(inst, w)
            piece = candidate_slope(inst, s)
            if not zone_membership(inst, s, inst.b, inst.lam, piece=piece):
                failures += 1
                trials += 1
                continue
            theta = (0.5, 2.0, 10.0)[k % 3]
            ok = zone_membership(inst, s, theta * inst.b, theta * inst.lam, piece=piece)
            if k < 30:
                b2, lam2 = 4.0 * inst.b, 4.0 * inst.lam
                mid_ok = zone_membership(
                    inst, s, 0.5 * (inst.b + b2), 0.5 * (inst.lam + lam2), piece=piece
                )
                trials += 1
                failures += 0 if mid_ok else 1
            trials += 1
            failures += 0 if ok else 1

        # breakpoint continuity: 30 trials (consecutive pairs)
        pairs = 0
        k = 0
        while pairs < 30:
            inst = gaussian_instance(700 + k, m=4, n=8, rho=[0.0, 0.5][k % 2])
            k += 1
            _, result = descent_sweep(inst)
            for a, b in zip(result.segments, result.segments[1:]):
                if pairs >= 30:
                    break
                jump = np.abs(a.weq_at(a.t_end) - b.weq_at(b.t_start)).max()
                trials += 1
                pairs += 1
                failures += 0 if jump <= 1e-8 else 1

        # l1 bound and per-half sparsity on Gaussian ensembles: 30 + 30
        for k in range(30):
            inst = gaussian_instance(800 + k, m=4, n=9, rho=[0.0, 0.3, 0.7][k % 3])
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            trials += 1
            failures += 0 if l1_bound_holds(inst, w) else 1
            x, z = split_extended(w)
            bound = min(inst.m, inst.n)
            sparse_ok = (np.abs(x) > 1e-6).sum() <= bound and (np.abs(z) > 1e-6).sum() <= bound
            trials += 1
            failures += 0 if sparse_ok else 1

        # indicator invariance across solver initializations: 30
        for k in range(30):
            inst = gaussian_instance(900 + k, m=4, n=6, rho=[0.0, 0.5][k % 2])
            rng = np.random.default_rng(900 + k)
            cfg = OracleConfig(tol=1e-10)
            patterns = {
                indicator_to_string(
                    encode_sopt(inst, solve_saddle(inst, cfg, w0=rng.normal(size=12)))
                )
                for _ in range(3)
            }
            trials += 1
            failures += 0 if len(patterns) == 1 else 1

        assert trials >= 200, f"only {trials} trials executed"
        assert failures == 0, f"{failures} failures out of {trials} trials"
        assert time.perf_counter() - start < 60.0


def test_criterion_7_brute_force_equivalence():
    with criterion(7, "zone graph equals exhaustive enumeration on tiny instances"):
        start = time.perf_counter()
        cases = [(1, 0.0), (2, 0.5), (1, 0.5), (2, 0.0), (2, 0.5)]
        for seed, (m, rho) in enumerate(cases):
            rng = np.random.default_rng(100 + seed)
            A = rng.normal(size=(m, 2))
            inst = ProblemInstance(A=A, rho=rho, y=np.zeros(m), lam=1.0)
            config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, seed=seed, n_coverage=24)
            graph = enumerate_zones(inst, config)
            assert all(graph.covered), "a sampled point is not covered by any zone"
            assert not graph.incomplete
            brute = brute_force_indicators(A, rho, graph.coverage_points)
            meeting = set()
            for key, s in graph.nodes.items():
                piece = candidate_slope(inst, s)
                if any(
                    zone_membership(inst, s, b, l, piece=piece)
                    for b, l in graph.coverage_points
                ):
                    meeting.add(key)
            assert meeting == brute.indicators
        assert time.perf_counter() - start < 30.0


def test_criterion_8_iteration_cost_scaling():
    with criterion(8, "iteration cost grows at most cubically in the support size"):
        m, n = 48, 96
        rng = np.random.default_rng(888)
        A = rng.normal(size=(m, n))
        inst = ProblemInstance(A=A, rho=0.3, y=rng.normal(size=m), lam=1.0)
        line = ParameterLine(inst.b, 5.0, np.zeros(2 * m), -1.0)
        sizes = [5, 10, 20, 40]
        medians = []
        for size in sizes:
            s = np.zeros(2 * n, dtype=int)
            s[:size] = 1
            piece = candidate_slope(inst, s)
            elars_iterate(piece, line)  # warm-up
            reps = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(3):
                    elars_iterate(piece, line)
                reps.append((time.perf_counter() - t0) / 3)
            medians.append(float(np.median(reps)))
        slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
        print(f"  per-size medians: {[f'{v*1e3:.2f}ms' for v in medians]}, slope {slope:.2f}")
        assert slope <= 3.5
