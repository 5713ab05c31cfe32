import itertools

import numpy as np
import numpy.testing as npt
import pytest

from sgmc import (
    InfeasibleSystemError,
    LassoConfig,
    NonConvergenceError,
    OracleConfig,
    ParameterLine,
    ProblemInstance,
    brute_force_indicators,
    candidate_slope,
    check_opt,
    encode_sopt,
    indicator_from_string,
    indicator_to_string,
    l1_bound_holds,
    lasso_reference,
    min_norm_over_eqnq,
    path_sweep,
    solve_saddle,
    split_extended,
    strictly_inside,
    summarize,
    zero_indicator,
    zone_membership,
)
from sgmc.candidate import eval_weq
from conftest import random_instance

S1 = indicator_from_string("++00")


class TestSolveSaddle:
    def test_zero_signal_is_immediate_fixed_point(self):
        inst = ProblemInstance(A=np.eye(3), rho=0.4, y=np.zeros(3), lam=1.0)
        w = solve_saddle(inst, OracleConfig(max_iters=2))
        npt.assert_array_equal(w, np.zeros(6))

    def test_two_column_fits(self, two_column):
        w = solve_saddle(two_column, OracleConfig(tol=1e-11))
        x, z = split_extended(w)
        assert (two_column.A @ x).item() == pytest.approx(1.0, abs=1e-8)
        assert np.abs(x).sum() == pytest.approx(1.0, abs=1e-8)
        npt.assert_allclose(z, 0.0, atol=1e-8)

    def test_random_certificate(self, rand_4x8):
        w = solve_saddle(rand_4x8, OracleConfig(tol=1e-9))
        assert check_opt(rand_4x8, w).worst_violation <= 1e-7

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    def test_certificate_across_rho(self, rho):
        inst = random_instance(90, m=5, n=10, rho=rho)
        w = solve_saddle(inst, OracleConfig(tol=1e-10))
        assert check_opt(inst, w).worst_violation <= 1e-8

    def test_warm_start(self, rand_4x8):
        w = solve_saddle(rand_4x8, OracleConfig(tol=1e-10))
        w2 = solve_saddle(rand_4x8, OracleConfig(tol=1e-10, max_iters=50), w0=w)
        assert check_opt(rand_4x8, w2).worst_violation <= 1e-8

    def test_config_refuses_a_tolerance_that_is_not_positive(self):
        with pytest.raises(ValueError, match="positive"):
            OracleConfig(tol=0.0)

    def test_nan_iterate_does_not_converge(self, two_column):
        # a NaN warm start keeps every iterate NaN; its worst excess is NaN,
        # which must not pass the stopping test
        with pytest.raises(NonConvergenceError):
            solve_saddle(two_column, OracleConfig(max_iters=50), w0=np.array([np.nan, 0, 0, 0]))


class TestMinNormOverEqnq:
    def test_zero_indicator_inside_zero_zone(self):
        inst = random_instance(91, m=3, n=4)
        inst = inst.with_params(lam=1.3 * float(np.abs(inst.matrices.C.T @ inst.b).max()))
        npt.assert_array_equal(min_norm_over_eqnq(inst, zero_indicator(4)), np.zeros(8))

    @pytest.mark.parametrize("lam, inside", [(0.5, False), (1.5, True)])
    def test_zero_indicator_is_judged(self, lam, inside):
        # on A = I_2 the zero zone is lam >= max|y| = 1: inside it the
        # oracle returns zeros, outside it the system of 0 is empty
        inst = ProblemInstance(A=np.eye(2), rho=0.3, y=np.ones(2), lam=lam)
        if inside:
            npt.assert_array_equal(min_norm_over_eqnq(inst, zero_indicator(2)), np.zeros(4))
        else:
            with pytest.raises(InfeasibleSystemError):
                min_norm_over_eqnq(inst, zero_indicator(2))

    def test_inconsistent_equalities_are_infeasible(self, two_column):
        # the two equal columns give xi_0 = xi_1, which +-00 asks to be
        # +lambda and -lambda at once
        with pytest.raises(InfeasibleSystemError, match="equality system"):
            min_norm_over_eqnq(two_column, indicator_from_string("+-00"))

    def test_two_column_hand_value(self, two_column):
        # KKT by hand: active block solves x1 + x2 = y - lam with equal split
        npt.assert_allclose(min_norm_over_eqnq(two_column, S1), [0.5, 0.5, 0, 0], atol=1e-9)

    def test_agrees_with_map_at_interior_points(self):
        checked = 0
        for seed in range(8):
            inst = random_instance(100 + seed, m=3, n=5, rho=0.25 * (seed % 3))
            w = solve_saddle(inst, OracleConfig(tol=1e-11))
            s = encode_sopt(inst, w)
            if not strictly_inside(inst, s, inst.b, inst.lam):
                continue
            piece = candidate_slope(inst, s)
            npt.assert_allclose(
                min_norm_over_eqnq(inst, s), eval_weq(piece, inst.b, inst.lam), atol=1e-7
            )
            checked += 1
        assert checked >= 4

    def test_null_space_case_duplicated_columns(self, two_column):
        # S_EQ-NQ of ++00 at (y, lam) = (2, 1) is the segment x1+x2=1, x>=0;
        # its min-norm element is the even split
        w = min_norm_over_eqnq(two_column, S1)
        npt.assert_allclose(w, [0.5, 0.5, 0.0, 0.0], atol=1e-8)

    def test_agrees_with_path_at_breakpoints(self):
        # lambda descents on A = [B, B]: the twin columns give the equality
        # set a null space, on which xi is constant off the support, and at
        # a breakpoint one of those correlations sits on its bound.  Their
        # halfspaces, with normals of rounding noise, made the oracle raise
        # or miss the path at 13 of these 46 breakpoints
        breakpoints = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            B = rng.normal(size=(3, 3))
            inst = ProblemInstance(A=np.hstack([B, B]), rho=0.3, y=rng.normal(size=3), lam=1.0)
            lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
            line = ParameterLine(inst.b, lam_max, np.zeros(6), -1.0)
            result = path_sweep(inst, line, zero_indicator(6), t_start=0.0)
            assert result.stop_reason == "lambda_terminus"
            for seg in result.segments:
                points = [0.5 * (seg.t_start + seg.t_end)]
                if line.lam_at(seg.t_end) > 0:
                    points.append(seg.t_end)
                    breakpoints += 1
                for t in points:
                    probe = inst.with_params(b=line.b_at(t), lam=line.lam_at(t))
                    want = seg.weq_at(t)
                    npt.assert_allclose(min_norm_over_eqnq(probe, seg.s), want,
                                        rtol=0, atol=1e-8 * np.abs(want).max())
        assert breakpoints == 46

    def test_infeasible_at_wrong_parameters(self, two_column):
        # ++00 needs y - lam >= 0 for NQ signs; y = -3 makes it empty
        probe = two_column.with_params(b=np.array([-3.0, 0.0]))
        with pytest.raises(InfeasibleSystemError):
            min_norm_over_eqnq(probe, S1)


def lasso_kkt_ok(A, y, lam, x, tol=1e-7):
    g = A.T @ (y - A @ x)
    for j in range(A.shape[1]):
        if abs(x[j]) > 1e-10:
            if abs(g[j] - lam * np.sign(x[j])) > tol:
                return False
        elif abs(g[j]) > lam + tol:
            return False
    return True


class TestLassoReference:
    def test_zero_observation(self):
        x = lasso_reference(np.eye(3), np.zeros(3), 0.5)
        npt.assert_array_equal(x, np.zeros(3))

    def test_two_column_hand_kkt(self):
        A = np.array([[1.0, 1.0]])
        x = lasso_reference(A, np.array([2.0]), 1.0, LassoConfig(tol=1e-12))
        assert (A @ x).item() == pytest.approx(1.0, abs=1e-9)
        assert (x >= -1e-12).all()
        assert lasso_kkt_ok(A, np.array([2.0]), 1.0, x)

    def test_random_kkt_residual(self):
        rng = np.random.default_rng(92)
        A = rng.normal(size=(5, 9))
        y = rng.normal(size=5)
        x = lasso_reference(A, y, 0.7, LassoConfig(tol=1e-9))
        assert lasso_kkt_ok(A, y, 0.7, x)

    def test_non_convergence_reports_its_residual(self):
        rng = np.random.default_rng(92)
        A = rng.normal(size=(5, 9))
        y = rng.normal(size=5)
        with pytest.raises(NonConvergenceError) as exc:
            lasso_reference(A, y, 0.1, LassoConfig(max_iters=1, tol=1e-12))
        assert exc.value.achieved > 1e-12
        assert exc.value.w.shape == (9,)
        assert f"{exc.value.achieved:.3e}" in str(exc.value)

    def test_rank_deficient_support_converges(self):
        # cold start on the 5 x 10 instance of seed 312 at lambda =
        # 0.05 lambda_max: coordinate descent holds 6 columns in R^5 and, on
        # its own, crawls along their null direction for about 1e5 sweeps
        rng = np.random.default_rng(312)
        A = rng.normal(size=(5, 10))
        y = rng.normal(size=5)
        lam = 0.05 * float(np.abs(A.T @ y).max())
        x = lasso_reference(A, y, lam, LassoConfig(tol=1e-11, max_iters=1000))
        assert lasso_kkt_ok(A, y, lam, x, tol=1e-11)
        assert np.count_nonzero(x) == 5

    def test_zero_column_handled(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        x = lasso_reference(A, np.array([2.0, 1.0]), 0.5)
        assert x[1] == 0.0


class TestBruteForce:
    def test_two_column_grid_finds_exactly_three(self):
        samples = [(np.array([y, 0.0]), 1.0) for y in np.linspace(-3.0, 3.0, 21)]
        result = brute_force_indicators(np.array([[1.0, 1.0]]), 0.0, samples)
        assert result.indicators == {"0000", "++00", "--00"}

    def test_dominated_lambda_assigns_zero_zone(self):
        rng = np.random.default_rng(93)
        A = rng.normal(size=(2, 2))
        b = np.concatenate([rng.normal(size=2), np.zeros(2)])
        lam = 1.5 * float(np.abs(np.vstack([A.T @ b[:2], np.zeros((2, 2))]).max()))
        lam = max(lam, 1.5 * float(np.abs(A.T @ b[:2]).max()))
        result = brute_force_indicators(A, 0.0, [(b, lam)])
        assert result.assignments == ["0000"]

    def test_every_sample_covered_on_random_1x2(self):
        rng = np.random.default_rng(94)
        A = rng.normal(size=(1, 2))
        samples = [
            (np.concatenate([rng.normal(size=1), np.zeros(1)]), float(rng.uniform(0.2, 2)))
            for _ in range(100)
        ]
        result = brute_force_indicators(A, 0.0, samples)
        assert all(a is not None for a in result.assignments)

    def test_no_samples(self):
        result = brute_force_indicators(np.array([[1.0, 1.0]]), 0.0, [])
        assert result.indicators == set() and result.assignments == result.matches == []

    def test_a_sample_nothing_matches_is_unassigned(self):
        # no zone holds a sample at lambda = 0 (`in_zone` needs lambda > 0),
        # so it matches nothing and is assigned None
        samples = [(np.array([1.0, 0.0]), 0.0), (np.array([1.0, 0.0]), 2.0)]
        result = brute_force_indicators(np.array([[1.0, 1.0]]), 0.0, samples)
        assert result.assignments == [None, "0000"]
        assert result.matches[0] == []
        assert result.indicators == {"0000"}

    def test_size_guard(self):
        with pytest.raises(ValueError):
            brute_force_indicators(np.ones((2, 6)), 0.0, [])

    @pytest.mark.parametrize(
        "seed, shape, rho, duplicated",
        [
            (100, (1, 2), 0.0, False),
            (101, (2, 2), 0.5, False),
            (102, (1, 2), 0.5, False),
            (103, (2, 2), 0.0, False),
            (104, (2, 2), 0.5, False),
            (105, (2, 3), 0.3, False),
            (106, (2, 3), 0.3, True),
            (107, (2, 3), 0.0, False),
            (108, (1, 3), 0.3, False),
            (109, (2, 4), 0.3, False),
        ],
    )
    def test_batched_zone_tests_match_per_sample_loop(self, seed, shape, rho, duplicated):
        # the five criterion-7 instances, 2x3 ones at rho 0.3 and 0 (where
        # the dual columns of C vanish), a 2x3 one with columns [a, a, c],
        # whose rank-deficient supports admit only some sign patterns, a 1x3
        # one, whose rank is below |E| on most supports, and a 2x4 one
        # (2n = 8): testing all compatible (support, pattern) pairs of one
        # size at all samples at once assigns exactly what one
        # zone_membership and one optimality check per (zone, sample) pair
        # assigns
        rng = np.random.default_rng(seed)
        A = rng.normal(size=shape)
        if duplicated:
            A[:, 1] = A[:, 0]
        m, n = shape
        samples = []
        for _ in range(24):
            u = rng.normal(size=m)
            samples.append((np.concatenate([3.0 * u / np.linalg.norm(u), np.zeros(m)]), 0.3))
        result = brute_force_indicators(A, rho, samples)

        base = ProblemInstance(A=A, rho=rho, y=np.zeros(m), lam=1.0)
        pieces = [
            piece
            for combo in itertools.product((1, 0, -1), repeat=2 * n)
            if (piece := candidate_slope(base, np.array(combo))).compatible
        ]
        if duplicated:  # the support {a, a} admits equal signs only
            assert candidate_slope(base, np.array([1, 1, 0, 0, 0, 0])).compatible
            assert not candidate_slope(base, np.array([1, -1, 0, 0, 0, 0])).compatible
        if rho == 0.0:
            # the dual columns of C vanish: M = 0 exactly on an all-dual
            # support, no pattern fits it, and no match has a dual entry
            for on in itertools.product((1, 0), repeat=n):
                if any(on):
                    piece = candidate_slope(base, np.array((0,) * n + on))
                    assert not piece.M.any() and not piece.compatible
            assert all(key[n:] == "0" * n for keys in result.matches for key in keys)
        matches, assignments = [], []
        for b, lam in samples:
            matched = [
                (float(np.linalg.norm(eval_weq(p, b, lam))), p.support.size,
                 indicator_to_string(p.s))
                for p in pieces
                if zone_membership(base, p.s, b, lam, piece=p)
                and check_opt(base.with_params(b=b, lam=lam), eval_weq(p, b, lam)).worst_violation
                <= 1e-7
            ]
            matches.append(sorted(key for *_, key in matched))
            if not matched:
                assignments.append(None)
                continue
            least = min(norm for norm, *_ in matched)
            eligible = [e for e in matched if e[0] <= least * (1.0 + 1e-9)]
            assignments.append(min(eligible, key=lambda e: (e[1], e[2]))[2])
        assert result.matches == matches
        assert result.assignments == assignments
        assert result.indicators == {a for a in assignments if a is not None}

    def test_data_too_small_for_the_rank_cut_raises(self):
        # as candidate_slope does: M would leave the normal floating range
        A = 1e-160 * np.random.default_rng(110).normal(size=(2, 3))
        with pytest.raises(ValueError, match="too small"):
            brute_force_indicators(A, 0.3, [(np.ones(4), 1.0)])


class TestCrossOracleInvariants:
    def test_summaries_agree_between_solvers(self):
        for seed in (95, 96):
            inst = random_instance(seed, m=4, n=6, rho=0.35)
            w_it = solve_saddle(inst, OracleConfig(tol=1e-10))
            s = encode_sopt(inst, w_it)
            piece = candidate_slope(inst, s)
            w_map = eval_weq(piece, inst.b, inst.lam)
            a, b = summarize(inst, w_it), summarize(inst, w_map)
            assert np.abs(a.beta_e - b.beta_e).max() <= 1e-5
            assert abs(a.gamma_e - b.gamma_e) <= 1e-5

    def test_sparsity_bound_on_gaussian_instances(self):
        for seed in range(5):
            inst = random_instance(110 + seed, m=4, n=9, rho=0.2)
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            x, z = split_extended(w)
            bound = min(inst.m, inst.n)
            assert int((np.abs(x) > 1e-6).sum()) <= bound
            assert int((np.abs(z) > 1e-6).sum()) <= bound

    def test_equicorrelation_stable_over_initializations(self):
        inst = random_instance(97, m=4, n=6, rho=0.5)
        rng = np.random.default_rng(97)
        cfg = OracleConfig(tol=1e-10)
        patterns = set()
        for _ in range(5):
            w = solve_saddle(inst, cfg, w0=rng.normal(size=12))
            patterns.add(indicator_to_string(encode_sopt(inst, w)))
        assert len(patterns) == 1

    def test_checks_use_no_block_operator(self, monkeypatch, two_column):
        # the oracles and check_opt apply the dense C and D, never the block
        # operators of the closed forms they certify; with every operator
        # made to raise they still give the same results
        from sgmc.model import ModelMatrices

        def fresh(inst):
            return ProblemInstance(A=inst.A, rho=inst.rho, y=inst.y, r=inst.r, lam=inst.lam)

        def run(inst, s):
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            return (w, encode_sopt(inst, w), check_opt(inst, w),
                    min_norm_over_eqnq(inst, s))

        cases = [(two_column, S1)]
        for seed in (100, 101, 102):
            inst = random_instance(seed, m=3, n=5, rho=0.25 * (seed % 3))
            s = encode_sopt(inst, solve_saddle(inst, OracleConfig(tol=1e-10)))
            cases.append((inst, s))
        expected = [run(fresh(inst), s) for inst, s in cases]

        class OperatorUsed(Exception):
            pass

        def used(*args, **kwargs):
            raise OperatorUsed

        for name in ("dc", "ct", "gram_block", "gram_border"):
            monkeypatch.setattr(ModelMatrices, name, used)
        monkeypatch.setattr(ModelMatrices, "gram", property(used))
        with pytest.raises(OperatorUsed):  # the closed forms do use them
            candidate_slope(fresh(two_column), S1)
        for (inst, s), want in zip(cases, expected):
            w, sopt, report, w_min = run(fresh(inst), s)
            npt.assert_array_equal(w, want[0])
            npt.assert_array_equal(sopt, want[1])
            assert report == want[2]
            npt.assert_array_equal(w_min, want[3])

    def test_l1_bound_for_oracle_solutions(self):
        for seed in (98, 99):
            inst = random_instance(seed, m=3, n=7, rho=0.6)
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            assert l1_bound_holds(inst, w)
