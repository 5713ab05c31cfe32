import numpy as np
import numpy.testing as npt
import pytest

from sgmc import (
    OracleConfig,
    ProblemInstance,
    check_opt,
    correlation,
    encode_sopt,
    indicator_to_string,
    initialize_indicator,
    l1_bound_holds,
    solve_saddle,
    split_extended,
    summarize,
)
from sgmc.optimality import certificate_scale

from conftest import random_instance


def test_every_answer_check_lives_in_optimality():
    # the closed forms hold none of the certificate, which judges them
    import sgmc
    import sgmc.candidate
    import sgmc.optimality
    import sgmc.sweep

    for mod in (sgmc.candidate, sgmc.sweep):
        for name in ("correlation", "certificate_scale", "CROSS_CHECK_TOL", "eqnq_membership"):
            assert not hasattr(mod, name), (mod.__name__, name)
    assert sgmc.eqnq_membership is sgmc.optimality.eqnq_membership


def naive_correlation(inst, w):
    """Entry-by-entry xi via explicitly assembled columns."""
    m, n = inst.m, inst.n
    sq = np.sqrt(inst.rho)
    cols = []
    for i in range(2 * n):
        c = np.zeros(2 * m)
        if i < n:
            c[:m] = inst.A[:, i]
        else:
            c[m:] = sq * inst.A[:, i - n]
        cols.append(c)
    D = np.block(
        [
            [(1 - inst.rho) * np.eye(m), sq * np.eye(m)],
            [-sq * np.eye(m), np.eye(m)],
        ]
    )
    Cw = sum(w[i] * cols[i] for i in range(2 * n))
    return np.array([c @ (inst.b - D @ Cw) for c in cols])


class TestCorrelation:
    def test_zero_w_gives_Ctb(self, rand_4x8):
        xi = correlation(rand_4x8, np.zeros(16))
        npt.assert_allclose(xi, rand_4x8.matrices.C.T @ rand_4x8.b, atol=0)

    def test_hand_case(self, two_column):
        xi = correlation(two_column, np.array([0.5, 0.5, 0.0, 0.0]))
        npt.assert_allclose(xi, [1.0, 1.0, 0.0, 0.0], atol=1e-15)

    def test_random_matches_naive(self):
        inst = random_instance(4, m=3, n=5, rho=0.35)
        rng = np.random.default_rng(6)
        w = rng.normal(size=10)
        npt.assert_allclose(correlation(inst, w), naive_correlation(inst, w), atol=1e-12)

    def test_rejects_a_w_of_another_length(self, two_column):
        with pytest.raises(ValueError, match="expected"):
            correlation(two_column, np.zeros(3))


class TestCheckOpt:
    def test_zero_zone(self):
        inst = random_instance(8, m=3, n=4)
        lam = 1.01 * float(np.abs(inst.matrices.C.T @ inst.b).max())
        inst = inst.with_params(lam=lam)
        assert check_opt(inst, np.zeros(8)).satisfied

    def test_zero_signal(self):
        inst = ProblemInstance(A=np.eye(3), rho=0.2, y=np.zeros(3), lam=1.0)
        report = check_opt(inst, np.zeros(6))
        assert report.satisfied and report.worst_violation == 0.0

    def test_oracle_solution_passes(self, rand_4x8):
        w = solve_saddle(rand_4x8, OracleConfig(tol=1e-10))
        assert check_opt(rand_4x8, w).satisfied

    def test_nan_fails(self, two_column):
        report = check_opt(two_column, np.array([0.5, 0.5, np.nan, 0.0]))
        assert not report.satisfied
        assert not report.worst_violation <= 1e-7
        assert 2 in [i for i, _ in report.violations]

    def test_report_serialization(self, two_column):
        report = check_opt(two_column, np.zeros(4))  # lam=1 < max corr 2: violated
        assert not report.satisfied
        data = report.to_dict()
        assert data["worst_violation"] > 0
        assert {"index", "excess"} <= set(data["violations"][0])


class TestEncodeSopt:
    def test_all_zero_when_lambda_dominates(self):
        inst = random_instance(9, m=3, n=4)
        lam = 1.5 * float(np.abs(inst.matrices.C.T @ inst.b).max())
        inst = inst.with_params(lam=lam)
        assert indicator_to_string(encode_sopt(inst, np.zeros(8))) == "0" * 8

    def test_two_column_pattern(self, two_column):
        s = encode_sopt(two_column, np.array([0.5, 0.5, 0.0, 0.0]))
        assert indicator_to_string(s) == "++00"

    def test_invariant_across_degenerate_solutions(self, two_column):
        cfg = OracleConfig(tol=1e-11)
        w1 = solve_saddle(two_column, cfg)
        w2 = solve_saddle(two_column, cfg, w0=np.array([0.9, -0.2, 0.0, 0.0]))
        assert np.abs(w1 - w2).max() > 1e-4  # genuinely different solutions
        assert indicator_to_string(encode_sopt(two_column, w1)) == indicator_to_string(
            encode_sopt(two_column, w2)
        )

    def test_reads_as_the_oracle_start_certifies(self):
        # at w = 0, lambda lies 5e-9 S above the largest |xi_i|: between the
        # certificate's slack, 1e-9 S, and the reading slack, 1e-8 S, so
        # the index reads as on its bound, and the oracle start certifies
        # that indicator
        inst = random_instance(9, m=3, n=4)
        w = np.zeros(8)
        xi = correlation(inst, w)
        i = int(np.argmax(np.abs(xi)))
        inst = inst.with_params(lam=abs(xi[i]) / (1.0 - 5e-9))
        gap = (inst.lam - abs(xi[i])) / certificate_scale(inst)
        assert 1e-9 < gap < 1e-8
        s = encode_sopt(inst, w)
        assert np.flatnonzero(s).tolist() == [i] and s[i] == np.sign(xi[i])
        npt.assert_array_equal(
            s, initialize_indicator(inst, inst.b, inst.lam, strategy="from_oracle"))


class TestSummarize:
    def test_zero(self, rand_4x8):
        s = summarize(rand_4x8, np.zeros(16))
        assert s.gamma_e == 0.0
        npt.assert_array_equal(s.beta_e, np.zeros(8))

    def test_hand_case(self, two_column):
        # beta_e = [A x; sqrt(rho) A z]: the primal fit A x = 1, and at
        # rho = 0 a dual fit of zero
        s = summarize(two_column, np.array([0.5, 0.5, 0.0, 0.0]))
        assert s.gamma_e == pytest.approx(1.0)
        npt.assert_allclose(s.beta_e, [1.0, 0.0])

    def test_stacked_fit_structure(self):
        inst = random_instance(12, m=3, n=5, rho=0.5)
        rng = np.random.default_rng(0)
        w = rng.normal(size=10)
        s = summarize(inst, w)
        x, z = split_extended(w)
        npt.assert_allclose(
            s.beta_e, np.concatenate([inst.A @ x, np.sqrt(inst.rho) * (inst.A @ z)]), atol=1e-14
        )

    def test_degenerate_solutions_share_summaries(self, two_column):
        cfg = OracleConfig(tol=1e-11)
        w1 = solve_saddle(two_column, cfg)
        w2 = solve_saddle(two_column, cfg, w0=np.array([0.9, -0.2, 0.0, 0.0]))
        s1, s2 = summarize(two_column, w1), summarize(two_column, w2)
        npt.assert_allclose(s1.beta_e, s2.beta_e, atol=1e-6)
        assert s1.gamma_e == pytest.approx(s2.gamma_e, abs=1e-6)


class TestL1Bound:
    def test_zero_vector(self, rand_4x8):
        assert l1_bound_holds(rand_4x8, np.zeros(16))

    def test_oracle_solution(self):
        inst = random_instance(13, m=4, n=6, rho=0.4)
        w = solve_saddle(inst, OracleConfig(tol=1e-10))
        assert l1_bound_holds(inst, w)

    def test_huge_entry_fails(self, rand_4x8):
        w = np.zeros(16)
        w[0] = 1e9
        assert not l1_bound_holds(rand_4x8, w)


class TestSharedFitInvariant:
    def test_two_opt_passing_vectors_share_fit_and_norm(self, two_column):
        cfg = OracleConfig(tol=1e-11)
        w1 = solve_saddle(two_column, cfg)
        w2 = solve_saddle(two_column, cfg, w0=np.array([0.9, -0.2, 0.0, 0.0]))
        assert check_opt(two_column, w1).worst_violation <= 1e-8
        assert check_opt(two_column, w2).worst_violation <= 1e-8
        C = two_column.matrices.C
        assert np.abs(C @ w1 - C @ w2).max() <= 1e-6
        assert abs(np.abs(w1).sum() - np.abs(w2).sum()) <= 1e-6

    def test_opt_implies_l1_bound(self):
        for seed in range(4):
            inst = random_instance(20 + seed, m=3, n=6, rho=0.3 * (seed % 2))
            w = solve_saddle(inst, OracleConfig(tol=1e-10))
            assert check_opt(inst, w).satisfied
            assert l1_bound_holds(inst, w)
