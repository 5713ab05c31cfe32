import math

import numpy as np
import numpy.testing as npt
import pytest

from sgmc import (
    OracleConfig,
    ParameterLine,
    ProblemInstance,
    candidate_slope,
    encode_sopt,
    eval_weq,
    indicator_from_string,
    restrict_to_line,
    solve_saddle,
    zero_indicator,
    zone_exit_times,
)
from sgmc.optimality import correlation
from sgmc.candidate import PINV_RTOL, IncompatibleIndicatorError, next_piece, zone_margins
from sgmc.sweep import f_tmax

from conftest import random_instance

S1 = indicator_from_string("++00")


def _restricted(inst, s, line):
    """The zone of indicator s restricted to the line."""
    return restrict_to_line(candidate_slope(inst, s), line)


class TestParameterLine:
    @pytest.mark.parametrize("field", ["b0", "delta_b", "lam0", "delta_lam"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_data(self, field, value):
        data = {"b0": np.ones(2), "lam0": 1.0, "delta_b": np.zeros(2), "delta_lam": -1.0}
        data[field] = np.array([0.0, value]) if field in ("b0", "delta_b") else value
        with pytest.raises(ValueError, match=f"line {field} must be finite"):
            ParameterLine(**data)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="b0 and delta_b must have equal length"):
            ParameterLine(np.ones(2), 1.0, np.ones(3), -1.0)

    def test_rejects_a_line_that_does_not_move(self):
        with pytest.raises(ValueError, match="line must have a nonzero velocity"):
            ParameterLine(np.ones(2), 1.0, np.zeros(2), 0.0)

    @pytest.mark.parametrize("b0, lam0, db, dl, expected", [
        ([1.0, 0.0], 2.0, [0.0, 0.0], -1.0, 2.0),  # lambda descent
        ([3.0, 0.0], 1.0, [0.0, 0.5], 0.0, 6.0),  # b-direction ray
        ([0.0, 0.0], 1.0, [1.0, 0.0], 0.0, 1.0),  # ray from the zero anchor
        ([0.0, 0.0], 0.0, [1.0, 0.0], 1.0, 1.0),  # both moves from zero
        ([1.0, 0.0], 2.0, [1e-20, 0.0], -1.0, 2.0),  # lambda moves sooner
        ([1.0, 0.0], 2.0, [1e3, 0.0], -1.0, 1e-3),  # b moves sooner
    ])
    def test_time_scale(self, b0, lam0, db, dl, expected):
        line = ParameterLine(np.array(b0), lam0, np.array(db), dl)
        assert line.time_scale == pytest.approx(expected, rel=1e-15)


class TestFTmax:
    @pytest.mark.parametrize(
        "k,c,expected",
        [
            (2.0, 4.0, 2.0),
            (0.0, 1.0, math.inf),
            (0.0, -1.0, -math.inf),
            (-1.0, -3.0, math.inf),
            (0.0, 0.0, math.inf),
            (3.0, 0.0, 0.0),
            (-2.0, 5.0, math.inf),
        ],
    )
    def test_case_table(self, k, c, expected):
        assert f_tmax(k, c) == expected

    def test_agrees_with_grid_supremum(self):
        # brute-force sup over a dense grid; the grid is wide enough to
        # contain every finite breakpoint c/k drawn below
        grid = np.linspace(-50, 50, 20001)
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = float(rng.uniform(-3, 3))
            c = float(rng.uniform(-3, 3))
            if abs(k) > 0 and abs(c / k) > 40:
                continue
            feasible = grid[k * grid <= c]
            sup = f_tmax(k, c)
            if feasible.size == 0:
                assert sup == -math.inf
            elif feasible[-1] == grid[-1]:
                assert sup == math.inf
            else:
                assert sup == pytest.approx(feasible[-1], abs=1e-2)

    def test_monotone_in_c_for_positive_k(self):
        assert f_tmax(2.0, 1.0) <= f_tmax(2.0, 2.0) <= f_tmax(2.0, 3.0)


class TestRestrictToLine:
    def test_empty_support(self, descent_line):
        inst, line = descent_line
        restricted = _restricted(inst, zero_indicator(2), line)
        npt.assert_array_equal(restricted.p, np.zeros(4))
        npt.assert_array_equal(restricted.q, np.zeros(4))
        # the empty map leaves the residual b(t), whose correlation is C^T b(t)
        npt.assert_array_equal(restricted.cu, inst.matrices.ct(line.delta_b))
        npt.assert_array_equal(restricted.cv, inst.matrices.ct(line.b0))
        npt.assert_array_equal(restricted.weq_at(0.7), np.zeros(4))

    def test_matches_pointwise_evaluation(self):
        inst = random_instance(60, m=3, n=5, rho=0.35)
        w = solve_saddle(inst, OracleConfig(tol=1e-11))
        s = encode_sopt(inst, w)
        rng = np.random.default_rng(60)
        line = ParameterLine(inst.b, inst.lam, rng.normal(size=6), -0.3)
        piece = candidate_slope(inst, s)
        restricted = restrict_to_line(piece, line)
        for t in (-1.0, 0.0, 1.0, 0.31, -2.7):
            b, lam = line.point_at(t)
            npt.assert_allclose(restricted.weq_at(t), eval_weq(piece, b, lam), atol=1e-10)

    def test_residual_parametrization(self):
        inst = random_instance(61, m=3, n=4, rho=0.5)
        w = solve_saddle(inst, OracleConfig(tol=1e-11))
        s = encode_sopt(inst, w)
        line = ParameterLine(inst.b, inst.lam, np.ones(6), 0.2)
        restricted = _restricted(inst, s, line)
        for t in (0.0, 0.8):
            expected = correlation(inst, restricted.weq_at(t), b=line.b_at(t))
            npt.assert_allclose(restricted.cv + restricted.cu * t, expected, atol=1e-10)

    def test_incompatible_raises(self, two_column, descent_line):
        _, line = descent_line
        with pytest.raises(IncompatibleIndicatorError):
            _restricted(two_column, indicator_from_string("+-00"), line)


def row_blocks(times):
    """The rows of an exit scan as (first, upper, wall): the sign rows of
    the support with the lower correlation bounds off it, the upper
    correlation bounds, and the lambda >= 0 wall."""
    n2 = (times.rows.size - 1) // 2
    return times.rows[:n2], times.rows[n2:-1], float(times.rows[-1])


class TestZoneExitTimes:
    def test_worked_example_zero_zone(self, descent_line):
        inst, line = descent_line
        times = zone_exit_times(_restricted(inst, zero_indicator(2), line))
        assert times.t_plus == pytest.approx(1.0, abs=1e-12)
        _, upper, _ = row_blocks(times)
        assert upper[:2] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert (times.deleted, times.inserted, times.signs) == ((), (0, 1), (1, 1))
        assert not times.lambda_terminus

    def test_worked_example_active_zone_ends_at_lambda_wall(self, descent_line):
        inst, line = descent_line
        times = zone_exit_times(_restricted(inst, S1, line))
        first, _, wall = row_blocks(times)
        assert wall == pytest.approx(2.0, abs=1e-12)
        assert times.t_plus == pytest.approx(2.0, abs=1e-12)
        assert np.all(first[S1 != 0] == math.inf)
        assert times.lambda_terminus and times.inserted == () and times.deleted == ()

    def test_constant_lambda_line_never_hits_wall(self, two_column):
        line = ParameterLine(np.zeros(2), 1.0, np.array([0.0, 1.0]), 0.0)
        times = zone_exit_times(_restricted(two_column, zero_indicator(2), line))
        assert row_blocks(times)[2] == math.inf
        assert times.t_plus == math.inf  # r direction is invisible at rho=0
        assert (times.deleted, times.inserted, times.lambda_terminus) == ((), (), False)


    def test_full_support_b_direction_has_no_correlation_exit(self):
        # along b the residual of a zone with 2m independent support columns
        # is constant, so its correlations do not move and no correlation
        # bound can give a finite exit
        A = np.random.default_rng([2, 0]).normal(size=(2, 3))
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
        s = indicator_from_string("++0++0")
        assert candidate_slope(inst, s).invertible
        for j in range(4):
            line = ParameterLine(np.array([1.0, -2.0, 0.5, 0.3]), 1.0, np.eye(4)[j], 0.0)
            restricted = _restricted(inst, s, line)
            assert np.all(restricted.cu == 0.0)
            first, upper, _ = row_blocks(zone_exit_times(restricted))
            off = s == 0
            assert not np.any(np.isfinite(first[off]))
            assert not np.any(np.isfinite(upper[off]))


def two_pass_times(r):
    """(first, upper, wall, t_plus, t_entry) by the two-pass scan that the one
    ratio test replaced, the exit times of the three blocks of rows of
    `row_blocks`: the exit scan along the line, then along the reversed
    line (p, cu and dl negated), whose exit time is minus the entry time.
    A correlation row of an index in `r.wall` that points the way the wall
    row does is the wall row; the upper rows of the support never bind."""

    def row(k, c, k_wall, c_wall, wall):
        replace = wall & (k * k_wall + c * c_wall > 0.0)
        return np.where(replace, k_wall, k), np.where(replace, c_wall, c)

    def sup_times(direction):
        p, cu, dl = direction * r.p, direction * r.cu, direction * r.line.delta_lam
        s, q, cv, lam0 = r.s, r.q, r.cv, r.line.lam0
        on = s != 0
        wall = r.wall & ~on
        lower = row(-cu - dl, lam0 + cv, -dl, lam0, wall)
        upper = row(cu - dl, lam0 - cv, -dl, lam0, wall)
        first = np.where(on, f_tmax(s * p, s * q), f_tmax(*lower))
        upper = np.where(on, np.inf, f_tmax(*upper))
        if dl == 0.0:
            t_wall = math.inf if lam0 > 0.0 else -math.inf
        else:
            t_wall = f_tmax(-dl, lam0)
        return first, upper, t_wall

    first, upper, t_wall = sup_times(1.0)
    back_first, back_upper, back_wall = sup_times(-1.0)
    t_plus = float(min(first.min(), upper.min(), t_wall))
    t_entry = -float(min(back_first.min(), back_upper.min(), back_wall))
    return first, upper, t_wall, t_plus, t_entry


def scan_cases():
    """(inst, s, line) over seeded instances: the empty support, the
    oracle's support and a support of 2m independent columns, each along a
    b-direction, a coordinate b-direction, a lambda-direction, a mixed
    direction and constant-lambda lines at lambda0 = 0 and below."""
    for seed in range(12):
        m, n = (2, 3) if seed % 2 else (3, 5)
        inst = random_instance(200 + seed, m=m, n=n, rho=(0.0, 0.3, 0.6)[seed % 3])
        w = solve_saddle(inst, OracleConfig(tol=1e-11))
        spanning = np.zeros(2 * n, dtype=int)
        spanning[:m] = spanning[n:n + m] = 1
        rng = np.random.default_rng(seed)
        lines = [
            ParameterLine(inst.b, inst.lam, rng.normal(size=2 * m), 0.0),
            ParameterLine(inst.b, inst.lam, np.eye(2 * m)[0], 0.0),
            ParameterLine(inst.b, inst.lam, np.zeros(2 * m), -1.0),
            ParameterLine(inst.b, inst.lam, 0.3 * rng.normal(size=2 * m), -0.2),
            ParameterLine(inst.b, 0.0, rng.normal(size=2 * m), 0.0),
            ParameterLine(inst.b, -0.5, rng.normal(size=2 * m), 0.0),
        ]
        for s in (zero_indicator(n), encode_sopt(inst, w), spanning):
            if candidate_slope(inst, s).compatible:
                for line in lines:
                    yield inst, s, line


class TestRatioTest:
    def test_one_pass_matches_two_pass_scan(self):
        supports = set()
        walls = 0
        for inst, s, line in scan_cases():
            restricted = _restricted(inst, s, line)
            times = zone_exit_times(restricted)
            first, upper, t_wall, t_plus, t_entry = two_pass_times(restricted)
            got_first, got_upper, got_wall = row_blocks(times)
            assert np.array_equal(got_first, first)
            assert np.array_equal(got_upper, upper)
            assert got_wall == t_wall
            assert times.t_plus == t_plus
            assert times.t_entry == t_entry
            supports.add(int(np.count_nonzero(s)) / s.size)
            walls += int(np.count_nonzero(restricted.wall & (s == 0)))
        assert 0.0 in supports and len(supports) >= 3
        assert walls  # the spanning supports put their correlation rows on the wall

    def test_entry_time_is_minus_exit_time_of_reversed_line(self):
        for inst, s, line in scan_cases():
            back = ParameterLine(line.b0, line.lam0, -line.delta_b, -line.delta_lam)
            times = zone_exit_times(_restricted(inst, s, line))
            reversed_times = zone_exit_times(_restricted(inst, s, back))
            assert times.t_entry == -reversed_times.t_plus
            assert times.t_plus == -reversed_times.t_entry


class TestZoneEntryTime:
    def test_worked_example_entry(self, descent_line):
        inst, line = descent_line
        assert zone_exit_times(_restricted(inst, S1, line)).t_entry == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_zone_on_symmetric_line(self, two_column):
        # the zero zone around y(t) = t at lam = 1 is exactly [-1, 1]
        line = ParameterLine(np.zeros(2), 1.0, np.array([1.0, 0.0]), 0.0)
        s0 = zero_indicator(2)
        times = zone_exit_times(_restricted(two_column, s0, line))
        assert times.t_entry == pytest.approx(-1.0)
        assert times.t_plus == pytest.approx(1.0)

    def test_interval_well_formed_against_dense_sampling(self):
        inst = random_instance(62, m=3, n=5, rho=0.25)
        w = solve_saddle(inst, OracleConfig(tol=1e-11))
        s = encode_sopt(inst, w)
        line = ParameterLine(inst.b, inst.lam, np.zeros(6), -1.0)
        piece = candidate_slope(inst, s)
        times = zone_exit_times(restrict_to_line(piece, line))
        assert times.t_entry <= times.t_plus
        for t in np.linspace(max(times.t_entry, -20), min(times.t_plus, 20), 25):
            b, lam = line.point_at(t)
            if lam <= 0:
                continue
            assert zone_margins(piece, b, lam) >= -1e-7 * lam


class TestIntervalCorrectness:
    def test_membership_inside_and_outside(self):
        hits = 0
        for seed in range(20):
            inst = random_instance(70 + seed, m=3, n=5, rho=0.3 * (seed % 2))
            w = solve_saddle(inst, OracleConfig(tol=1e-11))
            s = encode_sopt(inst, w)
            rng = np.random.default_rng(seed)
            line = ParameterLine(inst.b, inst.lam, 0.3 * rng.normal(size=6), -0.2)
            piece = candidate_slope(inst, s)
            times = zone_exit_times(restrict_to_line(piece, line))
            if not times.t_entry < times.t_plus:  # degenerate: the line touches the zone
                continue
            lo = max(times.t_entry, -30.0)
            hi = min(times.t_plus, 30.0)
            for t in rng.uniform(lo, hi, size=5):
                b, lam = line.point_at(float(t))
                if lam <= 0:
                    continue
                assert zone_margins(piece, b, lam) >= -1e-7 * lam
                hits += 1
            margin = 1e-6 * (1.0 + abs(hi))
            for t in (times.t_entry, times.t_plus):
                if not math.isfinite(t):
                    continue
                for outside in (t - margin, t + margin):
                    if times.t_entry + margin / 2 < outside < times.t_plus - margin / 2:
                        continue
                    b, lam = line.point_at(outside)
                    if lam <= 0:
                        continue
                    # strictly outside by the margin: not a member
                    if outside < times.t_entry - margin / 2 or outside > times.t_plus + margin / 2:
                        assert not zone_margins(piece, b, lam) >= -1e-9 * lam
                        hits += 1
        assert hits >= 50


# -- the step against a dense reference ---------------------------------------

STEP_RTOL = 1e-12  # block step against the dense reference, relative to its size


def dense_restrict(inst, piece, line):
    """The zone of `piece` on the line by dense products with C and D:
    (p, q, C^T [u, v]), u and v the slope and offset of the residual
    b(t) - D C w(t), with one step of iterative refinement."""
    C, D = inst.matrices.C, inst.matrices.D
    E, P, s = piece.support, piece.Minv, piece.s
    B = np.column_stack([line.delta_b, line.b0])
    lams = np.array([line.delta_lam, line.lam0])
    X = np.zeros((s.size, 2))
    if E.size:
        X[E] = P @ (C[:, E].T @ B) - np.multiply.outer(P @ s[E], lams)
        CUV = C.T @ (B - D @ (C @ X))
        X[E] += P @ (CUV[E] - np.multiply.outer(s[E], lams))
    return -X[:, 0], X[:, 1], C.T @ (B - D @ (C @ X))


def dense_insertion(inst, piece, j):
    """M^{-1} bordered by index j, its column, row and corner formed by the
    four dense products C^T D c_j, C^T D^T c_j and c_j^T D c_j."""
    C, D = inst.matrices.C, inst.matrices.D
    E, P = piece.support, piece.Minv
    cj = C[:, j]
    Dcj = D @ cj
    col, row, d = (C.T @ Dcj)[E], (C.T @ (D.T @ cj))[E], cj @ Dcj
    x, y = P @ col, row @ P
    sigma = d - row @ x
    return np.block([[P + np.outer(x, y) / sigma, -x[:, None] / sigma],
                     [-y[None, :] / sigma, np.array([[1.0 / sigma]])]])


def dense_block(inst, support):
    """C_E^T D C_E by dense products, rows in the order of `support`."""
    C, D = inst.matrices.C, inst.matrices.D
    CE = C[:, support]
    return CE.T @ D @ CE


def step_cases():
    """Seeded 4x8 instances whose columns 0 and 1 are equal, with supports
    that are empty, random (column 0 without its twin), of 2m columns (m at
    rho = 0, where the dual columns vanish) and rank-deficient through the
    duplicated pair, each on a lambda-line and a b-line."""
    m, n = 4, 8
    for rho in (0.0, 0.3, 0.8):
        for seed in (1, 2):
            rng = np.random.default_rng([seed, int(10 * rho)])
            A = rng.normal(size=(m, n))
            A[:, 1] = A[:, 0]
            inst = ProblemInstance(A=A, rho=rho, y=rng.normal(size=m),
                                   r=rng.normal(size=m), lam=1.0)
            dual = rho > 0
            supports = {
                "empty": [],
                "random": [0, 5, 7] + ([n + 3, n + 6] if dual else []),
                "2m": list(range(2, 2 + m)) + (list(range(n + 2, n + 2 + m)) if dual else []),
                "duplicated": [0, 1, 4] + ([n + 5] if dual else []),
            }
            for name, support in supports.items():
                s = np.zeros(2 * n, dtype=int)
                s[support] = rng.choice([-1, 1], size=len(support))
                if name == "duplicated":
                    s[1] = s[0]  # equal columns need equal signs to be compatible
                lines = {
                    "lambda": ParameterLine(inst.b, 3.0, np.zeros(2 * m), -1.0),
                    "b": ParameterLine(inst.b, 1.5, rng.normal(size=2 * m), 0.0),
                }
                for kind, line in lines.items():
                    yield f"rho{rho}-seed{seed}-{name}-{kind}", inst, s, line


STEP_CASES = list(step_cases())


def _assert_close(got, want, scale, piece, inst):
    """|got - want| within STEP_RTOL of `scale`.  Rounding differences are
    amplified by the condition number kappa of the pseudo-inverted M: above
    kappa = 1e3 the bound grows as 1e-15 kappa."""
    kappa = 1.0
    if piece.support.size:
        M = dense_block(inst, piece.support)
        kappa = np.linalg.norm(M, 2) * np.linalg.norm(piece.Minv, 2)
    bound = STEP_RTOL * max(1.0, 1e-3 * kappa) * scale
    assert np.abs(got - want).max(initial=0.0) <= bound


class TestDenseReference:
    """The step applies C, D and C^T D C through their blocks; it must give
    what dense products give."""

    @pytest.mark.parametrize("label, inst, s, line", STEP_CASES,
                             ids=[case[0] for case in STEP_CASES])
    def test_restrict_matches_dense(self, label, inst, s, line):
        piece = candidate_slope(inst, s)
        assert piece.compatible
        r = restrict_to_line(piece, line)
        p, q, CUV = dense_restrict(inst, piece, line)
        x_scale = max(np.abs(p).max(), np.abs(q).max(), 1.0)
        # cu and cv differ from C^T [u, v] where they were snapped, by noise
        c_scale = max(np.abs(CUV).max(), 1.0)
        for got, want, scale in ((r.p, p, x_scale), (r.q, q, x_scale),
                                 (r.cu, CUV[:, 0], c_scale), (r.cv, CUV[:, 1], c_scale)):
            _assert_close(got, want, scale, piece, inst)

    @pytest.mark.parametrize("label, inst, s, line", STEP_CASES,
                             ids=[case[0] for case in STEP_CASES])
    def test_refinement_through_updated_M_matches_dense(self, label, inst, s, line):
        # restrict_to_line refines with the residual C_E^T B - s_E lams - M X_E
        # and next_piece checks M (M^{-1} s_E) - s_E, both through the kept M;
        # on pieces reached by an insertion and by a deletion (a rebuild where
        # the support is rank-deficient) both must match the dense products
        C, D = inst.matrices.C, inst.matrices.D
        E = np.flatnonzero(s)
        pieces = []
        if E.size:
            parent = s.copy()
            parent[E[0]] = 0
            pieces.append(next_piece(inst, candidate_slope(inst, parent), s, E[0]))
        grown = s.copy()
        j = np.flatnonzero(s == 0)[-1]
        grown[j] = 1
        pieces.append(next_piece(inst, candidate_slope(inst, grown), s, j))
        for piece in pieces:
            if not piece.compatible:
                continue
            r = restrict_to_line(piece, line)
            p, q, _ = dense_restrict(inst, piece, line)
            x_scale = max(np.abs(p).max(), np.abs(q).max(), 1.0)
            for got, want in ((r.p, p), (r.q, q)):
                _assert_close(got, want, x_scale, piece, inst)
            F = piece.support
            if F.size and piece.invertible:
                rhs = s[F].astype(float)
                w = np.zeros(s.size)
                w[F] = piece.Minv @ rhs
                dense = (C.T @ (D @ (C @ w)))[F] - rhs
                npt.assert_allclose(piece.M @ w[F] - rhs, dense, rtol=0,
                                    atol=STEP_RTOL * max(1.0, np.abs(w).max()) * len(F))

    @pytest.mark.parametrize("label, inst, s, line", STEP_CASES[::2],
                             ids=[case[0] for case in STEP_CASES[::2]])
    def test_insertion_matches_dense(self, label, inst, s, line):
        # in the random support the first off-support index is column 1, the
        # twin of column 0: a rank drop, which rebuilds the piece; so does
        # every insertion into the duplicated support, a pseudo-inverse
        piece = candidate_slope(inst, s)
        for j in np.flatnonzero(s == 0)[[0, 2, -1]]:
            s_next = s.copy()
            s_next[j] = 1
            nxt = next_piece(inst, piece, s_next, j)
            npt.assert_array_equal(np.sort(nxt.support), np.flatnonzero(s_next))
            if nxt.invertible and piece.invertible:
                npt.assert_array_equal(nxt.support, np.append(piece.support, j))
                want = dense_insertion(inst, piece, int(j))
            else:
                want = np.linalg.pinv(dense_block(inst, nxt.support), rtol=PINV_RTOL)
            _assert_close(nxt.Minv, want, np.abs(want).max(), nxt, inst)
