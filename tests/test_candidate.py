import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest

from sgmc import (
    OracleConfig,
    ProblemInstance,
    candidate_slope,
    check_opt,
    encode_sopt,
    eqnq_membership,
    indicator_from_string,
    indicator_to_string,
    min_norm_over_eqnq,
    solve_saddle,
    strictly_inside,
    zero_indicator,
    zone_membership,
)
from sgmc.candidate import (
    IncompatibleIndicatorError,
    eval_weq,
    in_row_space,
    in_zone,
    next_piece,
    rank_cut,
    zone_margins,
)
from sgmc.optimality import CERT_TOL, CROSS_CHECK_TOL, certificate_scale, correlation

from conftest import piece_after_edit, random_instance

S1 = indicator_from_string("++00")


def lstsq_compatible(inst, s):
    """Reference compatibility test: the least-squares residual of
    C_E^T x = [s]_E, with numpy's own rank cut, below 1e-8 * sqrt(|E|)."""
    E = np.flatnonzero(s)
    CEt = inst.matrices.C[:, E].T
    sol, *_ = np.linalg.lstsq(CEt, s[E].astype(float), rcond=None)
    return bool(np.abs(CEt @ sol - s[E]).max(initial=0.0) <= 1e-8 * np.sqrt(E.size))


def compatible(inst, s):
    return candidate_slope(inst, s).compatible


def with_signs(piece, s):
    """`piece` with the signs `s` on its support: M, Minv and null depend
    on the support only, and the signs the piece keeps follow `s`."""
    s_E = s[piece.support].astype(float)
    return dataclasses.replace(piece, s=s, s_E=s_E, Minv_s_E=piece.Minv @ s_E)


def unit_maps(piece):
    """The map at the 2m + 1 unit parameter points, (e_j, 0) and then
    (0, 1), as columns: the slope [pinv(M) C_E^T, -pinv(M) s_E] scattered
    to all 2n rows."""
    two_m = 2 * piece.mats.A.shape[0]
    return eval_weq(piece, np.eye(two_m, two_m + 1), np.eye(two_m + 1)[-1])


class TestCompatibility:
    """[s]_E in Col(C_E^T), read off the null space of the slope's SVD."""

    def test_empty_support(self, two_column):
        assert compatible(two_column, zero_indicator(2))

    def test_opposite_signs_on_duplicated_columns(self, two_column):
        # Col(C_E^T) = span{(1,1)} and (1,-1) is not in it
        assert not compatible(two_column, indicator_from_string("+-00"))

    def test_equal_signs_on_duplicated_columns(self, two_column):
        assert compatible(two_column, S1)

    def test_generic_support_is_compatible(self):
        inst = random_instance(31, m=4, n=6, rho=0.5)
        assert compatible(inst, indicator_from_string("+0-0000+0-00"))

    @pytest.mark.parametrize("kind, rho", [("integer", 0.3), ("duplicated", 0.0),
                                           ("negated", 0.8)])
    def test_matches_lstsq_reference(self, kind, rho):
        # every rank-deficient indicator of a 2x4 instance, one piece per
        # support: its sign patterns, each as its own piece and all at once
        # by in_row_space on the support's null basis, against the
        # least-squares test
        rng = np.random.default_rng(1)
        if kind == "integer":
            A = rng.integers(-2, 3, size=(2, 4)).astype(float)
        else:
            B = rng.normal(size=(2, 2))
            A = np.hstack([B, B if kind == "duplicated" else -B])
        inst = ProblemInstance(A=A, rho=rho, y=np.zeros(2), lam=1.0)
        outcomes = []
        for on in itertools.product((1, 0), repeat=8):
            support_piece = candidate_slope(inst, on)
            if support_piece.invertible:
                continue
            E = support_piece.support
            signs = np.array(list(itertools.product((1, -1), repeat=E.size)))
            batch = in_row_space(signs, support_piece.null)
            for signs_E, together in zip(signs, batch):
                s = np.zeros(8, dtype=int)
                s[E] = signs_E
                piece = with_signs(support_piece, s)
                assert piece.compatible == together == lstsq_compatible(inst, s), (
                    indicator_to_string(s)
                )
                outcomes.append(piece.compatible)
        assert any(outcomes) and not all(outcomes)


class TestCandidateSlope:
    def test_zero_indicator_gives_zero_piece(self, two_column):
        # the zero indicator takes the rank cut of every other: its 0 x 0 M
        # cuts to a 0 x 0 inverse and null basis
        piece = candidate_slope(two_column, zero_indicator(2))
        for a in (piece.M, piece.Minv, piece.null):
            assert a.shape == (0, 0) and a.dtype == np.float64
        for a in (piece.s_E, piece.Minv_s_E):
            assert a.shape == (0,) and a.dtype == np.float64
        assert piece.support.shape == (0,) and piece.support.dtype == np.intp
        assert piece.s.dtype == np.int8
        assert piece.invertible and piece.compatible and not piece.updated
        npt.assert_array_equal(unit_maps(piece), np.zeros((4, 3)))
        npt.assert_array_equal(eval_weq(piece, two_column.b, 1.0), np.zeros(4))

    def test_two_column_closed_form(self, two_column):
        # pinv([[1,1],[1,1]]) = [[1,1],[1,1]]/4 by hand, so the active block
        # of the map at (y, lambda) is ((y-lam)/2, (y-lam)/2)
        piece = candidate_slope(two_column, S1)
        npt.assert_allclose(unit_maps(piece)[piece.support],
                            [[0.5, 0.0, -0.5], [0.5, 0.0, -0.5]], atol=1e-12)
        for y, lam in [(2.0, 1.0), (5.0, 0.25), (-1.0, 3.0)]:
            w = eval_weq(piece, np.array([y, 0.0]), lam)
            npt.assert_allclose(w, [(y - lam) / 2, (y - lam) / 2, 0.0, 0.0], atol=1e-12)

    def test_two_column_matches_min_norm_oracle(self, two_column):
        piece = candidate_slope(two_column, S1)
        w_oracle = min_norm_over_eqnq(two_column, S1)
        npt.assert_allclose(eval_weq(piece, two_column.b, two_column.lam), w_oracle, atol=1e-9)

    def test_slope_independent_of_parameters(self):
        a = random_instance(32, m=3, n=5, rho=0.3)
        b = a.with_params(b=np.arange(6.0), lam=7.0)
        s = indicator_from_string("+000-00+00")
        pa, pb = candidate_slope(a, s), candidate_slope(b, s)
        npt.assert_array_equal(pa.M, pb.M)
        npt.assert_array_equal(pa.Minv, pb.Minv)

    def test_eq_residual_on_random_zone(self):
        # the map value must solve the equality system wherever it exists
        inst = random_instance(33, m=3, n=5, rho=0.25)
        w = solve_saddle(inst, OracleConfig(tol=1e-11))
        s = encode_sopt(inst, w)
        piece = candidate_slope(inst, s)
        weq = eval_weq(piece, inst.b, inst.lam)
        E = piece.support
        mats = inst.matrices
        residual = mats.C[:, E].T @ (inst.b - mats.D @ (mats.C @ weq)) - inst.lam * s[E]
        assert np.abs(residual).max() <= 1e-9


def in_order_of(ref, piece):
    """Positions in `ref.support` of the indices of `piece.support`."""
    return np.searchsorted(ref.support, piece.support)


def s_with(s, i, sign):
    s = s.copy()
    s[i] = sign
    return s


class TestNextPiece:
    def test_one_index_updates_match_closed_form(self):
        # m = 4: primal and dual supports of at most four columns each keep
        # C_E of full column rank, so every step is a bordered update
        inst = random_instance(35, m=4, n=8, rho=0.5)
        s = indicator_from_string("+0-0000+0-000000")
        piece = candidate_slope(inst, s)
        for i, sign in ((3, 1), (12, -1), (0, 0), (15, 1), (9, 0)):
            s = s.copy()
            s[i] = sign
            piece = next_piece(inst, piece, s, i)
            ref = candidate_slope(inst, s)
            assert piece.invertible and piece.compatible
            # updates keep M^{-1} in the order of piece.support, ref's ascending
            pos = in_order_of(ref, piece)
            npt.assert_allclose(piece.Minv, ref.Minv[np.ix_(pos, pos)], rtol=1e-10, atol=1e-12)
            npt.assert_allclose(unit_maps(piece), unit_maps(ref), rtol=1e-10, atol=1e-12)

    def test_long_edit_chain_matches_closed_form(self, monkeypatch):
        # 48 one-index edits on a 12 x 24 instance that delete the first, a
        # middle and the last position of the support in turn, with each
        # half of the support at most m - 2 so C_E keeps full column rank;
        # a rebuild inside next_piece fails the test, so every step updates
        import sgmc.candidate

        m, n = 12, 24
        inst = random_instance(37, m=m, n=n, rho=0.4)
        rng = np.random.default_rng(38)
        s = np.zeros(2 * n, dtype=int)
        s[rng.choice(2 * n, size=6, replace=False)] = 1
        piece = candidate_slope(inst, s)

        def no_rebuild(inst, s):
            raise AssertionError("next_piece rebuilt a piece")

        monkeypatch.setattr(sgmc.candidate, "candidate_slope", no_rebuild)
        deleted_at = set()
        for step in range(48):
            s = s.copy()
            E = piece.support
            if step % 2 == 0:
                halves = [np.count_nonzero(s[:n]), np.count_nonzero(s[n:])]
                free = [i for i in np.flatnonzero(s == 0) if halves[i // n] < m - 2]
                s[rng.choice(free)] = rng.choice([-1, 1])
            else:
                k = (0, E.size // 2, E.size - 1)[(step // 2) % 3]
                deleted_at.add((0, E.size // 2, E.size - 1).index(k))
                s[E[k]] = 0
            piece = piece_after_edit(inst, piece, s)
            ref = sgmc.candidate_slope(inst, s)
            npt.assert_array_equal(np.sort(piece.support), ref.support)
            pos = in_order_of(ref, piece)
            npt.assert_allclose(piece.Minv, ref.Minv[np.ix_(pos, pos)], rtol=1e-10, atol=1e-12)
        assert deleted_at == {0, 1, 2}
        assert not np.all(np.diff(piece.support) > 0)  # the order is not ascending

    def test_parent_piece_unchanged(self):
        # memos share pieces, so an update must leave its parent as it was
        inst = random_instance(39, m=6, n=10, rho=0.3)
        s = indicator_from_string("+0-00+000-" + "0+000-0000")
        parent = next_piece(inst, candidate_slope(inst, s), s_with(s, 2, 0), 2)
        parent = next_piece(inst, parent, s_with(parent.s, 14, 1), 14)
        Minv, support, signs = parent.Minv.tobytes(), parent.support.copy(), parent.s.copy()
        E = parent.support
        for j, sign in ((3, -1), (E[0], 0), (E[2], 0), (E[-1], 0)):
            child = next_piece(inst, parent, s_with(parent.s, j, sign), j)
            assert child.invertible
            assert not np.shares_memory(child.Minv, parent.Minv)
            assert not np.shares_memory(child.support, parent.support)
            assert parent.Minv.tobytes() == Minv
            npt.assert_array_equal(parent.support, support)
            npt.assert_array_equal(parent.s, signs)

    def test_index_outside_the_edit_raises(self):
        # the caller hands over the edited index; one where the supports
        # agree (in both, in neither, or a sign flip) builds no piece
        inst = random_instance(35, m=4, n=8, rho=0.5)
        s = indicator_from_string("+0-0000+0-000000")
        piece = candidate_slope(inst, s)
        grown = s_with(s, 3, 1)
        for s_next, j in ((grown, 0), (grown, 1), (grown, 9), (s_with(s, 0, -1), 0)):
            with pytest.raises(ValueError, match="in both supports or in neither"):
                next_piece(inst, piece, s_next, j)
        assert next_piece(inst, piece, grown, 3).updated

    def test_piece_keeps_its_signs_and_product(self):
        # apply reuses s_E and pinv(M) s_E, which the builder formed: they
        # must be what apply formed itself before, bitwise
        inst = random_instance(35, m=4, n=8, rho=0.5)
        s = indicator_from_string("+0-0000+0-000000")
        pieces = [candidate_slope(inst, s)]
        for i, sign in ((3, 1), (12, -1), (0, 0), (15, 1), (9, 0)):
            s = s_with(s, i, sign)
            pieces.append(next_piece(inst, pieces[-1], s, i))
        pieces.append(candidate_slope(inst, indicator_from_string("++++-" + "0" * 11)))
        pieces.append(candidate_slope(inst, zero_indicator(8)))
        assert [p.updated for p in pieces] == [False] + [True] * 5 + [False, False]
        assert not pieces[-2].invertible
        for piece in pieces:
            s_E = piece.s[piece.support].astype(float)
            assert piece.s_E.tobytes() == s_E.tobytes()
            assert piece.Minv_s_E.tobytes() == (piece.Minv @ s_E).tobytes()

    def test_rank_drop_falls_back(self):
        # m = 2: a third primal column lies in the span of the first two, so
        # the Schur complement vanishes and the piece is rebuilt
        inst = random_instance(36, m=2, n=3, rho=0.3)
        piece = candidate_slope(inst, indicator_from_string("++0000"))
        assert piece.invertible
        s = indicator_from_string("+++000")
        grown = next_piece(inst, piece, s, 2)
        ref = candidate_slope(inst, s)
        assert not grown.invertible
        assert grown.compatible == ref.compatible == lstsq_compatible(inst, s)
        npt.assert_array_equal(grown.Minv, ref.Minv)
        npt.assert_array_equal(grown.null, ref.null)


def dense_gram(inst, support):
    """C_E^T D C_E by dense products with C and D, in the order of
    `support`, and the magnitudes |C_E|^T |D| |C_E| of the terms summed."""
    C, D = inst.matrices.C, inst.matrices.D
    CE = C[:, support]
    return CE.T @ D @ CE, np.abs(CE.T) @ np.abs(D) @ np.abs(CE)


GRAM_RTOL = 1e-13  # kept M against the dense product, relative to the terms


class TestGramBookkeeping:
    """A piece keeps M = C_E^T D C_E beside M^{-1}, in the order of its
    support, through every update."""

    @pytest.mark.parametrize("rho", [0.3, 0.8])
    def test_edit_chain_keeps_M(self, rho, monkeypatch):
        # 48 seeded edits on a 12 x 24 instance: insertions, deletions at the
        # first, a middle and the last position in turn, and every sixth
        # step two edits at once or a sign flip, which rebuild the piece.
        # No other step may rebuild: a wrong M would fail the update check
        # and be rebuilt from scratch, hiding the error
        import sgmc.candidate

        builds = []
        build = sgmc.candidate.candidate_slope
        monkeypatch.setattr(sgmc.candidate, "candidate_slope",
                            lambda inst, s: builds.append(s) or build(inst, s))
        m, n = 12, 24
        inst = random_instance(41, m=m, n=n, rho=rho)
        mats = inst.matrices
        rng = np.random.default_rng(42)
        s = np.zeros(2 * n, dtype=int)
        s[rng.choice(2 * n, size=6, replace=False)] = 1
        piece = candidate_slope(inst, s)
        deleted, rebuilt, unordered = [], 0, 0
        for step in range(48):
            s = s.copy()
            E = piece.support
            halves = [np.count_nonzero(s[:n]), np.count_nonzero(s[n:])]
            free = [i for i in np.flatnonzero(s == 0) if halves[i // n] < m - 2]
            if step % 6 == 5:
                if step % 12 == 5:
                    s[rng.choice(free)] = 1
                    s[E[0]] = 0
                else:
                    s[E[-1]] *= -1
                rebuilt += 1
            elif step % 2 == 0:
                s[rng.choice(free)] = rng.choice([-1, 1])
            else:
                where = len(deleted) % 3
                deleted.append(where)
                s[E[(0, E.size // 2, E.size - 1)[where]]] = 0
            piece = piece_after_edit(inst, piece, s)
            assert piece.M.tobytes() == mats.gram_block(piece.support).tobytes()
            want, terms = dense_gram(inst, piece.support)
            assert (np.abs(piece.M - want) <= GRAM_RTOL * terms).all()
            unordered += not np.all(np.diff(piece.support) > 0)
        assert set(deleted) == {0, 1, 2} and rebuilt == len(builds) == 8
        assert unordered  # updates leave the support out of ascending order

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3), (16, 32)])
    def test_products_with_M_match_dense(self, shape, rho):
        # M X_E is (C^T D C X)[E] for X zero off E: the product the line
        # refinement and the update check take through the kept M
        m, n = shape
        rng = np.random.default_rng([7, m, n, int(10 * rho)])
        inst = ProblemInstance(A=rng.normal(size=shape), rho=rho, y=np.zeros(m), lam=1.0)
        C, D = inst.matrices.C, inst.matrices.D
        G, G_terms = C.T @ D @ C, np.abs(C.T) @ np.abs(D) @ np.abs(C)
        for size in (1, n, 2 * n - 1, 2 * n):
            E = rng.permutation(2 * n)[:size]
            s = np.zeros(2 * n, dtype=int)
            s[E] = 1
            piece = candidate_slope(inst, s)
            for k in (1, 2, 24):
                X = np.zeros((2 * n, k))
                X[piece.support] = rng.normal(size=(size, k))
                got = piece.M @ X[piece.support]
                want = (G @ X)[piece.support]
                terms = (G_terms @ np.abs(X))[piece.support]
                assert (np.abs(got - want) <= GRAM_RTOL * terms).all()
            if rho == 0.0:
                # the dual blocks of C vanish: exactly zero, not rounding noise
                dual = piece.support >= n
                assert (piece.M[dual] == 0.0).all() and (piece.M[:, dual] == 0.0).all()


class TestTinyData:
    """A = scale [[1, 2], [0.5, 3]], rho = 0.25, s = ++00."""

    @staticmethod
    def piece(scale):
        A = scale * np.array([[1.0, 2.0], [0.5, 3.0]])
        inst = ProblemInstance(A=A, rho=0.25, y=np.zeros(2), lam=1.0)
        return candidate_slope(inst, S1)

    @pytest.mark.parametrize("scale", [1e-160, 1e-170])
    def test_subnormal_gram_raises(self, scale):
        # M has subnormal entries at 1e-160 (its pseudo-inverse overflowed to
        # NaN) and underflows to zero at 1e-170 (an all-zero map): neither
        # may pass as a compatible piece
        with pytest.raises(ValueError, match="too small"):
            self.piece(scale)

    def test_small_data_scale_exactly(self):
        # well above the subnormal range the piece is finite and scales as
        # M^{-1} ~ 1 / scale^2
        unit, small = self.piece(1.0), self.piece(1e-100)
        assert small.invertible and small.compatible
        npt.assert_allclose(small.Minv * 1e-200, unit.Minv, rtol=1e-12)


class TestRankCut:
    @pytest.mark.parametrize("kind, rho", [("integer", 0.3), ("duplicated", 0.0),
                                           ("negated", 0.8)])
    def test_stack_matches_single_calls(self, kind, rho):
        # the M of every support of one size of a 2x4 instance, rank-deficient
        # ones among them, cut in one call: each matrix gets the
        # pseudo-inverse, rank and compatibility verdicts of its own call,
        # which are candidate_slope's
        rng = np.random.default_rng(1)
        if kind == "integer":
            A = rng.integers(-2, 3, size=(2, 4)).astype(float)
        else:
            B = rng.normal(size=(2, 2))
            A = np.hstack([B, B if kind == "duplicated" else -B])
        inst = ProblemInstance(A=A, rho=rho, y=np.zeros(2), lam=1.0)
        mats = inst.matrices
        verdicts = []
        for k in range(1, 9):
            supports = np.array(list(itertools.combinations(range(8), k)))
            signs = np.array(list(itertools.product((1, -1), repeat=k)))
            nonzero = mats.col_abs_sums[supports].any(axis=1)
            cut = rank_cut(np.stack([mats.gram_block(E) for E in supports]), nonzero)
            together = in_row_space(signs, cut.null)
            assert together.shape == (len(supports), len(signs))
            for i, E in enumerate(supports):
                one = rank_cut(mats.gram_block(E), nonzero[i])
                piece = candidate_slope(inst, np.isin(np.arange(8), E).astype(int))
                npt.assert_allclose(cut.Minv[i], one.Minv, rtol=1e-12, atol=1e-12)
                npt.assert_array_equal(piece.Minv, one.Minv)
                assert cut.rank[i] == one.rank == k - len(piece.null)
                npt.assert_array_equal(together[i], in_row_space(signs, one.null))
                npt.assert_array_equal(together[i], in_row_space(signs, piece.null))
                verdicts.extend(together[i])
        assert any(verdicts) and not all(verdicts)

    def test_refuses_tiny_blocks_only_of_nonzero_columns(self):
        # an exactly zero M of zero columns is cut to rank 0, with every
        # pattern incompatible; of nonzero columns it is refused
        stack = np.stack([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        with pytest.raises(ValueError, match="too small"):
            rank_cut(stack, np.array([True, True, False]))
        cut = rank_cut(stack, np.array([True, False, False]))
        npt.assert_array_equal(cut.rank, [2, 0, 0])
        npt.assert_array_equal(cut.Minv, [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))])
        signs = np.array(list(itertools.product((1, -1), repeat=2)))
        npt.assert_array_equal(in_row_space(signs, cut.null), [[True] * 4] + [[False] * 4] * 2)


class TestEvalWeq:
    def test_zero_for_all_parameters(self, two_column):
        piece = candidate_slope(two_column, zero_indicator(2))
        for lam in (0.5, 1.0, 9.0):
            npt.assert_array_equal(eval_weq(piece, np.array([3.0, -1.0]), lam), np.zeros(4))

    def test_hand_value(self, two_column):
        piece = candidate_slope(two_column, S1)
        npt.assert_allclose(eval_weq(piece, np.array([2.0, 0.0]), 1.0), [0.5, 0.5, 0, 0], atol=1e-12)

    def test_linearity(self, two_column):
        piece = candidate_slope(two_column, S1)
        b1, l1 = np.array([2.0, 0.5]), 1.0
        b2, l2 = np.array([-1.0, 0.25]), 0.5
        lhs = eval_weq(piece, b1 + b2, l1 + l2)
        rhs = eval_weq(piece, b1, l1) + eval_weq(piece, b2, l2)
        npt.assert_allclose(lhs, rhs, atol=1e-12)

    def test_incompatible_piece_refused(self):
        # s_E lies outside Col(C_E^T): a map formed anyway would be the
        # rounding of lambda s_E scaled by ||pinv(M)|| ~ 1.8e75, about
        # w_E = (6.0e59, 2.0e59) at (b, 1)
        inst = ProblemInstance(A=[[1.18e-38, 1.18e-38]], rho=0.0, y=[0.0], lam=1.0)
        piece = candidate_slope(inst, np.array([1, -1, -1, -1]))
        assert not piece.compatible
        b = np.array([1.0, 0.0])
        with pytest.raises(IncompatibleIndicatorError):
            eval_weq(piece, b, 1.0)
        with pytest.raises(IncompatibleIndicatorError):
            piece.apply(inst.matrices.ct(b), 1.0)
        assert zone_margins(piece, b, 1.0) == -math.inf
        npt.assert_array_equal(zone_margins(piece, np.ones((2, 3)), np.ones(3)), -math.inf)
        assert not zone_membership(inst, piece.s, b, 1.0, piece=piece)


class TestEqnqMembership:
    def test_zero_zone(self):
        inst = random_instance(34, m=3, n=4)
        inst = inst.with_params(lam=1.2 * float(np.abs(inst.matrices.C.T @ inst.b).max()))
        assert eqnq_membership(inst, zero_indicator(4), np.zeros(8))

    def test_nq_bound_fails_outside_zero_zone(self, two_column):
        # lam = 1 < |c_1^T b| = 2
        assert not eqnq_membership(two_column, zero_indicator(2), np.zeros(4))

    @pytest.mark.parametrize("i", range(4))
    def test_nan_fails(self, two_column, i):
        # y = 2, lambda = 1: the min-norm solution splits x1 + x2 = 1 evenly
        w = np.array([0.5, 0.5, 0.0, 0.0])
        assert eqnq_membership(two_column, S1, w)
        w[i] = np.nan
        assert not eqnq_membership(two_column, S1, w)

    @pytest.mark.parametrize("s, w", [
        ("++00", [1.5, -0.5, 0.0, 0.0]),  # a sign on the support is wrong
        ("+000", [0.5, 0.5, 0.0, 0.0]),  # an entry off the support is nonzero
    ])
    def test_fails_a_w_condition_where_xi_holds(self, two_column, s, w):
        # both have A x = 1, so xi = [1, 1, 0, 0] meets every xi condition of s
        npt.assert_allclose(correlation(two_column, np.array(w)), [1.0, 1.0, 0.0, 0.0])
        assert not eqnq_membership(two_column, indicator_from_string(s), np.array(w))

    @pytest.mark.parametrize("miss, holds", [(0.5, True), (2.0, False)])
    def test_judges_at_the_cross_check_slack(self, two_column, miss, holds):
        # xi on the support misses lambda by miss * CROSS_CHECK_TOL * S, far
        # beyond the certificate's CERT_TOL * S
        w = np.array([0.5, 0.5, 0.0, 0.0])
        gap = miss * CROSS_CHECK_TOL * certificate_scale(two_column)
        assert gap > 10 * CERT_TOL * certificate_scale(two_column)
        assert eqnq_membership(two_column.with_params(lam=1.0 + gap), S1, w) is holds

    def test_membership_implies_optimality(self):
        for seed in range(5):
            inst = random_instance(40 + seed, m=3, n=5, rho=0.3)
            w = solve_saddle(inst, OracleConfig(tol=1e-11))
            s = encode_sopt(inst, w)
            if eqnq_membership(inst, s, w):
                assert check_opt(inst, w).satisfied


class TestZoneMembership:
    def test_two_column_published_zones(self, two_column):
        s0, s1, s2 = zero_indicator(2), S1, indicator_from_string("--00")
        cases = [
            (0.5, 1.0, True, False, False),
            (2.0, 1.0, False, True, False),
            (-2.0, 1.0, False, False, True),
            (1.0, 1.0, True, True, False),  # shared boundary
            (0.0, 0.3, True, False, False),
        ]
        for y, lam, in0, in1, in2 in cases:
            b = np.array([y, 0.0])
            assert zone_membership(two_column, s0, b, lam) == in0
            assert zone_membership(two_column, s1, b, lam) == in1
            assert zone_membership(two_column, s2, b, lam) == in2

    def test_incompatible_never_member(self, two_column):
        s = indicator_from_string("+-00")
        rng = np.random.default_rng(0)
        for _ in range(10):
            b = rng.normal(size=2)
            assert not zone_membership(two_column, s, b, float(rng.uniform(0.1, 3)))

    def test_nonpositive_lambda_rejected(self, two_column):
        assert not zone_membership(two_column, S1, np.array([2.0, 0.0]), 0.0)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf])
    def test_non_finite_lambda_rejected(self, two_column, lam):
        # every correlation bound holds at lambda = inf, yet no point is
        # there; on a support the map would take inf - inf, so none is
        # formed (a RuntimeWarning fails the test)
        B = np.array([[2.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        for s in (zero_indicator(2), S1):
            assert not zone_membership(two_column, s, np.array([2.0, 0.0]), lam)
            # among finite lambdas, the other points keep their margins
            piece = candidate_slope(two_column, s)
            margins = zone_margins(piece, B, np.array([1.0, lam, 1.0]))
            assert margins[1] == -math.inf
            npt.assert_array_equal(
                margins[[0, 2]], zone_margins(piece, B[:, [0, 2]], np.ones(2)))


class TestMarginsAtPoints:
    def test_k_points_match_each_point(self):
        # the map and the margins at k points, the columns of b, are those
        # of each point alone, for every sign pattern of a support
        inst = random_instance(57, m=2, n=3, rho=0.3)
        support_piece = candidate_slope(inst, np.array([1, 1, 0, 0, 1, 0]))
        rng = np.random.default_rng(57)
        B, lams = rng.normal(size=(4, 5)), rng.uniform(0.1, 2.0, size=5)
        for signs in itertools.product((1, -1), repeat=3):
            s = np.zeros(6, dtype=int)
            s[[0, 1, 4]] = signs
            piece = with_signs(support_piece, s)
            w = eval_weq(piece, B, lams)
            margins = zone_margins(piece, B, lams)
            assert w.shape == (6, 5) and margins.shape == (5,)
            # the worst of the sign margins on the support and the
            # correlation margins off it
            xi = correlation(inst, w, b=B)
            on = s != 0
            want = np.minimum((s[on, None] * w[on]).min(axis=0),
                              (lams - np.abs(xi[~on])).min(axis=0))
            npt.assert_allclose(margins, want, rtol=1e-12, atol=1e-12)
            npt.assert_array_equal(in_zone(margins, lams), margins >= -1e-9 * lams)
            for j in range(5):
                npt.assert_allclose(w[:, j], eval_weq(piece, B[:, j], lams[j]),
                                    rtol=1e-12, atol=1e-12)
                own = zone_margins(piece, B[:, j], lams[j])
                assert np.ndim(own) == 0
                npt.assert_allclose(margins[j], own, rtol=1e-12, atol=1e-12)

    def test_in_zone_reads_one_margin(self):
        # slack ZONE_TOL * lambda, at 0 < lambda < inf; NaN and -inf fail
        lams = np.array([1.0, 2.0, 1.0, 0.0, math.inf, 1.0, 1.0])
        margin = np.array([-1e-9, -2.1e-9, 0.5, 0.5, 0.5, math.nan, -math.inf])
        npt.assert_array_equal(in_zone(margin, lams),
                               [True, False, True, False, False, False, False])

    def test_strictly_inside_reads_one_margin(self, two_column):
        # the zero zone's margin at (y, 0; lambda) is lambda - |y|: the
        # interior demands 1e-6 * lambda of it, at every scale, and no
        # margin counts at lambda = 0 or inf
        s0 = zero_indicator(2)
        for alpha in (1.0, 4.0, 2.0 ** -30):
            lam = alpha * 1.0
            inside = alpha * np.array([1.0 - 1e-6, 0.0])
            short = alpha * np.array([1.0 - 0.9e-6, 0.0])
            assert strictly_inside(two_column, s0, inside, lam)
            assert not strictly_inside(two_column, s0, short, lam)
        assert not strictly_inside(two_column, s0, np.zeros(2), 0.0)
        assert not strictly_inside(two_column, s0, np.zeros(2), math.inf)


def _interior_zone_sample(seed, rho=0.0):
    """A random instance together with its indicator at the instance's own
    generic (b, lambda), found through the iterative oracle."""
    inst = random_instance(seed, m=3, n=5, rho=rho)
    w = solve_saddle(inst, OracleConfig(tol=1e-11))
    s = encode_sopt(inst, w)
    return inst, s


class TestZoneGeometry:
    def test_cone_scaling(self):
        inst, s = _interior_zone_sample(50, rho=0.4)
        assert zone_membership(inst, s, inst.b, inst.lam)
        for theta in (0.5, 2.0, 10.0):
            assert zone_membership(inst, s, theta * inst.b, theta * inst.lam)

    def test_midpoint_convexity(self):
        inst, s = _interior_zone_sample(51)
        b2, lam2 = 3.0 * inst.b, 3.0 * inst.lam
        assert zone_membership(inst, s, b2, lam2)
        assert zone_membership(inst, s, 0.5 * (inst.b + b2), 0.5 * (inst.lam + lam2))

    def test_min_norm_within_zone(self):
        inst, s = _interior_zone_sample(52, rho=0.3)
        if not strictly_inside(inst, s, inst.b, inst.lam):
            pytest.skip("sampled point not strictly interior")
        piece = candidate_slope(inst, s)
        w_map = eval_weq(piece, inst.b, inst.lam)
        w_oracle = min_norm_over_eqnq(inst, s)
        assert np.linalg.norm(w_map) <= np.linalg.norm(w_oracle) + 1e-8
        npt.assert_allclose(w_map, w_oracle, atol=1e-7)

    def test_interior_is_scale_free(self):
        # the interior margin is on the scale of lambda: the sample keeps its
        # status as (b, lambda) shrinks or grows together; a margin absolute
        # below lambda = 1 lost it at 1e-8 and 1e-4
        inst, s = _interior_zone_sample(52, rho=0.3)
        assert strictly_inside(inst, s, inst.b, inst.lam)
        for alpha in (1e-8, 1e-4, 1e4, 1e8):
            assert strictly_inside(inst, s, alpha * inst.b, alpha * inst.lam)
        assert not strictly_inside(inst, s, inst.b, 0.0)

    def test_sign_constancy_in_interior(self):
        inst, s = _interior_zone_sample(53)
        piece = candidate_slope(inst, s)
        rng = np.random.default_rng(53)
        patterns, sopt_patterns = set(), set()
        found = 0
        while found < 10:
            theta = float(rng.uniform(0.5, 2.0))
            b, lam = theta * inst.b, theta * inst.lam
            if not strictly_inside(inst, s, b, lam):
                continue
            found += 1
            w = eval_weq(piece, b, lam)
            patterns.add(indicator_to_string(np.sign(w).astype(int)))
            probe = inst.with_params(b=b, lam=lam)
            sopt_patterns.add(indicator_to_string(encode_sopt(probe, w)))
        assert len(patterns) == 1 and len(sopt_patterns) == 1

    def test_zone_implies_optimality(self):
        for seed in (54, 55, 56):
            inst, s = _interior_zone_sample(seed, rho=0.2)
            piece = candidate_slope(inst, s)
            if zone_membership(inst, s, inst.b, inst.lam, piece=piece):
                w = eval_weq(piece, inst.b, inst.lam)
                assert check_opt(inst, w).worst_violation <= 1e-7
