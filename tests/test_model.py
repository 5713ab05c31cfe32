import json

import numpy as np
import numpy.testing as npt
import pytest

from sgmc import (
    EnumerationConfig,
    ParameterLine,
    PathSegment,
    ProblemInstance,
    candidate_slope,
    check_opt,
    correlation,
    encode_sopt,
    enumerate_zones,
    initialize_indicator,
    path_sweep,
    strictly_inside,
    zero_indicator,
    zone_membership,
)
from sgmc.candidate import eval_weq, in_zone, zone_margins
from sgmc.model import (
    ModelMatrices,
    as_indicator,
    build_model_matrices,
    indicator_from_string,
    indicator_to_string,
    instance_from_dict,
    load_instance,
    split_extended,
)

from conftest import random_instance, saddle_objective


def naive_matrices(A, rho):
    """Column-by-column assembly, independent of the block construction."""
    m, n = A.shape
    C = np.zeros((2 * m, 2 * n))
    for i in range(2 * n):
        if i < n:
            C[:m, i] = A[:, i]
        else:
            C[m:, i] = np.sqrt(rho) * A[:, i - n]
    D = np.zeros((2 * m, 2 * m))
    for j in range(m):
        D[j, j] = 1.0 - rho
        D[j, m + j] = np.sqrt(rho)
        D[m + j, j] = -np.sqrt(rho)
        D[m + j, m + j] = 1.0
    return C, D


class TestBuildModelMatrices:
    def test_identity_D_at_rho_zero(self, two_column):
        mats = build_model_matrices(two_column)
        npt.assert_array_equal(mats.D, np.eye(2))

    def test_two_column_C(self, two_column):
        mats = build_model_matrices(two_column)
        npt.assert_array_equal(mats.C, [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])

    def test_random_against_naive_assembly(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(2, 3))
        inst = ProblemInstance(A=A, rho=0.25, y=np.zeros(2), lam=1.0)
        mats = build_model_matrices(inst)
        C, D = naive_matrices(A, 0.25)
        npt.assert_array_equal(mats.C, C)
        npt.assert_array_equal(mats.D, D)

    def test_bitwise_reproducible(self, rand_4x8):
        a = build_model_matrices(rand_4x8)
        b = build_model_matrices(rand_4x8)
        assert (a.C == b.C).all() and (a.D == b.D).all()

    def test_block_antisymmetry_identity(self):
        inst = random_instance(5, rho=0.6)
        D = build_model_matrices(inst).D
        m = inst.m
        sym = D + D.T - 2 * np.block(
            [[(1 - inst.rho) * np.eye(m), np.zeros((m, m))], [np.zeros((m, m)), np.eye(m)]]
        )
        assert np.abs(sym).max() == 0.0


def block_assembly(A, rho):
    """C and D assembled from their blocks, as `ModelMatrices` forms them."""
    m, n = A.shape
    sq = np.sqrt(rho)
    C = np.zeros((2 * m, 2 * n))
    C[:m, :n] = A
    C[m:, n:] = sq * A
    eye = np.eye(m)
    return C, np.block([[(1.0 - rho) * eye, sq * eye], [-sq * eye, eye]])


class TestFormedOnRead:
    """`ModelMatrices` holds (A, rho) alone: the dense C and D are formed
    on their first read, by the independent checks, and a descent reads
    neither."""

    def test_descent_forms_neither_C_nor_D(self):
        inst = random_instance(13, m=4, n=8, rho=0.3)
        lam_max = float(np.abs(inst.matrices.ct(inst.b)).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        result = path_sweep(inst, line, zero_indicator(8), t_start=0.0)
        assert result.stop_reason == "lambda_terminus" and len(result.segments) > 1
        assert "C" not in vars(inst.matrices) and "D" not in vars(inst.matrices)
        # the instance's A is shared, and the Gram matrix is not copied
        assert inst.matrices.A is inst.A
        assert not inst.matrices.gram.flags.writeable

    def test_zone_tests_form_neither_C_nor_D(self):
        # the zone tests apply C and D through the block operators, as the
        # pieces and line restrictions do
        inst = ProblemInstance(A=np.random.default_rng(3).normal(size=(3, 6)), rho=0.3,
                               y=np.zeros(3), lam=1.0)
        b = np.concatenate([np.ones(3), np.zeros(3)])
        s = zero_indicator(6)
        calls = {
            "enumerate_zones": lambda: enumerate_zones(
                inst, EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, n_coverage=4)),
            "zone_membership": lambda: zone_membership(inst, s, b, 0.5),
            "strictly_inside": lambda: strictly_inside(inst, s, b, 10.0),
        }
        for name, call in calls.items():
            call()
            assert {"C", "D"}.isdisjoint(vars(inst.matrices)), name

    def test_check_opt_forms_both_as_assembled(self):
        inst = random_instance(13, m=4, n=8, rho=0.3)
        check_opt(inst, np.zeros(16))
        C, D = vars(inst.matrices)["C"], vars(inst.matrices)["D"]
        want_C, want_D = block_assembly(inst.A, inst.rho)
        assert C.shape == want_C.shape and C.tobytes() == want_C.tobytes()
        assert D.shape == want_D.shape and D.tobytes() == want_D.tobytes()
        assert not C.flags.writeable and not D.flags.writeable
        # a sibling's checks read the same arrays
        sibling = inst.with_params(lam=0.5)
        check_opt(sibling, np.zeros(16))
        assert sibling.matrices.C is C and sibling.matrices.D is D

    def test_outside_A_is_copied_read_only(self):
        for A in (np.arange(6).reshape(2, 3), np.arange(6.0).reshape(2, 3)):
            mats = ModelMatrices(A=A, rho=0.3)
            assert mats.A.dtype == float and not mats.A.flags.writeable
            A[0, 0] = 99
            npt.assert_array_equal(mats.A, np.arange(6.0).reshape(2, 3))
            with pytest.raises(ValueError):
                mats.A[0, 0] = 1.0


OPERATOR_RTOL = 1e-13  # block operator against dense product, relative to the terms


def _operator_case(shape, rho, seed=7):
    m, n = shape
    rng = np.random.default_rng([seed, m, n, int(10 * rho)])
    inst = ProblemInstance(A=rng.normal(size=shape), rho=rho, y=np.zeros(m), lam=1.0)
    C, D = naive_matrices(inst.A, rho)
    return inst.matrices, C, D, rng


def _assert_matches_terms(got, M, X):
    """|got - M X| within OPERATOR_RTOL of |M| |X|, the terms summed."""
    want = M @ X
    assert got.shape == want.shape
    assert (np.abs(got - want) <= OPERATOR_RTOL * (np.abs(M) @ np.abs(X))).all()


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("shape", [(1, 3), (2, 3), (5, 3), (16, 32)])
class TestBlockOperators:
    """`ModelMatrices` applies D C and C^T to the rows of an array through
    their blocks; each must equal the dense product.  (C^T D C is never
    applied, only gathered: its entries are checked here, and the kept
    M = C_E^T D C_E in tests/test_candidate.py::TestGramBookkeeping.)"""

    @pytest.mark.parametrize("k", [1, 2, 24])
    def test_products_match_dense(self, shape, rho, k):
        mats, C, D, rng = _operator_case(shape, rho)
        m, n = shape
        X = rng.normal(size=(k, 2 * n))
        V = rng.normal(size=(k, 2 * m))
        _assert_matches_terms(mats.dc(X).T, D @ C, X.T)
        _assert_matches_terms(mats.ct(V).T, C.T, V.T)
        if rho == 0.0:
            # the dual blocks of C vanish: exactly zero, not rounding noise
            assert (mats.dc(X)[:, m:] == 0.0).all()
            assert (mats.ct(V)[:, n:] == 0.0).all()

    def test_one_dimensional_arguments(self, shape, rho):
        mats, C, D, rng = _operator_case(shape, rho)
        m, n = shape
        x, v = rng.normal(size=2 * n), rng.normal(size=2 * m)
        npt.assert_array_equal(mats.dc(x), mats.dc(x[None, :])[0])
        npt.assert_array_equal(mats.ct(v), mats.ct(v[None, :])[0])

    def test_gram_entries_match_dense(self, shape, rho):
        mats, C, D, rng = _operator_case(shape, rho)
        n = shape[1]
        G = C.T @ D @ C
        scale = np.abs(C.T) @ np.abs(D) @ np.abs(C)
        for size in (0, 1, n, 2 * n - 1):
            E = rng.permutation(2 * n)[:size]
            j = int(np.setdiff1d(np.arange(2 * n), E)[0])
            col, row, d = mats.gram_border(E, j)
            assert (np.abs(col - G[E, j]) <= OPERATOR_RTOL * scale[E, j]).all()
            assert (np.abs(row - G[j, E]) <= OPERATOR_RTOL * scale[j, E]).all()
            assert abs(d - G[j, j]) <= OPERATOR_RTOL * scale[j, j]
            block = mats.gram_block(E)
            assert (np.abs(block - G[np.ix_(E, E)]) <= OPERATOR_RTOL * scale[np.ix_(E, E)]).all()
            if rho == 0.0:
                dual = E >= n
                assert (col[dual] == 0.0).all() and (row[dual] == 0.0).all()
                assert (block[dual] == 0.0).all() and (block[:, dual] == 0.0).all()
                assert j < n or d == 0.0

    def test_gram_border_is_the_border_of_gram_block(self, shape, rho):
        # an insertion borders the kept M with gram_border's entries, and
        # the bordered M must equal gram_block of the grown support entry
        # for entry (TestGramBookkeeping), whichever index j is added
        mats, C, D, rng = _operator_case(shape, rho)
        n = shape[1]
        for size in (0, 1, n, 2 * n - 1):
            E = rng.permutation(2 * n)[:size]
            for j in np.setdiff1d(np.arange(2 * n), E)[[0, -1]]:
                col, row, d = mats.gram_border(E, int(j))
                grown = mats.gram_block(np.append(E, j))
                assert col.tobytes() == grown[:-1, -1].tobytes()
                assert row.tobytes() == grown[-1, :-1].tobytes()
                assert d == grown[-1, -1]


@pytest.mark.parametrize("rho", [0.0, 0.3, 0.8])
@pytest.mark.parametrize("shape", [(2, 3), (20, 40)])
@pytest.mark.parametrize("k", [1, 24])
def test_zone_margins_refereed_by_the_dense_product(shape, rho, k):
    # `zone_margins` forms xi = C^T (b - D C w) through the block operators;
    # the dense product of `correlation` on the same maps must give the
    # same margins, within OPERATOR_RTOL of the terms of xi, and the same
    # `in_zone` verdicts.  The pieces are the zones a ray from (0, lambda)
    # to a point like the coverage points of `enumerate_zones` passes; the
    # points are the midpoints of their stretches of the ray, last first,
    # then random ones, k in all.
    m, n = shape
    rng = np.random.default_rng([23, m, n, int(10 * rho), k])
    inst = ProblemInstance(A=rng.normal(size=shape), rho=rho, y=np.zeros(m), lam=1.0)
    C, D = naive_matrices(inst.A, rho)
    line = ParameterLine(np.zeros(2 * m), 0.3, np.append(3.0 * rng.normal(size=m), np.zeros(m)),
                         0.0)
    segments = path_sweep(inst, line, zero_indicator(n), t_start=0.0, t_end=1.0).segments
    points = [line.point_at(0.5 * (seg.t_start + seg.t_end)) for seg in reversed(segments)]
    points += [(rng.normal(size=2 * m), rng.uniform(0.1, 3.0)) for _ in range(k)]
    B = np.column_stack([b for b, _ in points[:k]])
    lams = np.array([lam for _, lam in points[:k]])
    inside = 0
    for seg in segments:
        piece = candidate_slope(inst, seg.s)
        margins = zone_margins(piece, B, lams)
        w = eval_weq(piece, B, lams)
        xi = correlation(inst, w, b=B)
        on, off = seg.s != 0, seg.s == 0
        want = np.minimum((seg.s[on, None] * w[on]).min(axis=0, initial=np.inf),
                          (lams - np.abs(xi[off])).min(axis=0, initial=np.inf))
        terms = np.abs(C.T) @ (np.abs(B) + np.abs(D) @ np.abs(C) @ np.abs(w))
        assert margins.shape == (k,)
        assert (np.abs(margins - want)
                <= OPERATOR_RTOL * terms[off].max(axis=0, initial=0.0)).all()
        verdicts = in_zone(margins, lams)
        npt.assert_array_equal(verdicts, in_zone(want, lams))
        inside += int(verdicts.sum())
    assert inside >= 1


def naive_objective(inst, x, z):
    fit = 0.5 * sum((inst.y[k] - (inst.A @ x)[k]) ** 2 for k in range(inst.m))
    l1x = inst.lam * sum(abs(v) for v in x)
    l1z = inst.lam * sum(abs(v) for v in z)
    couple = 0.5 * inst.rho * sum(((inst.A @ x)[k] - (inst.A @ z)[k]) ** 2 for k in range(inst.m))
    aux = np.sqrt(inst.rho) * sum(inst.r[k] * (inst.A @ z)[k] for k in range(inst.m))
    return fit + l1x - l1z - couple + aux


class TestSaddleObjective:
    def test_origin_value(self, rand_4x8):
        val = saddle_objective(rand_4x8, np.zeros(8), np.zeros(8))
        assert val == pytest.approx(0.5 * np.dot(rand_4x8.y, rand_4x8.y))

    def test_reduces_to_lasso_at_rho_zero(self, rand_4x8):
        rng = np.random.default_rng(1)
        x, z = rng.normal(size=8), rng.normal(size=8)
        lasso = 0.5 * np.sum((rand_4x8.y - rand_4x8.A @ x) ** 2) + rand_4x8.lam * np.abs(x).sum()
        val = saddle_objective(rand_4x8, x, z)
        assert val == pytest.approx(lasso - rand_4x8.lam * np.abs(z).sum())

    def test_random_against_naive(self):
        inst = random_instance(2, m=3, n=5, rho=0.45)
        inst = ProblemInstance(A=inst.A, rho=inst.rho, y=inst.y, r=np.arange(3.0), lam=inst.lam)
        rng = np.random.default_rng(3)
        x, z = rng.normal(size=5), rng.normal(size=5)
        assert saddle_objective(inst, x, z) == pytest.approx(naive_objective(inst, x, z), rel=1e-12)


def test_split_extended_refuses_an_odd_length():
    with pytest.raises(ValueError, match="even length"):
        split_extended(np.zeros(3))


class TestProblemInstance:
    def test_b_is_stacked_observation(self):
        inst = ProblemInstance(A=np.eye(2), rho=0.1, y=[1.0, 2.0], r=[3.0, 4.0], lam=1.0)
        npt.assert_array_equal(inst.b, [1.0, 2.0, 3.0, 4.0])

    def test_r_defaults_to_zero(self):
        inst = ProblemInstance(A=np.eye(2), rho=0.0, y=[1.0, 2.0], lam=1.0)
        npt.assert_array_equal(inst.r, [0.0, 0.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho=1.0),
            dict(rho=-0.1),
            dict(lam=0.0),
            dict(lam=-1.0),
            dict(y=[1.0]),
            dict(r=[1.0, 2.0, 3.0]),
            dict(lam=np.inf),
            dict(lam=np.nan),
            dict(A=[[1.0, 0.0], [0.0, np.inf]]),
            dict(y=[np.nan, 2.0]),
            dict(r=[0.0, -np.inf]),
        ],
    )
    def test_validation(self, kwargs):
        base = dict(A=np.eye(2), rho=0.0, y=[1.0, 2.0], lam=1.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ProblemInstance(**base)

    def test_arrays_are_readonly(self, rand_4x8):
        with pytest.raises(ValueError):
            rand_4x8.A[0, 0] = 99.0

    def test_json_roundtrip(self, two_column, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(two_column.to_dict()))
        loaded = instance_from_dict(json.loads(path.read_text()))
        npt.assert_array_equal(loaded.A, two_column.A)
        assert loaded.lam == two_column.lam

    @pytest.mark.parametrize("text, refusal", [
        ("[1.0, 2.0]", "instance file must contain a JSON object"),
        ('{"A": [[1.0]], "rho": 0.0}', r"instance file missing keys: \['lambda', 'y'\]"),
    ])
    def test_instance_file_refusals(self, tmp_path, text, refusal):
        path = tmp_path / "inst.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=refusal):
            load_instance(str(path))

    def test_sibling_shares_what_it_keeps(self):
        inst = random_instance(12, m=3, n=6, rho=0.3)
        probe = inst.with_params(lam=2.0)
        assert probe.A is inst.A and probe.y is inst.y and probe.r is inst.r and probe.b is inst.b
        assert probe.lam == 2.0 and inst.lam != 2.0
        assert probe.matrices is inst.matrices
        # an instance builds its matrices once, on construction; a sibling
        # shares them and builds none
        fresh = random_instance(12, m=3, n=6, rho=0.3)
        assert "matrices" in vars(fresh) and not hasattr(fresh, "_matrices")
        assert fresh.with_params(lam=1.0).matrices is fresh.matrices
        # a b passed in is copied, read-only, and checked
        b = np.arange(6.0)
        moved = inst.with_params(b=b, lam=0.5)
        b[0] = 99.0
        npt.assert_array_equal(moved.b, np.arange(6.0))
        npt.assert_array_equal(moved.y, [0.0, 1.0, 2.0])
        assert moved.A is inst.A and moved.matrices is inst.matrices and moved.lam == 0.5
        with pytest.raises(ValueError):
            moved.y[0] = 1.0
        for kwargs in (dict(b=np.ones(5)), dict(b=[np.nan] + [0.0] * 5), dict(lam=np.inf),
                       dict(lam=0.0)):
            with pytest.raises(ValueError):
                inst.with_params(**kwargs)

    def test_sibling_certifies_as_an_instance_built_anew(self):
        # check_opt at the segment midpoints of a descent: on a sibling it
        # is bitwise what it is on an instance built from copies of the data
        inst = random_instance(13, m=4, n=8, rho=0.3)
        lam_max = float(np.abs(inst.matrices.ct(inst.b)).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(8), -1.0)
        result = path_sweep(inst, line, zero_indicator(8), t_start=0.0)
        assert result.stop_reason == "lambda_terminus"
        for seg in result.segments:
            t = 0.5 * (seg.t_start + seg.t_end)
            b, lam = line.point_at(t)
            probe = inst.with_params(b=b, lam=lam)
            anew = ProblemInstance(A=inst.A.copy(), rho=inst.rho, y=b[:4].copy(),
                                   r=b[4:].copy(), lam=lam)
            got, want = check_opt(probe, seg.weq_at(t)), check_opt(anew, seg.weq_at(t))
            assert got.per_index == want.per_index and got.to_dict() == want.to_dict()


class TestIndicatorCodec:
    def test_roundtrip(self):
        s = indicator_from_string("+-0+")
        assert indicator_to_string(s) == "+-0+"
        npt.assert_array_equal(s, [1, -1, 0, 1])

    def test_support_sorted(self, two_column):
        piece = candidate_slope(two_column, indicator_from_string("0+0-"))
        npt.assert_array_equal(piece.support, [1, 3])

    def test_bad_character(self):
        with pytest.raises(ValueError):
            indicator_from_string("+x")

    @pytest.mark.parametrize(
        "bad",
        [[1, 2, 0, 0], [0, 0, -2, 1], [[1, 0], [0, -1]], [0.5, 0, 0, 1], [np.nan, 0, 0, 1],
         [True, False, True, False]],
    )
    @pytest.mark.parametrize(
        "entry",
        ["as_indicator", "candidate_slope", "zone_membership", "path_sweep",
         "indicator_to_string"],
    )
    def test_bad_indicator_rejected(self, two_column, entry, bad):
        # every public entry that takes an indicator rejects an entry
        # outside {-1, 0, +1}, a fraction, a NaN (before any cast could warn),
        # a 2-D array and a boolean support mask, which would read as signs
        line = ParameterLine(two_column.b, 3.0, np.zeros(2), -1.0)
        calls = {
            "as_indicator": as_indicator,
            "candidate_slope": lambda s: candidate_slope(two_column, s),
            "zone_membership": lambda s: zone_membership(two_column, s, two_column.b, 3.0),
            "path_sweep": lambda s: path_sweep(two_column, line, s, t_start=0.0),
            "indicator_to_string": indicator_to_string,
        }
        with pytest.raises(ValueError):
            calls[entry](np.array(bad))

    def test_indicators_are_int8(self, rand_4x8):
        # every indicator the API returns or stores is int8, 2n bytes, and a
        # valid int8 indicator passes as_indicator without a copy
        inst = rand_4x8
        s8 = np.array([1, -1, 0, 1], dtype=np.int8)
        assert as_indicator(s8) is s8
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        line = ParameterLine(inst.b, lam_max, np.zeros(2 * inst.m), -1.0)
        pieces = {}
        sweep = path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, pieces=pieces)
        assert sweep.pieces_updated > 0  # the memo holds pieces from next_piece
        graph = enumerate_zones(inst, EnumerationConfig(r_y=1.0, delta_lambda_min=0.5,
                                                        n_coverage=4))
        w = sweep.segments[-1].weq_at(sweep.segments[-1].t_start)
        indicators = {
            "as_indicator": as_indicator([1, 0, -1]),
            "as_indicator float": as_indicator(np.array([1.0, 0.0, -1.0])),
            "zero_indicator": zero_indicator(3),
            "indicator_from_string": indicator_from_string("+-0"),
            "encode_sopt": encode_sopt(inst, w),
            "initialize_indicator from_oracle":
                initialize_indicator(inst, inst.b, inst.lam, "from_oracle"),
            "CandidatePiece.s": candidate_slope(inst, np.ones(2 * inst.n, dtype=int)).s,
            "PathSegment.from_dict": PathSegment.from_dict(sweep.segments[-1].to_dict()).s,
        }
        indicators.update({f"PathSegment.s {k}": seg.s for k, seg in enumerate(sweep.segments)})
        indicators.update({f"memo {k}": piece.s for k, piece in enumerate(pieces.values())})
        indicators.update({f"ZoneGraph.nodes {key}": s for key, s in graph.nodes.items()})
        assert len(graph.nodes) > 1
        assert {name: s.dtype for name, s in indicators.items() if s.dtype != np.int8} == {}
