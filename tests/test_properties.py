"""Hypothesis property tests for the pure numeric kernels."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sgmc import (
    ProblemInstance,
    candidate_slope,
    correlation,
    encode_sopt,
)
from sgmc.candidate import PINV_RTOL, IncompatibleIndicatorError, eval_weq
from sgmc.model import build_model_matrices
from sgmc.sweep import f_tmax

from conftest import saddle_objective

FINITE = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
SLOPE = st.one_of(st.just(0.0), st.floats(1e-6, 5.0), st.floats(-5.0, -1e-6))


def small_instance(draw, with_r=True):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    A = draw(arrays(float, (m, n), elements=FINITE))
    y = draw(arrays(float, (m,), elements=FINITE))
    r = draw(arrays(float, (m,), elements=FINITE)) if with_r else np.zeros(m)
    rho = draw(st.sampled_from([0.0, 0.25, 0.6]))
    lam = draw(st.floats(0.2, 3.0))
    return ProblemInstance(A=A, rho=rho, y=y, r=r, lam=lam)


instances = st.composite(small_instance)


@given(SLOPE, st.floats(-5, 5, allow_subnormal=False))
def test_f_tmax_definition(k, c):
    sup = f_tmax(k, c)
    # every t strictly below sup is feasible, everything above is not
    if math.isfinite(sup):
        assert k > 0
        assert k * (sup - 1e-6) <= c + 1e-12
        assert k * (sup + 1e-3) > c - 1e-9
    elif sup == math.inf:
        assert k <= 0
    else:
        assert k == 0 and c < 0


@given(st.floats(0.01, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_f_tmax_monotone_in_bound(k, c1, c2):
    lo, hi = sorted((c1, c2))
    assert f_tmax(k, lo) <= f_tmax(k, hi)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_matrices_block_structure(inst):
    mats = build_model_matrices(inst)
    m, n = inst.m, inst.n
    npt.assert_array_equal(mats.C[:m, :n], inst.A)
    npt.assert_array_equal(mats.C[m:, n:], np.sqrt(inst.rho) * inst.A)
    assert np.abs(mats.C[:m, n:]).max(initial=0.0) == 0.0
    assert np.abs(mats.C[m:, :n]).max(initial=0.0) == 0.0
    # D restores the identity at rho = 0 and is never symmetric otherwise
    if inst.rho == 0.0:
        npt.assert_array_equal(mats.D, np.eye(2 * m))


@given(instances())
@settings(max_examples=60, deadline=None)
def test_objective_at_origin(inst):
    val = saddle_objective(inst, np.zeros(inst.n), np.zeros(inst.n))
    assert val == float(0.5 * np.dot(inst.y, inst.y))


@given(instances())
@settings(max_examples=60, deadline=None)
def test_correlation_is_linear_in_w(inst):
    rng = np.random.default_rng(0)
    w1 = rng.normal(size=2 * inst.n)
    w2 = rng.normal(size=2 * inst.n)
    lhs = correlation(inst, w1 + w2)
    rhs = correlation(inst, w1) + correlation(inst, w2) - correlation(inst, np.zeros(2 * inst.n))
    npt.assert_allclose(lhs, rhs, atol=1e-9)


@given(instances())
@settings(max_examples=60, deadline=None)
def test_encode_sopt_entries_match_bound(inst):
    rng = np.random.default_rng(1)
    w = rng.normal(size=2 * inst.n)
    s = encode_sopt(inst, w)
    xi = correlation(inst, w)
    for i, v in enumerate(s):
        if v != 0:
            assert abs(abs(xi[i]) - inst.lam) <= 1e-9 * (1 + inst.lam) + 1e-12
            assert v == np.sign(xi[i])


# c of the forward-error bound below; 12 000 draws of the strategy gave at
# most 3
HOMOGENEITY_C = 16


def forward_error_bound(piece, w):
    """Rounding error the map of a compatible `piece` may carry at a point
    where it is `w`: the perturbation bound of the min-norm least-squares
    solve pinv(M) r (Golub & Van Loan, Matrix Computations, section
    5.3.8), c * eps * kappa * ||w||_inf, with kappa over the singular
    values of M that the rank cut keeps and c = HOMOGENEITY_C.  The
    right-hand side C_E^T b - lambda s_E lies in the range of M, as the
    piece is compatible, so the bound has no term for a part outside it.
    c covers the few roundings of each entry on the way: the scaled data,
    the reference, the products with pinv(M) and the refinement step."""
    sv = np.linalg.svd(piece.M, compute_uv=False)
    kept = sv[sv > PINV_RTOL * sv.max(initial=0.0)]
    if not kept.size:
        return 0.0
    kappa = kept.max() / kept.min()
    return HOMOGENEITY_C * np.finfo(float).eps * kappa * np.abs(w).max()


@given(instances(), st.floats(0.25, 4.0), st.floats(0.25, 4.0))
@example(  # kept singular values 5 and 7.4e-10: error 1.8e-7 relative
    ProblemInstance(A=[[1.0, 2.0, 0.0], [0.0, 6.1e-5, 0.0]], rho=0.0, y=[0.0, 0.0], lam=1.0),
    0.72, 1.97,
)
@example(  # s = [1, -1, -1, -1] is incompatible: refused, not ~6e59 of rounding
    ProblemInstance(A=[[1.18e-38, 1.18e-38]], rho=0.0, y=[0.0], lam=1.0), 1.0, 1.14,
)
@settings(max_examples=60, deadline=None)
def test_eval_weq_homogeneous(inst, theta1, theta2):
    # eval_weq is linear in (b, lambda) up to the rounding of its solve,
    # and refuses an incompatible piece, which has no map
    rng = np.random.default_rng(2)
    s = rng.integers(-1, 2, size=2 * inst.n)
    try:
        piece = candidate_slope(inst, s)
    except ValueError:
        # refused where the leading singular value of M = C_E^T D C_E, which
        # is at least 0.4 max|C_E|^2 at rho <= 0.6, is below GRAM_TINY: only
        # tiny data are refused
        assert np.abs(inst.matrices.C[:, np.flatnonzero(s)]).max() < 1e-147
        return
    b = rng.normal(size=2 * inst.m)
    lam = 1.0
    if not piece.compatible:
        for theta in (1.0, theta1, theta1 + theta2):
            with pytest.raises(IncompatibleIndicatorError):
                eval_weq(piece, theta * b, theta * lam)
        return
    base = eval_weq(piece, b, lam)
    for theta in (theta1, theta1 + theta2):
        want = theta * base
        npt.assert_allclose(eval_weq(piece, theta * b, theta * lam), want, rtol=0,
                            atol=forward_error_bound(piece, want))
