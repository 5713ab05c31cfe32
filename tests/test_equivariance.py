"""Metamorphic tests: a transform of the data with a known effect on the
solution map must have that effect on each swept path.

Zones are cones, so scaling y (hence b and lambda_max) by alpha, or A by
c, multiplies every breakpoint of a lambda descent by that factor and keeps
its indicators.  Rotating the rows of (A, y, r) keeps the path; permuting
the columns of A, or flipping their signs, permutes or flips the primal and
dual halves of each indicator alike.  For the same reason zone membership
and the zone search depend only on the direction of (b, lambda), not on
its length, and the optimality certificate, which judges w against the
scale of (b, lambda), gives the same report for (alpha*b, alpha*lambda,
alpha*w) as for (b, lambda, w).
"""

import functools
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import sgmc.elars
from sgmc import (
    EnumerationConfig,
    InitializationError,
    OracleConfig,
    ParameterLine,
    ProblemInstance,
    brute_force_indicators,
    check_opt,
    encode_sopt,
    enumerate_zones,
    indicator_to_string,
    path_sweep,
    solve_saddle,
    zero_indicator,
    zone_membership,
)

SHAPE = (20, 40)
SEEDS = range(5)
RHOS = (0.0, 0.3, 0.8)
BREAK_RTOL = 1e-9  # breakpoints against the factor times the untransformed ones


def _data(seed):
    rng = np.random.default_rng(seed)
    m, n = SHAPE
    return rng.normal(size=(m, n)), rng.normal(size=m), np.zeros(m)


def _descent(A, y, r, rho):
    """Lambda descent from lambda_max at fixed b, to the lambda -> 0 terminus."""
    inst = ProblemInstance(A=A, rho=rho, y=y, r=r, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    line = ParameterLine(inst.b, lam_max, np.zeros(2 * inst.m), -1.0)
    return path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1000)


@functools.cache
def _base(seed, rho):
    return _descent(*_data(seed), rho)


def _transform(name, A, y, r, seed):
    """Transformed data, the factor of its breakpoints, and the order and
    signs that map an indicator of the data onto one of the transformed
    data: s -> s[order] * signs."""
    m, n = A.shape
    order, signs = np.arange(2 * n), np.ones(2 * n, dtype=int)
    if name.startswith("y*"):
        alpha = float(name[2:])
        return (A, y * alpha, r * alpha), alpha, order, signs
    if name.startswith("A*"):
        c = float(name[2:])
        return (A * c, y, r), c, order, signs
    if name == "rotate":
        Q, _ = np.linalg.qr(np.random.default_rng([seed, 1]).normal(size=(m, m)))
        return (Q @ A, Q @ y, Q @ r), 1.0, order, signs
    if name == "permute":
        perm = np.random.default_rng([seed, 2]).permutation(n)
        return (A[:, perm], y, r), 1.0, np.concatenate([perm, perm + n]), signs
    assert name == "flip"
    flips = np.where(np.random.default_rng([seed, 3]).random(n) < 0.5, -1, 1)
    return (A * flips, y, r), 1.0, order, np.concatenate([flips, flips])


TRANSFORMS = ["y*1e-8", "y*1e-6", "y*1e-4", "y*1e4", "y*1e6", "y*1e8",
              "A*1e-6", "A*1e6", "rotate", "permute", "flip"]


@pytest.mark.parametrize("rho", RHOS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", TRANSFORMS)
def test_descent_is_equivariant(name, seed, rho):
    base = _base(seed, rho)
    assert base.stop_reason == "lambda_terminus"
    data, factor, order, signs = _transform(name, *_data(seed), seed)
    result = _descent(*data, rho)
    assert result.stop_reason == base.stop_reason
    assert [(seg.s[order] * signs).tolist() for seg in base.segments] == [
        seg.s.tolist() for seg in result.segments
    ]
    npt.assert_allclose([seg.t_end for seg in result.segments],
                        [factor * seg.t_end for seg in base.segments], rtol=BREAK_RTOL)
    A, y, r = data
    inst = ProblemInstance(A=A, rho=rho, y=y, r=r, lam=1.0)
    for seg in result.segments:
        t = 0.5 * (seg.t_start + seg.t_end)
        probe = inst.with_params(b=result.line.b_at(t), lam=result.line.lam_at(t))
        assert check_opt(probe, seg.weq_at(t)).satisfied


def test_zone_rays_from_large_anchors_verify(monkeypatch):
    # a 2x3 instance whose zone graph anchors rays at |b| near 1e4: with a
    # window blind to the line's scale, four of its rays stopped unverified
    A = np.random.default_rng([3, 2]).normal(size=(2, 3))
    inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
    config = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, n_coverage=24, seed=2)
    stops = Counter()

    def sweep(*args, **kwargs):
        result = path_sweep(*args, **kwargs)
        stops[result.stop_reason] += 1
        return result

    monkeypatch.setattr(sgmc.elars, "path_sweep", sweep)
    graph = enumerate_zones(inst, config)
    assert sum(stops.values()) == graph.rays > 0
    assert stops["unverified_step"] == 0


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_zero_start_is_certified_at_every_scale(alpha):
    # the zero zone holds (b, lambda) iff max|c_i^T b| <= lambda, at every
    # scale: `path_sweep` accepts a descent's start at lambda_max, and
    # refuses one 1e-6 below it (an absolute slack of 1e-9 passed it at
    # alpha = 1e-8 and 1e-4)
    A, y, r = _data(0)
    inst = ProblemInstance(A=A, rho=0.3, y=y * alpha, r=r * alpha, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())

    def descent(lam):
        line = ParameterLine(inst.b, lam, np.zeros(2 * inst.m), -1.0)
        return path_sweep(inst, line, zero_indicator(inst.n), t_start=0.0, max_segments=1)

    assert not descent(lam_max).segments[0].s.any()
    with pytest.raises(InitializationError, match="leaves its zone before t_start"):
        descent(lam_max * (1 - 1e-6))


@pytest.mark.parametrize("factor", [1e-4, 1e4])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zone_search_ignores_the_scale_of_its_samples(seed, factor):
    # the instances of the `zones` benchmark, seeds 1-3, rounds 0-7: scaling
    # the coverage samples (r_y and delta_lambda_min together) scales each
    # sweep's segment from b = 0, so every node, edge, coverage flag and
    # counter stays as it is, and each edge witness, a point of a sweep,
    # scales by the factor
    for k in range(8):
        A = np.random.default_rng([seed, k]).normal(size=(2, 3))
        inst = ProblemInstance(A=A, rho=0.3, y=np.zeros(2), lam=1.0)
        base = EnumerationConfig(r_y=3.0, delta_lambda_min=0.3, n_coverage=24, seed=k)
        scaled = EnumerationConfig(r_y=3.0 * factor, delta_lambda_min=0.3 * factor,
                                   n_coverage=24, seed=k)
        graph = enumerate_zones(inst, base)
        other = enumerate_zones(inst, scaled)
        assert not graph.incomplete
        assert list(other.nodes) == list(graph.nodes)
        assert [e[:2] for e in other.edges] == [e[:2] for e in graph.edges]
        assert other.covered == graph.covered and other.incomplete == graph.incomplete
        assert other.to_dict()["counters"] == graph.to_dict()["counters"]
        for (*_, b, lam), (*_, b_s, lam_s) in zip(graph.edges, other.edges):
            npt.assert_allclose(np.append(b_s, lam_s), factor * np.append(b, lam),
                                rtol=1e-12, atol=0)


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 1.0, 1e4])
def test_zero_zone_membership_is_scale_free(alpha):
    # the zero zone holds (b, lambda) iff max|c_i^T b| <= lambda, at every
    # scale: lambda_max is inside and 0.99 lambda_max outside (an absolute
    # slack of 1e-9 took 0.99 lambda_max in at alpha = 1e-8)
    A, y, r = _data(0)
    inst = ProblemInstance(A=A, rho=0.3, y=y * alpha, r=r * alpha, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    s0 = zero_indicator(inst.n)
    assert zone_membership(inst, s0, inst.b, lam_max)
    assert not zone_membership(inst, s0, inst.b, 0.99 * lam_max)


def _scaled(alpha, rho=0.3):
    A, y, r = _data(0)
    return ProblemInstance(A=A, rho=rho, y=y * alpha, r=r * alpha, lam=1.0)


@pytest.mark.parametrize("alpha", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_certificate_rejects_a_wrong_point_at_every_scale(alpha):
    # w = 0 at lambda = 0.9 lambda_max misses the bound by 0.1 lambda_max;
    # an absolute slack reported 8.1e-9 for it at alpha = 1e-8, under the
    # 1e-7 its callers accept
    inst = _scaled(alpha)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    report = check_opt(inst.with_params(lam=0.9 * lam_max), np.zeros(2 * inst.n))
    unscaled = _scaled(1.0)
    lam_one = float(np.abs(unscaled.matrices.C.T @ unscaled.b).max())
    expected = check_opt(unscaled.with_params(lam=0.9 * lam_one), np.zeros(2 * inst.n))
    assert not report.satisfied
    assert report.worst_violation == pytest.approx(expected.worst_violation, rel=1e-6)
    assert report.worst_violation > 0.09


@pytest.mark.parametrize("alpha", [1e-8, 1e8])
def test_oracle_indicator_is_scale_free(alpha):
    # the saddle oracle stops on the certificate's scale, so its solution
    # encodes the unscaled indicator; an absolute stop ended too early at
    # alpha = 1e-8 and gave another one
    def indicator(inst):
        lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
        probe = inst.with_params(lam=0.3 * lam_max)
        return indicator_to_string(encode_sopt(probe, solve_saddle(probe)))

    assert indicator(_scaled(alpha)) == indicator(_scaled(1.0))


@pytest.mark.parametrize("alpha", [1e-8, 1e8])
def test_brute_force_assignments_are_scale_free(alpha):
    # on A = [B0, B0] twin supports have maps of nearly equal norm; scaling
    # the samples scales every norm, and ties by an absolute window of 1e-9
    # took real norm gaps for ties at alpha = 1e-8 (25 of these 48
    # assignments changed)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        B0 = rng.normal(size=(2, 2))
        A = np.hstack([B0, B0])
        samples = []
        for _ in range(12):
            u = rng.normal(size=2)
            samples.append((np.concatenate([3.0 * u / np.linalg.norm(u), np.zeros(2)]), 0.3))
        unscaled = brute_force_indicators(A, 0.3, samples)
        scaled = brute_force_indicators(A, 0.3, [(alpha * b, alpha * lam) for b, lam in samples])
        assert scaled.assignments == unscaled.assignments
        assert scaled.matches == unscaled.matches


def _oracle_at(c):
    """`solve_saddle` on a 4x8 Gaussian instance with A scaled by c, at
    lambda = 0.3 lambda_max, within 20000 iterations."""
    rng = np.random.default_rng(0)
    A, y = rng.normal(size=(4, 8)), rng.normal(size=4)
    inst = ProblemInstance(A=A * c, rho=0.3, y=y, lam=1.0)
    lam_max = float(np.abs(inst.matrices.C.T @ inst.b).max())
    return solve_saddle(inst.with_params(lam=0.3 * lam_max), OracleConfig(max_iters=20000))


@pytest.mark.parametrize("c", [1e-7, 1e-8, 1e-9, 1e-12, 1e-30])
def test_oracle_solves_at_every_scale_of_A(c):
    # scaling A by c scales the solution by 1/c; a step floored at 1e-12
    # stalled the solver short of it below c = 1e-7 (violation 3.8e-3 at
    # 1e-8, 0.63 at 1e-9)
    w = _oracle_at(1.0)
    npt.assert_allclose(c * _oracle_at(c), w, rtol=0, atol=1e-12 * np.abs(w).max())


def test_oracle_on_zero_data_matrix():
    # A = 0 leaves xi = C^T b = 0 for every w, and w = 0 solves it
    y = np.random.default_rng(0).normal(size=4)
    inst = ProblemInstance(A=np.zeros((4, 8)), rho=0.3, y=y, lam=1.0)
    npt.assert_array_equal(solve_saddle(inst, OracleConfig(max_iters=1)), np.zeros(16))
    npt.assert_array_equal(solve_saddle(inst, w0=np.ones(16)), np.zeros(16))
