"""Metamorphic tests: a transform of the data with a known effect on the
solution map must have that effect on each swept path.

Zones are cones, so scaling y (hence b and lambda_max) by alpha, or A by
c, multiplies every breakpoint of a lambda descent by that factor and keeps
its indicators.  Rotating the rows of (A, y, r) keeps the path; permuting
the columns of A, or flipping their signs, permutes or flips the primal and
dual halves of each indicator alike.
"""

import functools
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

import sgmc.elars
from sgmc import (
    EnumerationConfig,
    ParameterLine,
    ProblemInstance,
    enumerate_zones,
    path_sweep,
    zero_indicator,
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
