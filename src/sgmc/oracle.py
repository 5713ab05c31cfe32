"""Ground-truth solvers used to cross-check the closed forms.

The saddle solver (a proximal fixed-point iteration on the optimality
inclusion), the min-norm solver (which projects the origin onto the
equality+inequality system) and the LASSO reference (coordinate descent
with a null-space step) share no code with the candidate/sweep
machinery.  Brute force, which solves tiny instances outright by
enumerating all 3^(2n) candidate indicators, is independent of the sweep
and the zone enumerator but not of the closed forms: for each support
size it takes the pseudo-inverses of all supports from one batched
`rank_cut`, the rule of `candidate_slope`, and tests the zones of all
their compatible sign patterns, at all samples, in one evaluation, each
by `in_zone` on its worst margin as `zone_membership` tests one.  Its
correlations come from the dense C and D (`optimality.correlation`), not
from the block operators the zone tests apply, and its optimality check,
`check_opt`'s rule on them, is independent of the closed forms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .candidate import in_row_space, in_zone, rank_cut
from .model import ProblemInstance, as_indicator, indicator_to_string
from .optimality import (CERT_TOL, CROSS_CHECK_TOL, certificate_scale, correlation,
                         eqnq_membership, optimality_excess)


class NonConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the best iterate."""

    def __init__(self, message: str, w: np.ndarray | None = None, achieved: float = math.inf):
        super().__init__(f"{message} (achieved violation {achieved:.3e})")
        self.w = w
        self.achieved = achieved


STEP_SCALE = 0.9  # saddle step as a fraction of 1/||C^T D C||_2
NULL_STEP_SWEEPS = 10  # coordinate-descent sweeps between null-space steps
MAX_DYKSTRA_CYCLES = 100000  # sweeps of the halfspace projection


class InfeasibleSystemError(ValueError):
    """The equality system (or the full system) has no solution."""


@dataclass(frozen=True)
class OracleConfig:
    """Iteration budget and stopping tolerance of `solve_saddle`, by
    default the certificate's slack CERT_TOL."""

    max_iters: int = 200000
    tol: float = CERT_TOL

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


def _soft(v: np.ndarray, thresh: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - thresh, 0.0)


def solve_saddle(
    inst: ProblemInstance,
    config: OracleConfig | None = None,
    w0: np.ndarray | None = None,
) -> np.ndarray:
    """Extended solution by a forward-backward-forward fixed-point iteration
    on the optimality inclusion  C^T(b - D C w) in lambda * d||.||_1(w):

        z   = soft(w + tau * xi(w), tau * lambda)
        w^+ = z - tau * (xi(w) - xi(z))

    The forward operator is monotone but not cocoercive (D is nonsymmetric),
    so the correction step is what guarantees convergence at a fixed step
    below 1/||C^T D C||_2; the plain forward-backward map can cycle for rho
    near 1.  The step is STEP_SCALE / ||C^T D C||_2, from the exact spectral
    norm with no floor, so scaling A by alpha scales the iterates by
    1/alpha; at norm 0, xi = C^T b for every w and only w = 0 is judged.
    Warm-startable through w0.

    Every 10 iterations the iterate z is judged by `check_opt`'s rule
    (`optimality_excess` at slack min(tol, CERT_TOL), relative to
    `certificate_scale`) on the xi(z) the step has formed, and returned
    once its worst excess is at most `config.tol`.  The test is
    scale-free: from w0 = 0, (alpha*b, alpha*lambda) runs the iterations of
    (b, lambda) scaled by alpha and stops at the same one.  Callers read
    the iterate's signs at `optimality.ORACLE_READ_TOL`, ten times the
    default stop.
    """
    cfg = config or OracleConfig()
    mats = inst.matrices
    G = mats.C.T @ (mats.D @ mats.C)
    h = mats.C.T @ inst.b
    lam = inst.lam
    L = np.linalg.norm(G, 2)
    w = np.zeros(2 * inst.n) if w0 is None else np.array(w0, dtype=float)
    check_tol = min(cfg.tol, CERT_TOL)
    scale = certificate_scale(inst)

    if L == 0.0:  # xi = h whatever w is, so w = 0 solves it if anything does
        z = np.zeros(2 * inst.n)
    else:
        tau = STEP_SCALE / L
        for it in range(cfg.max_iters):
            xi_w = h - G @ w
            z = _soft(w + tau * xi_w, tau * lam)
            xi_z = h - G @ z
            w = z - tau * (xi_w - xi_z)
            if it % 10 == 0:
                if np.max(optimality_excess(z, xi_z, lam, scale, check_tol)) <= cfg.tol:
                    return z
        z = _soft(w + tau * (h - G @ w), tau * lam)
    worst = float(np.max(optimality_excess(z, h - G @ z, lam, scale, check_tol)))
    if worst <= cfg.tol:
        return z
    raise NonConvergenceError("saddle solver did not converge", w=z, achieved=worst)


def _project_halfspaces(
    halfspaces: list[tuple[np.ndarray, float]],
    dim: int,
    tol: float,
) -> np.ndarray:
    """Project the origin onto the intersection of halfspaces {g.y <= h}
    with at most MAX_DYKSTRA_CYCLES sweeps of Dykstra's alternating
    corrections.

    An empty intersection makes the worst violation plateau at a positive
    gap; that plateau is reported as infeasibility.
    """
    y = np.zeros(dim)
    corrections = [np.zeros(dim) for _ in halfspaces]
    worst = math.inf
    best = math.inf
    stalled = 0
    for _ in range(MAX_DYKSTRA_CYCLES):
        shift = 0.0
        for k, (g, h) in enumerate(halfspaces):
            y_in = y + corrections[k]
            overshoot = float(g @ y_in - h)
            if overshoot > 0.0:
                y_out = y_in - overshoot / float(g @ g) * g
            else:
                y_out = y_in
            corrections[k] = y_in - y_out
            shift = max(shift, float(np.abs(y_out - y).max(initial=0.0)))
            y = y_out
        worst = max(
            (float(g @ y - h) for g, h in halfspaces), default=0.0
        )
        if shift <= tol and worst <= tol:
            return y
        if worst < 0.99 * best:
            best = worst
            stalled = 0
        else:
            stalled += 1
            if stalled >= 500 and worst > 100.0 * tol:
                raise InfeasibleSystemError(
                    f"constraint system appears empty (gap plateau {worst:.3e})"
                )
    raise NonConvergenceError("halfspace projection did not converge", achieved=worst)


def min_norm_over_eqnq(inst: ProblemInstance, s: np.ndarray) -> np.ndarray:
    """Minimum l2-norm element of the equality+inequality system of s at the
    instance's own (b, lambda).

    The equality system pins w to an affine set, taken through its
    least-squares solution; parametrizing it by the null space N of
    C_E^T D C_E reduces the problem to projecting the origin onto the |E|
    sign halfspaces in null-space coordinates, solved by Dykstra's method
    with a combined feasibility/fixed-point stopping rule at
    1e-9*(1 + lambda).  Off the support xi is constant on that set
    (C_E N = 0), so the correlation bounds, like every other condition,
    the equalities included, are judged once, on the result, by
    `eqnq_membership` at its slack CROSS_CHECK_TOL on the scale of
    `certificate_scale`; a result that fails it, as the least-squares
    point of an inconsistent equality system does, raises
    InfeasibleSystemError.  Answers at breakpoints, where those constant
    correlations sit on their bound, as in the interior of a zone.  The
    zero indicator's system has the one element w = 0, judged alike.
    """
    s = as_indicator(s)
    E = np.flatnonzero(s)
    mats = inst.matrices
    w = np.zeros(2 * inst.n)
    if E.size:
        CE = mats.C[:, E]
        M = CE.T @ mats.D @ CE
        d = CE.T @ inst.b - inst.lam * s[E]
        # one SVD gives both the least-squares solution and the null space:
        # singular values at or below 1e-12 times the largest are dropped
        U, sigma, Vt = np.linalg.svd(M)
        rank = int(np.sum(sigma > 1e-12 * sigma[0]))
        w0_E = Vt[:rank].T @ ((U[:, :rank].T @ d) / sigma[:rank])
        N = Vt[rank:].T  # orthonormal basis of the null space of M
        # sign halfspaces -s_i N_i . y <= s_i w0_i in null-space coordinates y
        # (w_E = w0_E + N y); a row of N that vanishes leaves w_i to the check
        halfspaces = [
            (-s[i] * N[row], float(s[i] * w0_E[row]))
            for row, i in enumerate(E)
            if np.abs(N[row]).max(initial=0.0) > 0
        ]
        y = _project_halfspaces(halfspaces, N.shape[1], 1e-9 * (1.0 + inst.lam))
        w[E] = w0_E + N @ y
    if not eqnq_membership(inst, s, w):
        raise InfeasibleSystemError(
            "candidate system has no feasible point at these parameters"
        )
    return w


@dataclass(frozen=True)
class LassoConfig:
    max_iters: int = 20000
    tol: float = 1e-9


def lasso_reference(
    A: np.ndarray,
    y: np.ndarray,
    lam: float,
    config: LassoConfig | None = None,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Cyclic coordinate-descent LASSO solver, stopped once the KKT excess
    of every index, relative to S = max(lambda, ||A^T y||_inf), is within
    `config.tol` by the rule of `optimality_excess` (x_i active at
    |x_i| > tol * ||x||_inf), so (alpha*y, alpha*lambda) gets alpha times
    the answer for every alpha > 0: a reference for the LASSO criterion,
    with its own stop, not the sGMC certificate of `check_opt`.  Where
    A_S, S the support, has a null direction the objective is flat along
    it and coordinate descent crawls; so every NULL_STEP_SWEEPS sweeps
    `_null_step` moves along it at once."""
    cfg = config or LassoConfig()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    y = np.ravel(y)
    n = A.shape[1]
    col_sq = np.einsum("ij,ij->j", A, A)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = y - A @ x
    # S = 0 has the answer 0, which any positive scale judges
    scale = max(lam, float(np.abs(A.T @ y).max(initial=0.0))) or 1.0
    for sweep in range(cfg.max_iters):
        for j in range(n):
            if col_sq[j] == 0.0:
                x[j] = 0.0
                continue
            old = x[j]
            rho_j = A[:, j] @ r + col_sq[j] * old
            new = math.copysign(max(abs(rho_j) - lam, 0.0), rho_j) / col_sq[j]
            if new != old:
                r += A[:, j] * (old - new)
                x[j] = new
        if _lasso_excess(A, x, r, lam, scale, cfg.tol) <= 0.0:
            return x
        if sweep % NULL_STEP_SWEEPS == NULL_STEP_SWEEPS - 1 and _null_step(A, x):
            r = y - A @ x
    excess = _lasso_excess(A, x, y - A @ x, lam, scale, cfg.tol)
    if excess <= 0.0:
        return x
    raise NonConvergenceError("coordinate descent did not converge", w=x,
                              achieved=excess + cfg.tol)


def _null_step(A: np.ndarray, x: np.ndarray) -> bool:
    """Whether x was moved, in place, along a direction d in null(A_S), S
    its support, to the first entry that reaches zero, set to exactly 0:
    the fit A x is kept, and ||x||_1 does not grow (sign(x_S) . d <= 0)."""
    S = np.flatnonzero(x)
    if S.size <= np.linalg.matrix_rank(A[:, S]):
        return False
    d = np.linalg.svd(A[:, S])[2][-1]
    if np.sign(x[S]) @ d > 0:
        d = -d
    reach = np.divide(-x[S], d, out=np.full(S.size, np.inf), where=x[S] * d < 0)
    k = int(np.argmin(reach))
    x[S] += reach[k] * d
    x[S[k]] = 0.0
    return True


def _lasso_excess(A: np.ndarray, x: np.ndarray, r: np.ndarray, lam: float,
                  scale: float, tol: float) -> float:
    """Worst LASSO KKT excess of x, r = y - A x, relative to `scale` and
    less the slack tol (`optimality_excess`): <= 0 where x solves the LASSO
    within tol; NaN if x or r holds a NaN."""
    return float(optimality_excess(x, A.T @ r, lam, scale, tol).max(initial=-tol))


# -- exhaustive enumeration for tiny instances --------------------------------

@dataclass
class BruteForceResult:
    """Per-sample min-norm indicator assignments over all 3^(2n) candidates.

    `indicators` is the union of assigned indicator strings; `assignments`
    maps each sample to its assigned string (None when nothing matched);
    `matches` lists every indicator whose zone contains the sample and whose
    candidate map satisfies optimality there.
    """

    indicators: set[str] = field(default_factory=set)
    assignments: list[str | None] = field(default_factory=list)
    matches: list[list[str]] = field(default_factory=list)


def brute_force_indicators(
    A: np.ndarray,
    rho: float,
    samples: list[tuple[np.ndarray, float]],
) -> BruteForceResult:
    """Enumerate every candidate indicator of a (A, rho) family and assign to
    each sample the matching indicator whose candidate solution has minimal
    l2-norm (ties broken by smaller support, then lexicographic string).  A
    candidate matches a sample when its zone holds the sample and its map
    passes `check_opt`'s rule there within CROSS_CHECK_TOL.  Norms tie
    within a relative 1e-9 of the least, so (alpha*b, alpha*lambda) gets
    the assignment of (b, lambda).

    The zones are tested by support size k (`_zone_members`): the blocks
    M = C_E^T D C_E do not depend on the signs, so all supports of one size
    share one batched `rank_cut` and all their sign patterns one zone
    test at all samples.  Only the (indicator, sample) members of a zone
    go on to the optimality check, all at once, on the maps and
    correlations the zone test formed.

    Guarded to 2n <= 10 (3^10 = 59049 candidates).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    if 2 * n > 10:
        raise ValueError(f"size guard exceeded: 2n = {2 * n} > 10")
    base = ProblemInstance(A=A, rho=rho, y=np.zeros(m), lam=1.0)
    result = BruteForceResult()
    if not samples:
        return result
    points = [(np.ravel(b), lam) for b, lam in samples]
    B = np.column_stack([b for b, _ in points])
    lams = np.array([lam for _, lam in points], dtype=float)

    # formed once for every support size: C^T D C, C^T b at each sample,
    # and each sample's `certificate_scale` from the dense C
    mats = base.matrices
    G = mats.gram_block(np.arange(2 * n))
    ctb = mats.ct(B.T).T
    scale = np.maximum(lams, np.abs(mats.C.T @ B).max(axis=0))
    per_sample: list[list[tuple[float, int, str]]] = [[] for _ in points]
    for k in range(2 * n + 1):
        for j, norm, key in _zone_members(base, k, B, lams, G, ctb, scale):
            per_sample[j].append((norm, k, key))

    for matched in per_sample:
        result.matches.append(sorted(key for *_rest, key in matched))
        if not matched:
            result.assignments.append(None)
            continue
        min_norm = min(norm for norm, *_ in matched)
        eligible = [entry for entry in matched if entry[0] <= min_norm * (1.0 + 1e-9)]
        eligible.sort(key=lambda entry: (entry[1], entry[2]))
        chosen = eligible[0][2]
        result.assignments.append(chosen)
        result.indicators.add(chosen)
    return result


def _zone_members(
    base: ProblemInstance, k: int, B: np.ndarray, lams: np.ndarray,
    G: np.ndarray, ctb: np.ndarray, scale: np.ndarray,
) -> list[tuple[int, float, str]]:
    """(sample index, map norm there, indicator string) for each sample,
    a column of `B` with its lambda in `lams`, that the zone of a
    compatible indicator with k support indices holds and at which its map
    passes `check_opt`'s rule within CROSS_CHECK_TOL.  `G` is C^T D C,
    `ctb` holds C^T b and `scale` the `certificate_scale` of each sample,
    all shared by every k.

    One `rank_cut` of the C(2n, k) blocks of C^T D C, one compatibility
    product over all (support, sign pattern) pairs, and one evaluation of
    the maps of the compatible pairs at all samples.  The sign half of
    each zone, s_i w_i on the support, is judged on those maps alone by
    `in_zone`; the correlations are formed only for the (pair, sample)
    cells that pass it, in one product, and the worst margin of the cell,
    with its off-support bounds, judged by the same `in_zone`.  The members'
    maps and correlations are then judged by `optimality_excess`, as
    `check_opt` judges one point.  Its arrays, at most (pairs) x k x
    (samples) floats for the maps and 2n x (cells) for the rest, are freed
    on return.
    """
    mats = base.matrices
    two_n = 2 * base.n
    combos = list(itertools.combinations(range(two_n), k))
    supports = np.array(combos, dtype=int).reshape(len(combos), k)
    patterns = list(itertools.product((1, -1), repeat=k))
    signs = np.array(patterns, dtype=int).reshape(len(patterns), k)
    cut = rank_cut(
        G[supports[:, :, None], supports[:, None, :]],
        mats.col_abs_sums[supports].any(axis=1),
    )
    of, pattern = np.nonzero(in_row_space(signs, cut.null))
    if not of.size:
        return []
    # the compatible pairs' maps at every sample, as `CandidatePiece.apply`
    # forms them before its refinement step: pinv(M) C_E^T b - lambda pinv(M) s_E
    E, s_E = supports[of], signs[pattern]
    w_E = (cut.Minv @ ctb[supports])[of]
    w_E -= (cut.Minv @ signs.T)[of, :, pattern][..., None] * lams
    sign_margin = (s_E[..., None] * w_E).min(axis=1, initial=np.inf)
    q, j = np.nonzero(in_zone(sign_margin, lams))
    # the cells that pass, as columns: their signs S, maps W and
    # correlations xi, and the off-support bounds on xi
    S = np.zeros((two_n, q.size), dtype=np.int8)
    W = np.zeros((two_n, q.size))
    at = E[q].T, np.arange(q.size)
    S[at] = s_E[q].T
    W[at] = w_E[q, :, j].T
    xi = correlation(base, W, b=B[:, j])
    off = S == 0  # the correlation bound holds off the support only
    lams = lams[j]
    margin = np.minimum(
        sign_margin[q, j], lams - np.abs(xi).max(axis=0, where=off, initial=-np.inf)
    )
    inside = in_zone(margin, lams)
    # `check_opt`'s rule on the members, at the `certificate_scale` of
    # each member's sample
    S, W, xi, lams, j = S[:, inside], W[:, inside], xi[:, inside], lams[inside], j[inside]
    excess = optimality_excess(W, xi, lams, scale[j], CERT_TOL).max(axis=0)
    norms = np.linalg.norm(W, axis=0)
    return [
        (int(j[r]), float(norms[r]), indicator_to_string(S[:, r]))
        for r in np.flatnonzero(excess <= CROSS_CHECK_TOL)
    ]
