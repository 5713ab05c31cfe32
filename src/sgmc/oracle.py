"""Ground-truth solvers used to cross-check the closed forms.

The saddle solver (a proximal fixed-point iteration on the optimality
inclusion), the min-norm solver (which projects the origin onto the
equality+inequality system) and the LASSO reference (plain coordinate
descent) share no code with the candidate/sweep machinery.  Brute force,
which solves tiny instances outright by enumerating all 3^(2n) candidate
indicators, is independent of the sweep and the zone enumerator but not of
the closed forms: for each support size it takes the pseudo-inverses of all
supports from one batched `rank_cut`, the rule of `candidate_slope`, and
tests the zones of all their compatible sign patterns, at all samples, in
one evaluation.  Only its optimality check, `check_opt` on the dense C and
D, is independent of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .candidate import ZoneMargins, in_row_space, rank_cut
from .model import ProblemInstance, as_indicator, indicator_to_string
from .optimality import certificate_scale, check_opt, correlation, optimality_excess


class NonConvergenceError(RuntimeError):
    """Iterative solver ran out of iterations; carries the best iterate."""

    def __init__(self, message: str, w: np.ndarray | None = None, achieved: float = math.inf):
        super().__init__(f"{message} (achieved violation {achieved:.3e})")
        self.w = w
        self.achieved = achieved


STEP_SCALE = 0.9  # saddle step as a fraction of 1/||C^T D C||_2
MAX_DYKSTRA_CYCLES = 100000  # sweeps of the halfspace projection
BRUTE_FORCE_OPT_TOL = 1e-7  # check_opt violation (relative to S) a match may have


class InfeasibleSystemError(ValueError):
    """The equality system (or the full system) has no solution."""


@dataclass(frozen=True)
class OracleConfig:
    """Iteration budget and stopping tolerance of `solve_saddle`."""

    max_iters: int = 200000
    tol: float = 1e-9

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")


# an iterate of `solve_saddle` is read (its signs, its zone) at this slack
# relative to `certificate_scale`: ten times the default stop OracleConfig.tol
ORACLE_READ_TOL = 1e-8


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
    (`optimality_excess` at slack min(tol, 1e-9), relative to
    `certificate_scale`) on the xi(z) the step has formed, and returned
    once its worst excess is at most `config.tol`.  The test is
    scale-free: from w0 = 0, (alpha*b, alpha*lambda) runs the iterations of
    (b, lambda) scaled by alpha and stops at the same one.
    """
    cfg = config or OracleConfig()
    mats = inst.matrices
    G = mats.C.T @ (mats.D @ mats.C)
    h = mats.C.T @ inst.b
    lam = inst.lam
    L = np.linalg.norm(G, 2)
    w = np.zeros(2 * inst.n) if w0 is None else np.array(w0, dtype=float)
    check_tol = min(cfg.tol, 1e-9)
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


def min_norm_over_eqnq(
    inst: ProblemInstance,
    s: np.ndarray,
    tol: float = 1e-9,
) -> np.ndarray:
    """Minimum l2-norm element of the equality+inequality system of s at the
    instance's own (b, lambda).

    The equality system pins w to an affine set; parametrizing it by the null
    space of C_E^T D C_E reduces the problem to projecting the origin onto a
    small polyhedron, solved by Dykstra's method with a combined feasibility/
    fixed-point stopping rule at `tol`.  That rule and the halfspace
    tolerances, tol*(1 + lambda) in null-space coordinates, are the
    solver's own, not the optimality certificate's: the result is
    certified by `eqnq_membership`, on the scale of `certificate_scale`.
    """
    s = as_indicator(s)
    E = np.flatnonzero(s)
    mats = inst.matrices
    lam = inst.lam
    if E.size == 0:
        return np.zeros(2 * inst.n)
    CE = mats.C[:, E]
    M = CE.T @ mats.D @ CE
    d = CE.T @ inst.b - lam * s[E]
    # one SVD gives both the least-squares solution and the null space:
    # singular values at or below 1e-12 times the largest are dropped
    U, sigma, Vt = np.linalg.svd(M)
    rank = int(np.sum(sigma > 1e-12 * sigma[0]))
    w0_E = Vt[:rank].T @ ((U[:, :rank].T @ d) / sigma[:rank])
    eq_residual = float(np.abs(M @ w0_E - d).max())
    if eq_residual > 1e-8 * (1.0 + np.abs(d).max()):
        raise InfeasibleSystemError(
            f"equality system certified infeasible (residual {eq_residual:.3e})"
        )
    N = Vt[rank:].T  # orthonormal basis of the null space of M

    def embed(wE: np.ndarray) -> np.ndarray:
        w = np.zeros(2 * inst.n)
        w[E] = wE
        return w

    if N.shape[1] == 0:
        w = embed(w0_E)
        _assert_nq(inst, s, w, tol)
        return w

    # halfspaces in null-space coordinates y (w_E = w0_E + N y)
    halfspaces: list[tuple[np.ndarray, float]] = []
    for row, i in enumerate(E):
        g = -float(s[i]) * N[row]
        h = float(s[i]) * float(w0_E[row])
        if np.abs(g).max() > 0:
            halfspaces.append((g, h))
        elif h < -tol * (1.0 + lam):
            raise InfeasibleSystemError("sign constraint infeasible on the null space")
    xi0 = mats.C.T @ (inst.b - mats.D @ (CE @ w0_E))
    T = mats.C.T @ (mats.D @ (CE @ N))
    off = np.setdiff1d(np.arange(2 * inst.n), E)
    for i in off:
        for g, h in ((-T[i], lam - xi0[i]), (T[i], lam + xi0[i])):
            if np.abs(g).max() > 0:
                halfspaces.append((np.array(g), float(h)))
            elif h < -tol * (1.0 + lam):
                raise InfeasibleSystemError(
                    "correlation bound infeasible on the null space"
                )
    scaled_tol = tol * (1.0 + lam)
    y = _project_halfspaces(halfspaces, N.shape[1], scaled_tol)
    w = embed(w0_E + N @ y)
    _assert_nq(inst, s, w, tol)
    return w


def _assert_nq(inst: ProblemInstance, s: np.ndarray, w: np.ndarray, tol: float):
    from .candidate import eqnq_membership

    if not eqnq_membership(inst, s, w, tol=max(tol, 1e-7)):
        raise InfeasibleSystemError(
            "candidate system has no feasible point at these parameters"
        )


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
    """Cyclic coordinate-descent LASSO solver, stopped on the absolute KKT
    residual at `config.tol`: a reference for the LASSO criterion, with its
    own stop, not the sGMC certificate of `check_opt`."""
    cfg = config or LassoConfig()
    A = np.atleast_2d(np.asarray(A, dtype=float))
    y = np.ravel(y)
    n = A.shape[1]
    col_sq = np.einsum("ij,ij->j", A, A)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = y - A @ x
    for _ in range(cfg.max_iters):
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
        if _lasso_kkt_residual(A, x, r, lam) <= cfg.tol:
            return x
    achieved = _lasso_kkt_residual(A, x, y - A @ x, lam)
    if achieved <= cfg.tol:
        return x
    raise NonConvergenceError("coordinate descent did not converge", w=x, achieved=achieved)


def _lasso_kkt_residual(A: np.ndarray, x: np.ndarray, r: np.ndarray, lam: float) -> float:
    g = A.T @ r
    active = np.abs(x) > 1e-12
    excess = np.where(active, np.abs(g - lam * np.sign(x)), np.abs(g) - lam)
    return float(max(0.0, excess.max(initial=0.0)))


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
    passes `check_opt` there within BRUTE_FORCE_OPT_TOL.

    The zones are tested by support size k (`_zone_members`): the blocks
    M = C_E^T D C_E do not depend on the signs, so all supports of one size
    share one batched `rank_cut` and all their sign patterns one zone
    test at all samples.  Only the (indicator, sample) members of a zone
    go on to the optimality check, one at a time.

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

    per_sample: list[list[tuple[float, int, str]]] = [[] for _ in points]
    for k in range(2 * n + 1):
        for j, w, key in _zone_members(base, k, B, lams):
            b, lam = points[j]
            if check_opt(base, w, b=b, lam=lam).worst_violation <= BRUTE_FORCE_OPT_TOL:
                per_sample[j].append((float(np.linalg.norm(w)), k, key))

    for matched in per_sample:
        result.matches.append(sorted(key for *_rest, key in matched))
        if not matched:
            result.assignments.append(None)
            continue
        min_norm = min(norm for norm, *_ in matched)
        eligible = [
            entry for entry in matched if entry[0] <= min_norm + 1e-9 * (1.0 + min_norm)
        ]
        eligible.sort(key=lambda entry: (entry[1], entry[2]))
        chosen = eligible[0][2]
        result.assignments.append(chosen)
        result.indicators.add(chosen)
    return result


def _zone_members(
    base: ProblemInstance, k: int, B: np.ndarray, lams: np.ndarray
) -> list[tuple[int, np.ndarray, str]]:
    """(sample index, map value there, indicator string) for each sample,
    a column of `B` with its lambda in `lams`, that the zone of a
    compatible indicator with k support indices holds.

    One `rank_cut` of the C(2n, k) blocks of C^T D C, one compatibility
    product over all (support, sign pattern) pairs, and one evaluation of
    the maps and correlations of the compatible pairs at all samples.
    Its arrays, (pairs) x 2n x (samples) floats, are freed on return.
    """
    mats = base.matrices
    two_n = 2 * base.n
    G = mats.gram_block(np.arange(two_n))
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
    # forms them: pinv(M) C_E^T b - lambda pinv(M) s_E
    E, s_E = supports[of], signs[pattern]
    w_E = (cut.Minv @ mats.ct(B.T).T[supports])[of]
    w_E -= (cut.Minv @ signs.T)[of, :, pattern][..., None] * lams
    pairs = np.arange(of.size)
    S = np.zeros((two_n, of.size), dtype=int)
    S[E.T, pairs] = s_E.T
    W = np.zeros((two_n, of.size, len(lams)))  # index x pair x sample
    W[E.T, pairs] = w_E.transpose(1, 0, 2)
    xi = correlation(base, W.reshape(two_n, -1), b=np.tile(B, of.size))
    abs_xi = np.abs(xi, out=xi).reshape(W.shape)
    abs_xi[S != 0] = -np.inf  # the correlation bound holds off the support only
    margins = ZoneMargins(
        sign_margin=(s_E[..., None] * w_E).min(axis=1, initial=np.inf),
        corr_margin=lams - abs_xi.max(axis=0, initial=-np.inf),
    )
    return [
        (j, W[:, q, j].copy(), indicator_to_string(S[:, q]))
        for q, j in zip(*np.nonzero(margins.inside(lams)))
    ]
