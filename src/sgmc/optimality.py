"""Saddle-point optimality checks and solution summaries.

The whole machinery revolves around the correlation vector

    xi(w) = C^T (b - D C w),

which plays the role the plain correlation A^T(y - Ax) plays for the LASSO:
w solves the model iff xi_i(w) = lambda * sign(w_i) on the support of w and
|xi_i(w)| <= lambda elsewhere.

The certificate of that condition is scale-free, as the solution map is:
scaling (b, lambda) by alpha > 0 scales w and xi by alpha and leaves the
verdict as it is.  An index counts as active when |w_i| > tol * ||w||_inf,
and its excess over the bound is measured relative to the scale
S = max(lambda, ||C^T b||_inf) (`certificate_scale`), the size of xi and of
its rounding.  `certificate_scale` and `optimality_excess` hold the
rule; `check_opt`, `encode_sopt`, `eqnq_membership`, the saddle oracle's
stopping test and its start (`initialize_indicator`), and brute force's
check of its zone members all judge by them, `check_opt` at the slack
`CERT_TOL`, `encode_sopt` at `ORACLE_READ_TOL`, and the cross-checks
(`eqnq_membership`, brute force, `sgmc verify`) at `CROSS_CHECK_TOL`.

The certificate lives here whole, on the dense C and D: `correlation`,
`certificate_scale`, `check_opt`, `encode_sopt` and `eqnq_membership`.
The closed forms (`candidate`, `sweep`) import none of it, so it shares
no code with the pieces it judges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, as_indicator, split_extended

CERT_TOL = 1e-9  # the certificate's slack, relative to `certificate_scale`
# an iterate of `solve_saddle` is read (its signs, its zone) at this slack,
# relative to `certificate_scale`: ten times the oracle's default stop
ORACLE_READ_TOL = 1e-8
CROSS_CHECK_TOL = 1e-7  # excess, relative to S, a check accepts in another routine's answer


def correlation(
    inst: ProblemInstance, w: np.ndarray, b: np.ndarray | None = None
) -> np.ndarray:
    """Correlation vector xi(w) = C^T (b - D C w), length 2n, at the
    instance's own b or at a probe b of the same (A, rho) family, so that
    probes need no instance (and no C, D) of their own.  A 2-D `w` holds k
    points as columns and gives k columns; `b` then holds their k
    observations as the columns of a (2m, k) array."""
    mats = inst.matrices
    w = np.asarray(w)
    if w.ndim != 2:
        w = np.ravel(w)
    if w.shape[0] != 2 * inst.n:
        raise ValueError(f"w has shape {w.shape}, expected ({2 * inst.n},)")
    b = inst.b if b is None else b
    residual = b - mats.D @ (mats.C @ w)
    return mats.C.T @ residual


@dataclass(frozen=True)
class OptReport:
    """Diagnostic report of the optimality condition.

    `per_index` holds the signed excess of every index over its bound,
    relative to the scale S of `certificate_scale` and less the slack
    CERT_TOL (negative means slack); `worst_violation` is its largest
    positive value, 0 when none is; `violations` lists the offending
    indices, NaN excesses among them.
    """

    satisfied: bool
    worst_violation: float
    per_index: tuple[float, ...]

    @property
    def violations(self) -> list[tuple[int, float]]:
        return [(i, e) for i, e in enumerate(self.per_index) if not e <= 0.0]

    def to_dict(self) -> dict:
        return {
            "satisfied": self.satisfied,
            "worst_violation": self.worst_violation,
            "violations": [{"index": i, "excess": e} for i, e in self.violations],
        }


def certificate_scale(inst: ProblemInstance) -> float:
    """S = max(lambda, ||C^T b||_inf) at the instance's own (b, lambda): the
    larger of lambda and lambda_max(b).  At a solution |xi| <= lambda, and
    xi = C^T b - C^T D C w is rounded on the scale of its terms, so S is the
    size of xi and of its rounding; it is homogeneous in (b, lambda).  Uses
    the dense C."""
    return max(inst.lam, float(np.abs(inst.matrices.C.T @ inst.b).max(initial=0.0)))


def optimality_excess(
    w: np.ndarray, xi: np.ndarray, lam: float, scale: float, tol: float
) -> np.ndarray:
    """Signed excess of each index over its optimality bound, relative to
    `scale` (`certificate_scale`), less the slack tol; <= 0 where the bound
    holds.  An index is active when |w_i| > tol * ||w||_inf and must have
    xi_i = lambda * sign(w_i); any other needs |xi_i| <= lambda.  A 2-D
    w and xi hold k points as columns, judged each by its own ||w||_inf,
    with `lam` and `scale` scalars or of length k.  A NaN in w or xi gives
    NaN excesses."""
    w_abs = np.abs(w)
    active = w_abs > tol * w_abs.max(axis=0, initial=0.0)
    raw = np.where(active, np.abs(xi - lam * np.sign(w)), np.abs(xi) - lam)
    return raw / scale - tol


def check_opt(inst: ProblemInstance, w: np.ndarray) -> OptReport:
    """Test the saddle optimality condition at the instance's own
    (b, lambda) with the scale-free rule of `optimality_excess` at slack
    CERT_TOL: `per_index` and `worst_violation` are excesses relative to
    S = max(lambda, ||C^T b||_inf) beyond CERT_TOL, so
    (alpha*b, alpha*lambda, alpha*w) gets the report of (b, lambda, w) for
    every alpha > 0.  Another point of the (A, rho) family is probed by an
    instance of its own, `inst.with_params(b=..., lam=...)`.
    """
    w = np.ravel(w)
    excess = optimality_excess(w, correlation(inst, w), inst.lam, certificate_scale(inst), CERT_TOL)
    worst = max(float(excess.max()), 0.0)  # NaN if any excess is NaN
    return OptReport(
        satisfied=bool(worst == 0.0),
        worst_violation=worst,
        per_index=tuple(excess.tolist()),
    )


def eqnq_membership(inst: ProblemInstance, s: np.ndarray, w: np.ndarray) -> bool:
    """Whether w, an answer another routine formed, solves the full
    equality+inequality system of s at the instance's own (b, lambda), at
    the cross-check slack CROSS_CHECK_TOL.  The conditions on xi hold
    within CROSS_CHECK_TOL * S, S = max(lambda, ||C^T b||_inf)
    (`certificate_scale`, the scale of `check_opt`), and those on w, the
    signs on the support and the zeros off it, within
    CROSS_CHECK_TOL * ||w||_inf, so (alpha*b, alpha*lambda, alpha*w) gets
    the answer of (b, lambda, w) for every alpha > 0; a NaN fails every
    condition."""
    s = as_indicator(s)
    w = np.ravel(w)
    lam = inst.lam
    xi_slack = CROSS_CHECK_TOL * certificate_scale(inst)
    w_slack = CROSS_CHECK_TOL * np.abs(w).max(initial=0.0)
    E = np.flatnonzero(s)
    mask = np.zeros(s.size, dtype=bool)
    mask[E] = True
    xi = correlation(inst, w)
    if E.size:
        if not np.abs(xi[E] - lam * s[E]).max() <= xi_slack:  # EQ on the support
            return False
        if not (s[E] * w[E]).min() >= -w_slack:  # NQ signs on the support
            return False
    off = ~mask
    if off.any():
        if not np.abs(w[off]).max() <= w_slack:  # EQ zeros off the support
            return False
        if not np.abs(xi[off]).max() <= lam + xi_slack:  # NQ bound off the support
            return False
    return True


def encode_sopt(inst: ProblemInstance, w: np.ndarray) -> np.ndarray:
    """Equicorrelation signs of w, an int8 indicator: sign(xi_i) where
    |xi_i| attains lambda within ORACLE_READ_TOL * S (`certificate_scale`),
    zero elsewhere: the reading of an oracle iterate that
    `initialize_indicator` certifies."""
    xi = correlation(inst, w)
    at_bound = np.abs(np.abs(xi) - inst.lam) <= ORACLE_READ_TOL * certificate_scale(inst)
    return np.where(at_bound, np.sign(xi), 0.0).astype(np.int8)


@dataclass(frozen=True)
class SolutionSummary:
    """Quantities shared by every solution of one instance: the stacked fit
    beta_e = C w = [A x; sqrt(rho) A z] and the common l1-norm
    gamma_e = ||w||_1."""

    beta_e: np.ndarray
    gamma_e: float


def summarize(inst: ProblemInstance, w: np.ndarray) -> SolutionSummary:
    return SolutionSummary(beta_e=inst.matrices.C @ np.ravel(w), gamma_e=float(np.abs(w).sum()))


def l1_bound_holds(inst: ProblemInstance, w: np.ndarray) -> bool:
    """Whether max(||x||_1, ||z||_1) respects the a-priori bound
    ||y||^2 / (2 lambda (1-rho)) + ||r||^2 / (2 lambda)."""
    x, z = split_extended(w)
    bound = np.dot(inst.y, inst.y) / (2.0 * inst.lam * (1.0 - inst.rho)) + np.dot(
        inst.r, inst.r
    ) / (2.0 * inst.lam)
    lhs = max(np.abs(x).sum(), np.abs(z).sum())
    # tiny absolute slack absorbs roundoff in the comparison itself
    return bool(lhs <= bound + 1e-12 * (1.0 + bound))
