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
stopping test and its start (`initialize_indicator`) all judge by them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, as_indicator, split_extended


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
    relative to the scale S of `certificate_scale` and less the slack tol
    (negative means slack); `worst_violation` is its largest positive
    value, 0 when none is; `violations` lists the offending indices, NaN
    excesses among them.
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


def certificate_scale(
    inst: ProblemInstance, b: np.ndarray | None = None, lam: float | None = None
) -> float:
    """S = max(lambda, ||C^T b||_inf) at the instance's own (b, lambda) or
    at a probe of its (A, rho) family: the larger of lambda and
    lambda_max(b).  At a solution |xi| <= lambda, and xi = C^T b - C^T D C w
    is rounded on the scale of its terms, so S is the size of xi and of its
    rounding; it is homogeneous in (b, lambda).  Uses the dense C."""
    b = inst.b if b is None else b
    lam = inst.lam if lam is None else lam
    return max(lam, float(np.abs(inst.matrices.C.T @ b).max(initial=0.0)))


def optimality_excess(
    w: np.ndarray, xi: np.ndarray, lam: float, scale: float, tol: float
) -> np.ndarray:
    """Signed excess of each index over its optimality bound, relative to
    `scale` (`certificate_scale`), less the slack tol; <= 0 where the bound
    holds.  An index is active when |w_i| > tol * ||w||_inf and must have
    xi_i = lambda * sign(w_i); any other needs |xi_i| <= lambda.  A NaN in
    w or xi gives NaN excesses."""
    w_abs = np.abs(w)
    active = w_abs > tol * w_abs.max(initial=0.0)
    raw = np.where(active, np.abs(xi - lam * np.sign(w)), np.abs(xi) - lam)
    return raw / scale - tol


def check_opt(
    inst: ProblemInstance,
    w: np.ndarray,
    tol: float = 1e-9,
    b: np.ndarray | None = None,
    lam: float | None = None,
) -> OptReport:
    """Test the saddle optimality condition with the scale-free rule of
    `optimality_excess`: `per_index` and `worst_violation` are excesses
    relative to S = max(lambda, ||C^T b||_inf) beyond the slack tol, so
    (alpha*b, alpha*lambda, alpha*w) gets the report of (b, lambda, w) for
    every alpha > 0.  `b` and `lam` probe another point of the instance's
    (A, rho) family instead of its own (b, lambda).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    lam = inst.lam if lam is None else lam
    w = np.ravel(w)
    excess = optimality_excess(
        w, correlation(inst, w, b=b), lam, certificate_scale(inst, b, lam), tol
    )
    worst = max(float(excess.max()), 0.0)  # NaN if any excess is NaN
    return OptReport(
        satisfied=bool(worst == 0.0),
        worst_violation=worst,
        per_index=tuple(excess.tolist()),
    )


def encode_sopt(inst: ProblemInstance, w: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Equicorrelation signs of w: sign(xi_i) where |xi_i| attains lambda
    within tol * S (`certificate_scale`), zero elsewhere."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    xi = correlation(inst, w)
    at_bound = np.abs(np.abs(xi) - inst.lam) <= tol * certificate_scale(inst)
    return as_indicator(np.where(at_bound, np.sign(xi), 0.0).astype(int))


@dataclass(frozen=True)
class SolutionSummary:
    """Quantities shared by every solution of one instance: the linear fits
    beta_p = A x, beta_d = A z, the stacked fit beta_e = C w and the common
    l1-norm gamma_e = ||w||_1."""

    beta_p: np.ndarray
    beta_d: np.ndarray
    beta_e: np.ndarray
    gamma_e: float

    def to_dict(self) -> dict:
        return {
            "beta_p": self.beta_p.tolist(),
            "beta_d": self.beta_d.tolist(),
            "beta_e": self.beta_e.tolist(),
            "gamma_e": self.gamma_e,
        }


def summarize(inst: ProblemInstance, w: np.ndarray) -> SolutionSummary:
    x, z = split_extended(w)
    return SolutionSummary(
        beta_p=inst.A @ x,
        beta_d=inst.A @ z,
        beta_e=inst.matrices.C @ np.ravel(w),
        gamma_e=float(np.abs(w).sum()),
    )


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
