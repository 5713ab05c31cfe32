"""Saddle-point optimality checks and solution summaries.

The whole machinery revolves around the correlation vector

    xi(w) = C^T (b - D C w),

which plays the role the plain correlation A^T(y - Ax) plays for the LASSO:
w solves the model iff xi_i(w) = lambda * sign(w_i) on the support of w and
|xi_i(w)| <= lambda elsewhere.
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
    points as columns and gives k columns; `b` is then one observation for
    all of them or k observations as the columns of a (2m, k) array."""
    mats = inst.matrices
    w = np.asarray(w)
    if w.ndim != 2:
        w = np.ravel(w)
    if w.shape[0] != 2 * inst.n:
        raise ValueError(f"w has shape {w.shape}, expected ({2 * inst.n},)")
    b = inst.b if b is None else b
    if w.ndim == 2 and np.ndim(b) == 1:  # one b for every column
        b = b[:, None]
    residual = b - mats.D @ (mats.C @ w)
    return mats.C.T @ residual


@dataclass(frozen=True)
class OptReport:
    """Diagnostic report of the optimality condition.

    `per_index` holds the signed excess of every index over its bound
    (negative means slack); `violations` lists the offending indices,
    NaN excesses among them.
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


def check_opt(
    inst: ProblemInstance,
    w: np.ndarray,
    tol: float = 1e-9,
    b: np.ndarray | None = None,
    lam: float | None = None,
) -> OptReport:
    """Test the saddle optimality condition with a scale-aware tolerance.

    Entries with |w_i| > tol must satisfy |xi_i - lambda*sign(w_i)| within
    tol*(1+lambda); entries with |w_i| <= tol only need |xi_i| <= lambda up
    to the same slack.  `b` and `lam` probe another point of the instance's
    (A, rho) family instead of its own (b, lambda).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    xi = correlation(inst, w, b=b)
    lam = inst.lam if lam is None else lam
    slack = tol * (1.0 + lam)
    w = np.ravel(w)
    active = np.abs(w) > tol
    excess = np.where(
        active,
        np.abs(xi - lam * np.sign(w)) - slack,
        np.abs(xi) - lam - slack,
    )
    worst = float(np.max(excess, initial=0.0))  # NaN if any excess is NaN
    return OptReport(
        satisfied=bool(worst == 0.0),
        worst_violation=worst,
        per_index=tuple(float(e) for e in excess),
    )


def encode_sopt(inst: ProblemInstance, w: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Equicorrelation signs of w: sign(xi_i) where |xi_i| attains lambda
    (within tol*(1+lambda)), zero elsewhere."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    xi = correlation(inst, w)
    at_bound = np.abs(np.abs(xi) - inst.lam) <= tol * (1.0 + inst.lam)
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
