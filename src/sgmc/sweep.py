"""Closed-form intersection of candidate zones with parameter lines.

Restricting (b, lambda) to a straight line b(t) = b0 + db*t,
lambda(t) = lam0 + dl*t turns the candidate map of an indicator into a
vector line  w(t) = q - p*t, its residual into  b(t) - D C w(t) = v + u*t
and its correlation into  C^T (v + u*t) = cv + cu*t.  Every zone inequality
then reads  k*t <= c  for scalars (k, c), and one ratio test over these
rows gives the zone's interval on the line: the exit time is the minimum of

    f_tmax(k, c) = sup{t : k*t <= c}

over the rows, and the entry time, the maximum of c/k over the rows with
k < 0, is minus the minimum of f_tmax(-k, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidate import CandidatePiece, IncompatibleIndicatorError
from .model import ModelMatrices, ProblemInstance

SLOPE_RTOL = 1e-12  # correlation line within this of exact, relative to its terms: exact


@dataclass(frozen=True)
class ParameterLine:
    """Straight line (b0 + delta_b * t, lam0 + delta_lam * t); all four
    coefficients must be finite.

    `B` = [delta_b, b0] and `lams` = [delta_lam, lam0] stack the two
    coefficients of each, as `restrict_to_line` solves for both at once;
    `B_scale` holds the largest magnitude of each column of `B`.
    """

    b0: np.ndarray
    lam0: float
    delta_b: np.ndarray
    delta_lam: float

    def __post_init__(self):
        b0 = np.ravel(np.asarray(self.b0, dtype=float))
        db = np.ravel(np.asarray(self.delta_b, dtype=float))
        if b0.shape != db.shape:
            raise ValueError("b0 and delta_b must have equal length")
        B = np.empty((b0.size, 2))
        B[:, 0], B[:, 1] = db, b0
        lams = np.array([self.delta_lam, self.lam0], dtype=float)
        if not (np.isfinite(B).all() and np.isfinite(lams).all()):
            for name, value in (("b0", b0), ("delta_b", db), ("lam0", self.lam0),
                                ("delta_lam", self.delta_lam)):
                if not np.all(np.isfinite(value)):
                    raise ValueError(f"line {name} must be finite")
        if not np.any(db) and self.delta_lam == 0.0:
            raise ValueError("line must have a nonzero velocity")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "delta_b", db)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "lams", lams)
        object.__setattr__(self, "B_scale", np.abs(B).max(axis=0))
        object.__setattr__(self, "_ctB", (None, None))

    def ct_B(self, mats: ModelMatrices) -> np.ndarray:
        """C^T B for the structural matrices `mats`, formed once per line
        and matrices (the last pair is kept)."""
        owner, ctB = self._ctB
        if owner is not mats:
            ctB = mats.ct(self.B)
            object.__setattr__(self, "_ctB", (mats, ctB))
        return ctB

    def b_at(self, t: float) -> np.ndarray:
        return self.b0 + self.delta_b * t

    def lam_at(self, t: float) -> float:
        return self.lam0 + self.delta_lam * t

    def point_at(self, t: float) -> tuple[np.ndarray, float]:
        return self.b_at(t), self.lam_at(t)


def f_tmax(k, c):
    """sup{t in R : k*t <= c} as an extended real, elementwise over arrays.

    c/k when k > 0; -inf when k = 0 and c < 0 (no t works); +inf otherwise
    (the constraint is eventually slack in the +t direction).
    """
    k = np.asarray(k, dtype=float)
    c = np.asarray(c, dtype=float)
    t = np.where((k == 0.0) & (c < 0.0), -np.inf, np.inf)
    np.divide(c, k, out=t, where=k > 0.0)
    return float(t) if t.ndim == 0 else t


@dataclass(frozen=True)
class LineRestrictedPiece:
    """Candidate map, residual and correlation of an indicator along one
    line: w(t) = q - p*t (supported on E), b(t) - D C w(t) = v + u*t and
    C^T (v + u*t) = cv + cu*t."""

    s: np.ndarray
    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    cu: np.ndarray
    cv: np.ndarray
    line: ParameterLine

    def weq_at(self, t: float) -> np.ndarray:
        return self.q - self.p * t

    def residual_at(self, t: float) -> np.ndarray:
        return self.v + self.u * t

    def correlation_at(self, t: float) -> np.ndarray:
        return self.cv + self.cu * t


def restrict_to_line(
    inst: ProblemInstance, piece: CandidatePiece, line: ParameterLine
) -> LineRestrictedPiece:
    """Compute (p, q, u, v, cu, cv) of the zone of `piece` along the line.

    [-p, q] solves M X = C_E^T B - s_E [dl, lam0], B = [db, b0], by two
    applications of pinv(M), never R itself, and one step of iterative
    refinement.  The residual of that system is C_E^T [u, v] - s_E [dl, lam0],
    the equality conditions themselves, read off C^T B - C^T D C X.  It
    keeps the correlation line as accurate as a backward stable solve would,
    which matters where |xi_i| is close to lambda for the whole zone and an
    error in (cu, cv) moves t_b by a large factor.  C^T B is formed once
    per line (`ParameterLine.ct_B`), and every product goes through the
    block operators of `ModelMatrices`: O(mn + n^2 + |E|^2) work however
    large E is.  The piece is the only description of the
    zone: a caller holding an indicator builds it with `candidate_slope`
    first.  An incompatible piece raises IncompatibleIndicatorError.
    """
    s = piece.s
    if not piece.compatible:
        raise IncompatibleIndicatorError(
            "indicator is incompatible; its candidate zone is empty"
        )
    E = piece.support
    mats = inst.matrices
    B, lams = line.B, line.lams
    X = np.zeros((s.size, 2))
    if E.size:
        ctB, P = line.ct_B(mats), piece.Minv
        sE = s[E]
        X[E] = P @ ctB[E] - np.multiply.outer(P @ sE, lams)
        CUV = ctB - mats.ctdc(X)
        X[E] += P @ (CUV[E] - np.multiply.outer(sE, lams))
    DCX = mats.dc(X)
    UV = B - DCX
    CUV = mats.ct(UV)
    # Rounding leaves noise where the exact value lies on a boundary: a
    # correlation slope of 0 (a b-direction through 2m support columns) or
    # a correlation at the bound (along the whole line if it does not move).
    # The exit scan would turn the noise into breakpoints near t = 1e15 or
    # at a point the noise picks, so values within SLOPE_RTOL of the exact
    # one, relative to the terms they were summed from, are set to it.
    floor = SLOPE_RTOL * (
        mats.col_abs_sums[:, None] * (line.B_scale + np.abs(DCX).max(axis=0))
    )
    cu = np.where(np.abs(CUV[:, 0]) <= floor[:, 0], 0.0, CUV[:, 0])
    lam0 = line.lam0
    at_bound = np.abs(np.abs(CUV[:, 1]) - lam0) <= floor[:, 1] + SLOPE_RTOL * abs(lam0)
    cv = np.where(at_bound, np.sign(CUV[:, 1]) * lam0, CUV[:, 1])
    return LineRestrictedPiece(
        s=s, p=-X[:, 0], q=X[:, 1], u=UV[:, 0], v=UV[:, 1], cu=cu, cv=cv, line=line,
    )


@dataclass(frozen=True)
class ZoneExitTimes:
    """Per-constraint supremum times along a line and the interval they
    bound.

    t_a (sign constraints on the support) and t_b (correlation bound off
    the support) have length 2n, +inf where the constraint does not apply;
    t_c binds the lambda >= 0 wall.  t_sup is their minimum, the exit time,
    and t_inf the entry time, the largest t at which a constraint with
    k < 0 starts to hold.  All values are extended reals; the line crosses
    the zone with nonempty interior only when t_inf < t_sup.
    """

    t_a: np.ndarray
    t_b: np.ndarray
    t_c: float
    t_sup: float
    t_inf: float


def zone_exit_times(r: LineRestrictedPiece) -> ZoneExitTimes:
    """Closed-form supremum and infimum of t with (b(t), lambda(t)) inside
    the zone that `r` restricts to its line: one ratio test over the
    stacked rows k*t <= c of the zone.

    Row i of the first block is the sign constraint of i on the support and
    the lower correlation bound of i off it; the second block holds the
    upper correlation bounds (rows of support indices are 0*t <= 0, never
    binding); the last row is the lambda >= 0 wall.  The exit time is the
    minimum of f_tmax(k, c) and the entry time minus the minimum of
    f_tmax(-k, c).  The times are valid only when t_inf < t_sup.
    """
    on = r.s != 0
    dl, lam0 = r.line.delta_lam, r.line.lam0
    k = np.concatenate(
        [np.where(on, r.s * r.p, -r.cu - dl), np.where(on, 0.0, r.cu - dl), [-dl]]
    )
    c = np.concatenate(
        [np.where(on, r.s * r.q, lam0 + r.cv), np.where(on, 0.0, lam0 - r.cv), [lam0]]
    )
    ahead, behind = f_tmax(k, c), f_tmax(-k, c)
    # On constant-lambda lines the wall never binds, so the sign of lam0
    # alone decides.
    if dl == 0.0:
        ahead[-1] = behind[-1] = math.inf if lam0 > 0.0 else -math.inf
    n2 = on.size
    return ZoneExitTimes(
        t_a=np.where(on, ahead[:n2], np.inf),
        t_b=np.where(on, np.inf, np.minimum(ahead[:n2], ahead[n2:-1])),
        t_c=float(ahead[-1]),
        t_sup=float(ahead.min()),
        t_inf=-float(behind.min()),
    )
