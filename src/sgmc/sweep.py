"""Closed-form intersection of candidate zones with parameter lines.

Restricting (b, lambda) to a straight line b(t) = b0 + db*t,
lambda(t) = lam0 + dl*t turns the candidate map of an indicator into a
vector line  w(t) = q - p*t  and its residual into  b(t) - D C w(t) = v + u*t.
Every zone inequality then reads  k*t <= c  for scalars (k, c), so the exit
time of the zone along the line is a minimum of values of

    f_tmax(k, c) = sup{t : k*t <= c}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidate import CandidatePiece, IncompatibleIndicatorError, candidate_slope
from .model import ProblemInstance, as_indicator, slice_columns


@dataclass(frozen=True)
class ParameterLine:
    """Straight line (b0 + delta_b * t, lam0 + delta_lam * t)."""

    b0: np.ndarray
    lam0: float
    delta_b: np.ndarray
    delta_lam: float

    def __post_init__(self):
        b0 = np.ravel(np.asarray(self.b0, dtype=float))
        db = np.ravel(np.asarray(self.delta_b, dtype=float))
        if b0.shape != db.shape:
            raise ValueError("b0 and delta_b must have equal length")
        if not np.any(db) and self.delta_lam == 0.0:
            raise ValueError("line must have a nonzero velocity")
        object.__setattr__(self, "b0", b0)
        object.__setattr__(self, "delta_b", db)

    def b_at(self, t: float) -> np.ndarray:
        return self.b0 + self.delta_b * t

    def lam_at(self, t: float) -> float:
        return self.lam0 + self.delta_lam * t

    def point_at(self, t: float) -> tuple[np.ndarray, float]:
        return self.b_at(t), self.lam_at(t)

    def reversed(self) -> "ParameterLine":
        return ParameterLine(self.b0, self.lam0, -self.delta_b, -self.delta_lam)


def f_tmax(k: float, c: float) -> float:
    """sup{t in R : k*t <= c} as an extended real.

    c/k when k > 0; -inf when k = 0 and c < 0 (no t works); +inf otherwise
    (the constraint is eventually slack in the +t direction).
    """
    if k > 0.0:
        return c / k
    if k == 0.0 and c < 0.0:
        return -math.inf
    return math.inf


@dataclass(frozen=True)
class LineRestrictedPiece:
    """Candidate map and residual of an indicator along one line:
    w(t) = q - p*t (supported on E), b(t) - D C w(t) = v + u*t."""

    s: np.ndarray
    p: np.ndarray
    q: np.ndarray
    u: np.ndarray
    v: np.ndarray
    line: ParameterLine

    def weq_at(self, t: float) -> np.ndarray:
        return self.q - self.p * t

    def residual_at(self, t: float) -> np.ndarray:
        return self.v + self.u * t


def restrict_to_line(
    inst: ProblemInstance,
    s: np.ndarray,
    line: ParameterLine,
    piece: CandidatePiece | None = None,
) -> LineRestrictedPiece:
    """Compute (p, q, u, v) of the indicator s along the line."""
    s = as_indicator(s)
    if piece is None:
        piece = candidate_slope(inst, s)
    if not piece.compatible:
        raise IncompatibleIndicatorError(
            "indicator is incompatible; its candidate zone is empty"
        )
    E = piece.support
    two_n = s.size
    p = np.zeros(two_n)
    q = np.zeros(two_n)
    if E.size:
        p[E] = -piece.R @ np.append(line.delta_b, line.delta_lam)
        q[E] = piece.R @ np.append(line.b0, line.lam0)
    mats = inst.matrices
    DCE = mats.D @ slice_columns(mats.C, E)
    pE = p[E] if E.size else np.zeros(1)
    qE = q[E] if E.size else np.zeros(1)
    u = line.delta_b + DCE @ pE
    v = line.b0 - DCE @ qE
    return LineRestrictedPiece(s=s, p=p, q=q, u=u, v=v, line=line)


@dataclass(frozen=True)
class ZoneExitTimes:
    """Per-constraint supremum times along a line and their overall minimum.

    t_a binds sign constraints on the support, t_b the correlation bound off
    the support, t_c the lambda >= 0 wall.  All values are extended reals.
    """

    t_a: dict[int, float]
    t_b: dict[int, float]
    t_c: float
    t_sup: float


def zone_exit_times(
    inst: ProblemInstance,
    s: np.ndarray,
    line: ParameterLine,
    restricted: LineRestrictedPiece | None = None,
) -> ZoneExitTimes:
    """Closed-form supremum of t with (b(t), lambda(t)) inside the zone of s.

    Valid whenever the line actually crosses the zone with nonempty interior
    (entry < exit); `zone_line_interval` reports the degenerate case.
    """
    if restricted is None:
        restricted = restrict_to_line(inst, s, line)
    s = restricted.s
    E = np.flatnonzero(s)
    mask = np.zeros(s.size, dtype=bool)
    mask[E] = True
    t_a = {
        int(i): f_tmax(s[i] * restricted.p[i], s[i] * restricted.q[i]) for i in E
    }
    C = inst.matrices.C
    cu = C.T @ restricted.u
    cv = C.T @ restricted.v
    dl, lam0 = line.delta_lam, line.lam0
    t_b = {}
    for i in np.flatnonzero(~mask):
        t_b[int(i)] = min(
            f_tmax(-cu[i] - dl, lam0 + cv[i]),
            f_tmax(cu[i] - dl, lam0 - cv[i]),
        )
    # Supremum of t with lambda(t) >= 0.  On constant-lambda lines the wall
    # never binds, so the sign of lam0 alone decides.
    if dl == 0.0:
        t_c = math.inf if lam0 > 0.0 else -math.inf
    else:
        t_c = f_tmax(-dl, lam0)
    candidates = list(t_a.values()) + list(t_b.values()) + [t_c]
    return ZoneExitTimes(t_a=t_a, t_b=t_b, t_c=t_c, t_sup=min(candidates))


def zone_entry_time(
    inst: ProblemInstance,
    s: np.ndarray,
    line: ParameterLine,
    piece: CandidatePiece | None = None,
) -> float:
    """Infimum of t inside the zone: exit time of the reversed line, negated.
    A precomputed `piece` skips the slope rebuild."""
    back = line.reversed()
    restricted = restrict_to_line(inst, s, back, piece=piece)
    return -zone_exit_times(inst, s, back, restricted=restricted).t_sup


@dataclass(frozen=True)
class LineInterval:
    """Computed [entry, exit] of a zone on a line.  When entry >= exit the
    line at most touches the zone boundary and the closed forms above carry
    no correctness guarantee; `degenerate` flags this."""

    entry: float
    exit: float

    @property
    def degenerate(self) -> bool:
        return not self.entry < self.exit


def zone_line_interval(
    inst: ProblemInstance, s: np.ndarray, line: ParameterLine
) -> LineInterval:
    restricted = restrict_to_line(inst, s, line)
    exit_ = zone_exit_times(inst, s, line, restricted=restricted).t_sup
    entry = zone_entry_time(inst, s, line)
    return LineInterval(entry=entry, exit=exit_)
