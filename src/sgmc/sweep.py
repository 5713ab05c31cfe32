"""Closed-form intersection of candidate zones with parameter lines.

Restricting (b, lambda) to a straight line b(t) = b0 + db*t,
lambda(t) = lam0 + dl*t turns the candidate map of an indicator into a
vector line  w(t) = q - p*t, its residual into  b(t) - D C w(t) = v + u*t
and its correlation into  C^T (v + u*t) = cv + cu*t.  Every zone inequality
then reads  k*t <= c  for scalars (k, c), and one ratio test over these
rows gives the zone's interval on the line: the exit time is the minimum of

    f_tmax(k, c) = sup{t : k*t <= c}

over the rows, and the entry time, the maximum of c/k over the rows with
k < 0, is minus the minimum of f_tmax(-k, c).  `zone_exit_times` gets both
from one division c/k over the stacked rows; `f_tmax` is the definition
they are checked against.  The rows that tie at the exit time are the
step's events, and `zone_exit_times`, which lays the rows out, names
them: the deletions, the insertions with their signs, and the wall.  Its
`ZoneExit`, with the next indicator those events make, is the record of
one E-LARS step.  A line restriction keeps the map and the correlation
lines only; the residual is not stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .candidate import CandidatePiece
from .model import ModelMatrices

SLOPE_RTOL = 1e-12  # correlation line within this of exact, relative to its terms: exact
TIE_TOL = 1e-9  # relative half-width of the tie window of event times (`ParameterLine.window`)
# signs of [cu; cv] in the [k; c] rows of the lower and upper correlation bounds
_LOWER = np.array([[-1.0], [1.0]])
_UPPER = np.array([[1.0], [-1.0]])


@dataclass(frozen=True)
class ParameterLine:
    """Straight line (b0 + delta_b * t, lam0 + delta_lam * t); all four
    coefficients must be finite.

    `B` = [delta_b; b0] and `lams` = [delta_lam, lam0] stack the two
    coefficients of each as rows, as `restrict_to_line` maps both at
    once; `B_scale` holds the largest magnitude of each row of `B`, and
    `wall_row` = [[-delta_lam], [lam0]] the row k*t <= c of the
    lambda >= 0 wall that `zone_exit_times` scans at every step.
    `time_scale` T = min(|lam0 / delta_lam|, |b0|_inf / |delta_b|_inf)
    over the terms that are positive and finite (1 if none is), the time
    the line takes to move lambda by lam0 or b by b0, whichever is sooner:
    scaling (b0, lam0) scales it with the line's event times, and so does
    the tie window `window(t)` drawn on it.
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
        B = np.stack([db, b0])
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
        object.__setattr__(self, "B_scale", np.abs(B).max(axis=1))
        object.__setattr__(self, "wall_row", np.array([[-self.delta_lam], [self.lam0]]))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            T = np.divide([abs(self.lam0), self.B_scale[1]], [abs(self.delta_lam), self.B_scale[0]])
        T = T[np.isfinite(T) & (T > 0)]
        object.__setattr__(self, "time_scale", float(T.min()) if T.size else 1.0)
        object.__setattr__(self, "_ctB", (None, None))

    def ct_B(self, mats: ModelMatrices) -> np.ndarray:
        """C^T B, rows [C^T delta_b; C^T b0], for the structural matrices
        `mats`, formed once per line and matrices (the last pair is kept)."""
        owner, ctB = self._ctB
        if owner is not mats:
            ctB = mats.ct(self.B)
            object.__setattr__(self, "_ctB", (mats, ctB))
        return ctB

    def window(self, t: float) -> float:
        """Half-width TIE_TOL*(T + |t|) of the tie window around time t, T
        the `time_scale`: two event times of the line within it are one."""
        return TIE_TOL * (self.time_scale + abs(t))

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
    """Candidate map and correlation of an indicator along one line:
    w(t) = q - p*t (supported on E) and C^T (b(t) - D C w(t)) = cv + cu*t,
    each pair stored as the two rows of one array (`pq`, `cuv`).  `wall`
    marks the indices whose correlation line is a multiple of lambda(t)
    within its rounding: off the support their bounds |xi_i| <= lambda(t)
    bind only where lambda(t) = 0, with the lambda >= 0 wall."""

    s: np.ndarray
    pq: np.ndarray
    cuv: np.ndarray
    wall: np.ndarray
    line: ParameterLine

    p = property(lambda self: self.pq[0])
    q = property(lambda self: self.pq[1])
    cu = property(lambda self: self.cuv[0])
    cv = property(lambda self: self.cuv[1])

    def weq_at(self, t: float) -> np.ndarray:
        return self.q - self.p * t


def restrict_to_line(piece: CandidatePiece, line: ParameterLine) -> LineRestrictedPiece:
    """Compute (p, q, cu, cv) of the zone of `piece` along the line.

    The two coefficients of each line are rows: `CandidatePiece.evaluate`
    at the rows B = [db; b0], with lambdas [dl, lam0] and the line's C^T B
    (`ParameterLine.ct_B`, formed once per line and matrices), gives the
    map X = [-p; q], D C X and the correlation rows [cu; cv] =
    C^T (B - D C X), all through the piece's own structural matrices:
    O(mn + |E|^2) work in all, and p, q, cu and cv are contiguous rows.
    The piece is the only description of the zone: a caller holding an
    indicator builds it with `candidate_slope` first.  An incompatible
    piece raises IncompatibleIndicatorError (from `apply`).
    """
    s, mats = piece.s, piece.mats
    X, DCX, CUV = piece.evaluate(line.B, line.ct_B(mats), line.lams)
    dl, lam0 = line.delta_lam, line.lam0
    floor = SLOPE_RTOL * (mats.col_abs_sums * (line.B_scale + np.abs(DCX).max(axis=1))[:, None])
    # A correlation line that is exactly g * lambda(t), as every one is in a
    # zone of 2m independent support columns, meets +-lambda(t) only at the
    # wall; rounding noise in it would move that crossing off the wall by
    # about the noise over 1 - |g|.  Within its rounding it is such a
    # multiple, and the ratio test lets it bind with the wall.  (At dl = 0
    # that is a slope within rounding of 0, which the snap below sets to 0.)
    if dl == 0.0:
        wall = np.zeros(s.size, dtype=bool)
    else:
        cross = np.array([lam0, -dl])
        wall = np.abs(cross @ CUV) <= np.abs(cross) @ floor
    # Rounding leaves noise where the exact value lies on a boundary: a
    # correlation slope of 0 (a b-direction through 2m support columns) or
    # a correlation at the bound (along the whole line if it does not move).
    # The exit scan would turn the noise into breakpoints near t = 1e15 or
    # at a point the noise picks, so values within SLOPE_RTOL of the exact
    # one, relative to the terms they were summed from, are set to it.
    cu, cv = CUV
    np.copyto(cu, 0.0, where=np.abs(cu) <= floor[0])
    at_bound = np.abs(np.abs(cv) - lam0) <= floor[1] + SLOPE_RTOL * abs(lam0)
    np.copyto(cv, np.sign(cv) * lam0, where=at_bound)
    np.negative(X[0], out=X[0])
    return LineRestrictedPiece(s=s, pq=X, cuv=CUV, wall=wall, line=line)


@dataclass(frozen=True)
class ZoneExit:
    """One E-LARS step: the exit scan of a zone along a line, the interval
    it bounds, and the events at its exit with the indicator they make.

    `restricted` is the zone's line restriction and `s` its indicator.
    `rows` holds sup{t : k*t <= c} of each of the 4n + 1 rows of
    `zone_exit_times` (+inf where a row never binds).  `t_plus`, their
    minimum, is the exit time, and `t_entry` the entry time, the largest t
    at which a row with k < 0 starts to hold.  All values are extended
    reals; the line crosses the zone with nonempty interior only when
    t_entry < t_plus.  At a finite t_plus the rows within its tie window
    (`ParameterLine.window`) are the events, usually one: `deleted` lists
    the support indices whose sign row ties, `inserted` the off-support
    indices whose correlation bound ties, ascending, with `signs` +1 at the
    upper bound and -1 at the lower, and `lambda_terminus` tells that the
    lambda >= 0 wall ties.  There every correlation bound ties and
    rounding gives the correlations signs, but the path ends, so nothing
    is inserted.  `s_plus` is `s` with the deletions zeroed and the
    insertions set to their signs.  An infinite t_plus has no events: +inf
    is a ray that stays in the zone (`never_exits`), -inf a line that
    misses it.  `one_at_a_time` and `never_exits` are read off the events
    and t_plus, so they always agree with them.
    """

    restricted: LineRestrictedPiece
    rows: np.ndarray
    t_plus: float
    t_entry: float
    s_plus: np.ndarray
    deleted: tuple[int, ...] = ()
    inserted: tuple[int, ...] = ()
    signs: tuple[int, ...] = ()
    lambda_terminus: bool = False

    s = property(lambda self: self.restricted.s)

    @property
    def one_at_a_time(self) -> bool:
        """Whether the step edits exactly one index."""
        return len(self.deleted) + len(self.inserted) == 1

    @property
    def never_exits(self) -> bool:
        """Whether the ray stays in the zone forever."""
        return self.t_plus == math.inf

    def misses(self, t: float) -> str | None:
        """Why the zone fails to hold time t: the line enters it after t
        (`unverified_step`) or leaves it before t (`degenerate_interval`),
        outside the window of t; None when it holds t."""
        w = self.restricted.line.window(t)
        if not self.t_entry <= t + w:
            return "unverified_step"
        if not self.t_plus >= t - w:
            return "degenerate_interval"
        return None


def zone_exit_times(r: LineRestrictedPiece) -> ZoneExit:
    """Closed-form supremum and infimum of t with (b(t), lambda(t)) inside
    the zone that `r` restricts to its line, and the events at the exit:
    one ratio test over the stacked rows k*t <= c of the zone.

    Row i of the first block is the sign constraint of i on the support and
    the lower correlation bound of i off it; the second block holds the
    upper correlation bounds (rows of support indices are 0*t <= 0, never
    binding); the last row is the lambda >= 0 wall.  A correlation row of
    an index in `r.wall` that points the way the wall row does is the wall
    row within rounding, and is replaced by it, so that it binds exactly
    when the wall does.  One division c/k serves every row: it is the exit
    time of rows with k > 0 and the entry time of rows with k < 0.  A row
    with k = 0 and c < 0 holds nowhere.  The times are valid only when
    t_entry < t_plus.
    """
    on = r.s != 0
    dl, lam0, wall_row = r.line.delta_lam, r.line.lam0, r.line.wall_row
    # rows [k; c]: s [p; q] on the support; off it [-cu - dl; lam0 + cv]
    # (lower) and [cu - dl; lam0 - cv] (upper)
    n2 = on.size
    kc = np.empty((2, 2 * n2 + 1))
    lower, upper = kc[:, :n2], kc[:, n2:-1]
    np.multiply(_LOWER, r.cuv, out=lower)
    lower += wall_row
    np.multiply(_UPPER, r.cuv, out=upper)
    upper += wall_row
    np.copyto(lower, r.s * r.pq, where=on)
    np.copyto(upper, 0.0, where=on)
    kc[:, -1:] = wall_row
    k, c = kc
    if r.wall.any() and (wall := r.wall & ~on).any():
        wall = np.concatenate([wall, wall, [False]])
        wall &= k * -dl + c * lam0 > 0.0
        kc[:, wall] = wall_row
    zero = k == 0.0
    blocked = zero & (c < 0.0)
    # On constant-lambda lines the wall never binds, so the sign of lam0
    # alone decides.
    if dl == 0.0:
        blocked[-1] = not lam0 > 0.0
    ratio = np.divide(c, k, out=np.where(blocked, -np.inf, np.inf), where=~zero)
    behind = k < 0.0
    rows = np.where(behind, np.inf, ratio)
    t_entry = math.inf if blocked.any() else float(np.where(behind, ratio, -np.inf).max())
    t_plus = float(rows.min())
    s_plus = r.s.copy()
    if not math.isfinite(t_plus):
        return ZoneExit(r, rows, t_plus, t_entry, s_plus)
    deleted, bounds = [], {}
    # the tied rows, ascending: t_plus's own row at least
    tied = np.flatnonzero(np.abs(rows - t_plus) <= r.line.window(t_plus)).tolist()
    terminus = tied[-1] == 2 * n2
    for row in tied:
        i = row % n2
        if row < n2 and on[i]:
            deleted.append(i)
        elif not terminus:
            # an upper row comes after the lower row of its index: where
            # both tie, at lambda(t_plus) near 0, the upper one's sign stays
            bounds[i] = 1 if row >= n2 else -1
    inserted = sorted(bounds)
    signs = [bounds[i] for i in inserted]
    s_plus[deleted] = 0
    s_plus[inserted] = signs
    return ZoneExit(r, rows, t_plus, t_entry, s_plus, tuple(deleted), tuple(inserted),
                    tuple(signs), terminus)
