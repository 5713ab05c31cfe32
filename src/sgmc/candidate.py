"""Decoding indicators into affine candidate solution maps and convex zones.

A candidate indicator s fixes a support E and signs on it.  Solving the
equality half of the optimality system in the least-squares sense gives an
affine map of the parameters (b, lambda),

    w_E(b, lambda) = pinv(M) (C_E^T b - lambda s_E),     w off E = 0,
    M = C_E^T D C_E,

whose operator pinv(M) depends on (A, rho, s) only.  The set of (b, lambda)
where this map also satisfies the inequality half is a convex cone, the
candidate zone of s; on it the map reproduces the minimum-norm solution.

`CandidatePiece.evaluate` is the one place that evaluates a zone: at
rows of points it forms the map (through `CandidatePiece.apply`, the one
place that refuses an incompatible piece, whose zone is empty) and its
correlation, for a line restriction (`sweep.restrict_to_line`) and for
sets of points (`eval_weq`, `zone_margins`) alike.  A zone test reads
one number per point, the worst margin of `zone_margins` (-inf for an
incompatible piece), through `in_zone`.  A piece keeps M and pinv(M).
Since D + D^T is positive definite, null(M) = null(C_E), the orthogonal
complement of Col(C_E^T).  So the one rank cut of the SVD of M gives
pinv(M) and, in the right singular vectors it drops, the test of [s]_E
in Col(C_E^T), without which the zone is empty.  That cut is `rank_cut`'s, which takes
one M or a stack of them: brute force cuts all supports of one size in
one batched SVD.
Neighbouring zones differ in one support index, so `next_piece`, handed
a step's edited indices, updates M by a border or a swap and M^{-1} by a
bordered inverse or a downdate, in O(|E|^2), instead of rebuilding M^{-1}
in O(|E|^3); it alone decides when a rebuild must run instead.
The rows and columns of M and M^{-1} follow the piece's `support` array,
not ascending index order: as in classical LARS, an insertion appends its
index and a deletion moves the last index into the freed position, so no
update permutes them.
The kept M makes the checks of an updated inverse and the refinement step
of `apply` O(|E|^2) products with M.  A piece also keeps its signs s_E as
floats and pinv(M) s_E, which its builder forms once (for an update, in
its residual check) and `apply` reuses at every call.

M and the border of an insertion (column C_E^T D c_j, row c_j^T D C_E and
corner c_j^T D c_j) are entries of G = C^T D C = T kron A^T A, gathered
from the instance's cached A^T A (`ModelMatrices.gram_block`,
`gram_border`).  The pieces and the zone tests (`zone_margins`, and so
`zone_membership` and `strictly_inside`) apply C and D through the block
operators of `ModelMatrices` that the piece holds.  Nothing here forms
the dense C or D, or imports the certificate (`optimality`), which
checks the pieces' answers with code of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ModelMatrices, ProblemInstance, as_indicator

PINV_RTOL = 1e-12  # relative singular-value cutoff for the slope pseudoinverse
COMPAT_TOL = 1e-8  # null(C_E) part of +-1 signs allowed, per sqrt(|E|): scale-free
SCHUR_RTOL = 1e-10  # Schur complement at or below this, relative: rank drop
UPDATE_RTOL = 1e-10  # residual an updated M^{-1} must meet, relative to ||s_E|| = 1
INTERIOR_MARGIN = 1e-6  # margin `strictly_inside` demands, relative to lambda
ZONE_TOL = 1e-9  # slack of the zone test, relative to lambda
# below this the leading singular value of M = C_E^T D C_E is too small for
# its PINV_RTOL cut: the kept singular values would be subnormal and their
# reciprocals overflow
GRAM_TINY = np.finfo(float).tiny / PINV_RTOL


class IncompatibleIndicatorError(ValueError):
    """Raised when an operation needs [s]_E in Col(C_E^T) and it is not."""


@dataclass(frozen=True)
class CandidatePiece:
    """Affine candidate solution map of one indicator.

    `s` is the indicator, int8 (`as_indicator`).  `M` is C_E^T D C_E and
    `Minv` its pseudo-inverse, both with rows and columns in the order of
    `support`, the indices of E: ascending from `candidate_slope`, then as
    `next_piece` leaves them (insertions appended, a deletion's slot filled
    by the last index).  `M` equals `mats.gram_block(support)` entry for
    entry.  `null`, of shape (|E| - rank, |E|), holds the right singular
    vectors of M that `Minv` drops, an orthonormal basis of null(C_E) in
    the same order; it is empty exactly when `Minv` is the true inverse.
    `s_E` holds the signs on the support as floats and `Minv_s_E` the
    product `Minv @ s_E`, formed once by the builder (`next_piece`'s
    residual check takes it anyway) for `apply` to reuse.  `updated` tells
    whether `next_piece` updated the piece from its neighbour's, rather
    than `candidate_slope` building it from an SVD.  `mats` holds the
    instance's structural matrices, shared, not copied, which `evaluate`
    applies.  Pieces are shared through memos, so nothing may mutate
    their arrays.
    """

    s: np.ndarray
    M: np.ndarray
    Minv: np.ndarray
    null: np.ndarray
    mats: ModelMatrices
    support: np.ndarray
    s_E: np.ndarray
    Minv_s_E: np.ndarray
    updated: bool = False

    @property
    def invertible(self) -> bool:
        """Whether `Minv` is the true inverse (C_E has full column rank)."""
        return not len(self.null)

    @cached_property
    def compatible(self) -> bool:
        """Whether [s]_E lies in Col(C_E^T), so that the zone can be
        nonempty (`in_row_space` on the piece's `null`)."""
        return self.invertible or bool(in_row_space(self.s_E, self.null)[0])

    def apply(self, ctb: np.ndarray, lams) -> np.ndarray:
        """pinv(M) (C_E^T b - lambda s_E), rows following `support`, at the
        points whose C^T b are the rows of `ctb`, (2n,) or (k, 2n), with
        `lams` a scalar or of length k.  The two parts are mapped
        separately, so the map stays linear where s_E is (nearly) in
        null(M); one refinement step through the kept M, O(|E|^2), keeps
        its correlations as accurate as a backward stable solve would,
        which matters where |xi_i| is close to lambda over a whole zone.
        An incompatible piece has no map (its zone is empty) and raises
        IncompatibleIndicatorError: its refinement step would scale the
        rounding of lambda s_E outside Col(C_E^T) by ||pinv(M)||."""
        if not self.compatible:
            raise IncompatibleIndicatorError(
                "indicator is incompatible; its candidate zone is empty"
            )
        P = self.Minv
        ctbE = ctb.take(self.support, axis=-1)
        wE = ctbE @ P.T - np.multiply.outer(lams, self.Minv_s_E)
        wE += (ctbE - wE @ self.M.T - np.multiply.outer(lams, self.s_E)) @ P.T
        return wE

    def evaluate(self, V: np.ndarray, ctV: np.ndarray, lams):
        """The piece's map and correlation at the points whose b are the
        rows of `V`, (2m,) or (k, 2m), with C^T b the rows of `ctV` and
        `lams` a scalar or of length k: the map X (`apply` on the support,
        zeros off it), D C X and the correlation xi = C^T (V - D C X), all
        by rows and through the piece's own `mats`, so no dense C or D is
        formed.  Each caller hands over the C^T rows it already holds.  An
        incompatible piece raises IncompatibleIndicatorError (from
        `apply`)."""
        X = np.zeros(np.shape(lams) + self.s.shape)
        X[..., self.support] = self.apply(ctV, lams)
        DCX = self.mats.dc(X)
        return X, DCX, self.mats.ct(V - DCX)


def in_row_space(signs: np.ndarray, null: np.ndarray) -> np.ndarray:
    """Which rows of `signs`, (P, k) sign patterns on a support, lie in
    Col(C_E^T): those whose component in null(C_E), signs N^T N for the
    rows N of `null`, is within COMPAT_TOL * sqrt(k) of zero in the sup
    norm.  A (..., r, k) stack of bases gives (..., P); zero rows in a
    basis change nothing.  One product tests every pattern."""
    residual = (np.atleast_2d(signs) @ np.swapaxes(null, -1, -2)) @ null
    return np.abs(residual).max(axis=-1, initial=0.0) <= COMPAT_TOL * np.sqrt(null.shape[-1])


@dataclass(frozen=True)
class RankCut:
    """The rank cut of M = C_E^T D C_E, or of each matrix of a stack.

    `Minv` holds the pseudo-inverses and `rank` the number of singular
    values kept.  `null`, shaped like M, holds the right singular vectors
    the cut drops as rows, an orthonormal basis of null(C_E), and zeros in
    the first `rank` rows, where the kept ones were; `in_row_space` tests
    sign patterns against it."""

    Minv: np.ndarray
    null: np.ndarray
    rank: np.ndarray


def rank_cut(M: np.ndarray, nonzero: bool | np.ndarray) -> RankCut:
    """The one rank decision on M = C_E^T D C_E, or on each matrix of a
    (..., k, k) stack, from one (batched) SVD: singular values at or below
    PINV_RTOL times the largest are dropped.  `nonzero` tells, per matrix,
    whether C_E has a nonzero entry.  Data so small that a nonzero C_E
    gives an M below GRAM_TINY (about |A| < 1e-148, where its entries
    approach the subnormal range and its pseudo-inverse would overflow)
    raise ValueError: rescale them."""
    U, sv, Vt = np.linalg.svd(M)
    top = sv.max(axis=-1, initial=0.0)
    tiny = (top < GRAM_TINY) & nonzero
    if np.any(tiny):
        raise ValueError(
            f"C_E^T D C_E is too small to invert (largest singular value "
            f"{np.max(top, where=tiny, initial=0.0):.3g}); rescale the data"
        )
    keep = sv > PINV_RTOL * top[..., None]
    V = np.swapaxes(Vt, -1, -2)
    V_scaled = np.divide(V, sv[..., None, :], out=np.zeros_like(V), where=keep[..., None, :])
    return RankCut(
        Minv=V_scaled @ np.swapaxes(U, -1, -2),
        null=Vt * ~keep[..., None],
        rank=keep.sum(axis=-1),
    )


def candidate_slope(inst: ProblemInstance, s: np.ndarray) -> CandidatePiece:
    """Closed-form piece via the Moore-Penrose pseudoinverse of
    C_E^T D C_E, from `rank_cut` of its one M: the right singular vectors
    that the cut drops are kept as the piece's `null`, from which its
    compatibility is read.  The zero indicator's M is 0 x 0, and its cut
    is too.  Data too small for the cut, and an `s` not of length 2n,
    raise ValueError."""
    s = as_indicator(s)
    if s.size != 2 * inst.n:
        raise ValueError(f"indicator has length {s.size}, expected 2n = {2 * inst.n}")
    E = np.flatnonzero(s)
    mats = inst.matrices
    M = mats.gram_block(E)
    cut = rank_cut(M, mats.col_abs_sums[E].any())
    # a copy, so that the piece does not hold the padded |E| x |E| basis
    null = cut.null[cut.rank:].copy()
    s_E = s[E].astype(float)
    return CandidatePiece(s=s, M=M, Minv=cut.Minv, null=null, mats=mats, support=E,
                          s_E=s_E, Minv_s_E=cut.Minv @ s_E)


def next_piece(
    inst: ProblemInstance, piece: CandidatePiece, s_next: np.ndarray, *edit: int
) -> CandidatePiece:
    """Piece of `s_next`, whose support differs from that of `piece` in
    the indices `edit` (`path_sweep` hands over its step's `deleted` and
    `inserted`).  `s_next` is stored as it is, not validated again: an
    int8 indicator, as `elars_iterate` makes it.

    One edited index j is an update in O(|E|^2); an index where the two
    supports agree raises ValueError.  An insertion borders M with the new
    column, row and corner d, which `ModelMatrices.gram_border` gathers
    from A^T A, borders M^{-1} through the Schur complement
    sigma = d - row^T M^{-1} col, and appends the index to the support.  A deletion swaps the index's position with the
    last one in M and M^{-1}, truncates M and takes M^{-1} <- P - q r^T / s
    from the blocks of the swapped inverse.  An insertion forms the new
    leading block P + x y^T in one contiguous temporary and copies it into
    the bordered inverse once.  `piece` itself is never modified.  This
    function alone decides between the update and a from-scratch
    `candidate_slope`, which runs instead when the edit is not one index,
    when `piece` holds a pseudoinverse, when sigma <= SCHUR_RTOL times its
    scale (a rank drop), or when the updated inverse misses
    M (M^{-1} s_E) = s_E by more than UPDATE_RTOL, a check run through the
    kept M, whose product M^{-1} s_E the piece keeps as `Minv_s_E`.
    """
    if len(edit) != 1:
        return candidate_slope(inst, s_next)
    (j,) = edit
    deleting = bool(piece.s[j])
    if deleting == bool(s_next[j]):
        raise ValueError(f"index {j} is in both supports or in neither")
    if not piece.invertible:
        return candidate_slope(inst, s_next)
    E, M0, P = piece.support, piece.M, piece.Minv
    N = E.size
    mats = inst.matrices
    if not deleting:
        col, row, d = mats.gram_border(E, j)
        x = P @ col
        y = row @ P
        rx = float(row @ x)
        sigma = d - rx
        if not sigma > SCHUR_RTOL * (abs(d) + abs(rx)):
            return candidate_slope(inst, s_next)
        x /= sigma
        lead = np.einsum("i,j->ij", x, y)
        lead += P
        Minv = np.empty((N + 1, N + 1))
        Minv[:N, :N] = lead
        np.negative(x, out=Minv[:N, N])
        np.divide(y, -sigma, out=Minv[N, :N])
        Minv[N, N] = 1.0 / sigma
        M = np.empty((N + 1, N + 1))
        M[:N, :N] = M0
        M[:N, N], M[N, :N], M[N, N] = col, row, d
        support = np.empty(N + 1, dtype=E.dtype)
        support[:N] = E
        support[N] = j
    else:
        # the blocks of the inverse with positions k and N - 1 swapped:
        # column and row k of the leading block and the pivot P[k, k]
        k = int((E == j).argmax())
        last = N - 1
        col, row = P[:last, k].copy(), P[k, :last].copy()
        support = E[:last].copy()
        if k < last:
            col[k], row[k] = P[last, k], P[k, last]
            support[k] = E[last]
        row /= P[k, k]
        Minv = np.einsum("i,j->ij", -col, row)
        Minv += P[:last, :last]
        M = M0[:last, :last].copy()
        if k < last:
            # row and column k of both leading blocks from the last position
            Minv[k] = P[last, :last] - col[k] * row
            Minv[:, k] = P[:last, last] - col * row[k]
            Minv[k, k] = P[last, last] - col[k] * row[k]
            M[k], M[:, k], M[k, k] = M0[last, :last], M0[:last, last], M0[last, last]
    s_E = s_next[support].astype(float)
    Minv_s_E = Minv @ s_E
    if not np.abs(M @ Minv_s_E - s_E).max(initial=0.0) <= UPDATE_RTOL:
        return candidate_slope(inst, s_next)
    return CandidatePiece(
        s=s_next, M=M, Minv=Minv, null=np.zeros((0, support.size)), mats=mats,
        support=support, s_E=s_E, Minv_s_E=Minv_s_E, updated=True,
    )


def eval_weq(piece: CandidatePiece, b: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Evaluate the candidate map at (b, lambda): the map X of
    `CandidatePiece.evaluate`, `apply` on the support and zeros elsewhere.
    k points given as the columns of `b`, with `lam` of length k, give k
    columns.  An incompatible piece raises IncompatibleIndicatorError."""
    V = np.transpose(b)
    return piece.evaluate(V, piece.mats.ct(V), lam)[0].T


def zone_membership(
    inst: ProblemInstance,
    s: np.ndarray,
    b: np.ndarray,
    lam: float,
    piece: CandidatePiece | None = None,
) -> bool:
    """Whether (b, lambda) lies in the candidate zone of s: `in_zone` on the
    `zone_margins` of w = eval_weq(s; b, lam), so sign consistency
    s_i w_i >= -ZONE_TOL*lambda on the support and
    |xi_i(w)| <= lambda*(1 + ZONE_TOL) off it, at 0 < lambda < inf; never
    for an incompatible indicator.  The slack is the zone test's own and is
    not settable: a caller that needs another bound compares
    `zone_margins` with it.  A precomputed `piece` skips the slope rebuild.
    """
    if piece is None:
        piece = candidate_slope(inst, s)
    return bool(in_zone(zone_margins(piece, b, lam), lam))


def in_zone(margin: float | np.ndarray, lam: float | np.ndarray):
    """Zone membership at each point from its worst zone margin
    (`zone_margins`): at least -ZONE_TOL*lambda, at 0 < lambda < inf; a
    NaN or -inf fails.  w and xi are homogeneous in (b, lambda), so the
    slack scales with the point and (alpha*b, alpha*lambda) gets the
    answer of (b, lambda) for every alpha > 0.  A zone test, not the
    optimality certificate: its slack is on the scale of lambda, not of
    `certificate_scale`'s S."""
    lam = np.asarray(lam)
    return (margin >= -ZONE_TOL * lam) & (lam > 0) & (lam < np.inf)


def zone_margins(
    piece: CandidatePiece, b: np.ndarray, lam: float | np.ndarray
) -> float | np.ndarray:
    """Worst margin of the zone of `piece` at (b, lambda), >= 0 inside: the
    least of s_i w_i over the support and lambda - |xi_i(w)| off it, -inf
    for an incompatible piece, whose zone is empty, and at a lambda that
    is not finite, where no zone lies.  No map is formed at such a point
    (at lambda = inf it would take inf - inf).  k points given as the
    columns of `b`, with `lam` of length k, give k margins from one
    `CandidatePiece.evaluate` of their rows, which forms the map w and
    the correlation xi = C^T (b - D C w) through the piece's own `mats`:
    no dense C or D is formed."""
    keep = np.isfinite(lam) & piece.compatible
    if not keep.all():
        margins = np.full(np.shape(lam), -np.inf)
        if keep.any():
            margins[keep] = zone_margins(piece, np.asarray(b)[:, keep], np.asarray(lam)[keep])
        return margins[()]
    V = np.transpose(b)
    w, _, xi = piece.evaluate(V, piece.mats.ct(V), lam)
    return np.where(piece.s != 0, piece.s * w, np.expand_dims(lam, -1) - np.abs(xi)).min(axis=-1)


def strictly_inside(inst: ProblemInstance, s: np.ndarray, b: np.ndarray, lam: float) -> bool:
    """Operational interior test: the worst zone margin (`zone_margins`)
    is at least INTERIOR_MARGIN*lambda, at 0 < lambda < inf (the margin is
    -inf at lambda = inf); never for an incompatible indicator.  The margin
    is on the scale of lambda, as the zone test's slack is, so
    (alpha*b, alpha*lambda) gets the answer of (b, lambda) for every
    alpha > 0.  It picks sample points for a check that a boundary would
    spoil; `sgmc verify` does not sample with it, as its min-norm solver
    answers on zone boundaries too, and it is not exported from `sgmc`."""
    piece = candidate_slope(inst, s)
    return bool(lam > 0 and zone_margins(piece, b, lam) >= INTERIOR_MARGIN * lam)
