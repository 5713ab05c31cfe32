"""Problem data and structural matrices for the sGMC sparse least-squares model.

The model couples a primal vector x and a dual vector z of equal length n
through a saddle-point objective.  Everything downstream works on the stacked
extended vector w = [x; z] of length 2n, the stacked observation b = [y; r] of
length 2m, and the structural matrices

    C = blkdiag(A, sqrt(rho) * A)            (2m x 2n)
    D = [[(1 - rho) I,  sqrt(rho) I],
         [-sqrt(rho) I,  I]]                 (2m x 2m)

Both are 2 x 2 block matrices whose blocks are multiples of A or of I, so
their products need only A and a 2 x 2 coefficient matrix.  The closed
forms keep their vectors as rows: k vectors w of length 2n form a (k, 2n)
array, viewed as (2k, n) with the primal and dual halves as rows, and k
vectors of length 2m likewise as (2k, m).  Then

    D C X    = [[1 - rho, rho], [-sqrt(rho), sqrt(rho)]] combining A X,
    C^T V    = diag(1, sqrt(rho)) combining A^T V,

each one gemm on the view followed by a 2 x 2 combination of its rows, and
C^T D C = T kron A^T A with T = [[1 - rho, rho], [-rho, rho]], of which the
closed forms only ever gather entries.  `ModelMatrices` applies the first
two with A and gathers those entries from A^T A, its one cached Gram
matrix; the pieces, line restrictions and zone tests of `candidate` and
`sweep` apply C and D through it only.  It holds A and rho alone, so an
instance builds it once, on construction, and shares it with the
siblings `with_params` derives; it forms the dense C and D, and A^T A,
on their first read.  The dense C and D serve the certificate, every
check of which lives in `optimality` (`correlation`, `check_opt`,
`certificate_scale`, `encode_sopt`, `eqnq_membership`), and the `oracle`
solvers, so no sweep and no zone enumeration builds either.  The
certificate and the oracles thus share no code with the pieces they
certify.

Index convention (0-based): entries 0..n-1 of w are primal, n..2n-1 are dual,
matching the column order of C.  This convention is recorded in every
serialized artifact.

An indicator, the signed sparsity pattern of a zone, is an int8 array of
length 2n with entries in {-1, 0, +1} (`as_indicator`): 2n bytes, which a
path keeps per segment and per breakpoint, and which memos use as keys.
Arithmetic with indicators runs in float, or in numpy's default-int
reductions, never in int8 itself.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

INDEX_CONVENTION = "0-based; 0..n-1 primal, n..2n-1 dual"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _readonly(a: np.ndarray) -> np.ndarray:
    return _frozen(np.array(a, dtype=float))


@dataclass(frozen=True)
class ProblemInstance:
    """One sGMC problem: sensing matrix A, convexity parameter rho in [0, 1),
    observation y, auxiliary observation r (defaults to zero) and lambda > 0,
    all finite.

    Instances are immutable; `with_params` derives a sibling instance sharing
    (A, rho) but carrying a different (b, lambda).  `matrices`, the
    structural matrices of (A, rho), is built on construction.
    """

    A: np.ndarray
    rho: float
    y: np.ndarray
    lam: float
    r: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must lie in [0, 1), got {self.rho}")
        A = _readonly(np.atleast_2d(self.A))
        if not np.isfinite(A).all():
            raise ValueError("A must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "matrices", build_model_matrices(self))
        self._observe(self.y, np.zeros(A.shape[0]) if self.r is None else self.r, self.lam)

    def _observe(self, y, r, lam):
        """Check lambda and set it; unless y is None, likewise y and r,
        copied read-only, and b = [y; r]."""
        if not 0.0 < lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {lam}")
        object.__setattr__(self, "lam", lam)
        if y is None:
            return
        y, r = _readonly(np.ravel(y)), _readonly(np.ravel(r))
        for name, arr in (("y", y), ("r", r)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
            if arr.shape != (self.m,):
                raise ValueError(f"{name} has shape {arr.shape}, expected ({self.m},)")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "_b", _readonly(np.concatenate([y, r])))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def b(self) -> np.ndarray:
        """Stacked observation [y; r], kept consistent with y and r."""
        return self._b

    def with_params(self, b: np.ndarray | None = None, lam: float | None = None) -> "ProblemInstance":
        """Same (A, rho), new stacked observation and/or lambda: a sibling,
        a shallow copy, sharing A, the structural matrices `matrices` (so
        their dense C, D and A^T A, once formed) and, without a new `b`, y
        and r, all checked once already.  A `b` passed in is copied and
        checked as the constructor checks y and r."""
        y = r = None
        if b is not None:
            b = np.ravel(b)
            if b.shape != (2 * self.m,):
                raise ValueError(f"b has shape {b.shape}, expected ({2 * self.m},)")
            y, r = b[: self.m], b[self.m :]
        sibling = copy.copy(self)
        sibling._observe(y, r, self.lam if lam is None else lam)
        return sibling

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(),
            "rho": self.rho,
            "y": self.y.tolist(),
            "r": self.r.tolist(),
            "lambda": self.lam,
        }


@dataclass(frozen=True)
class ModelMatrices:
    """The structural matrices of (A, rho) and their block operators.

    The closed forms apply D C and C^T to rows through `dc` and `ct` and
    gather entries of C^T D C with `gram_block` and `gram_border`, all from
    A, rho and A^T A.  The dense C and D serve the independent checks only,
    and are formed on their first read.  A is shared when it is an owned,
    read-only float array, as an instance's is, and copied read-only
    otherwise.
    """

    A: np.ndarray
    rho: float

    def __post_init__(self):
        A = self.A
        if not (type(A) is np.ndarray and A.dtype == float and A.flags.owndata
                and not A.flags.writeable):
            object.__setattr__(self, "A", _readonly(A))
        rho, sq = self.rho, math.sqrt(self.rho)
        # coefficients on the 2 x 2 blocks: of C (a diagonal), of D C and of
        # C^T D C = T kron A^T A
        object.__setattr__(self, "_c_coef", np.array([1.0, sq]))
        object.__setattr__(self, "_dc_coef", np.array([[1.0 - rho, rho], [-sq, sq]]))
        object.__setattr__(self, "_T", np.array([[1.0 - rho, rho], [-rho, rho]]))

    @cached_property
    def C(self) -> np.ndarray:
        """blkdiag(A, sqrt(rho) A), dense (2m x 2n)."""
        m, n = self.A.shape
        C = np.zeros((2 * m, 2 * n))
        C[:m, :n] = self.A
        C[m:, n:] = np.sqrt(self.rho) * self.A
        return _frozen(C)

    @cached_property
    def D(self) -> np.ndarray:
        """[[(1 - rho) I, sqrt(rho) I], [-sqrt(rho) I, I]], dense (2m x 2m);
        the identity at rho = 0."""
        sq, eye = np.sqrt(self.rho), np.eye(self.A.shape[0])
        return _frozen(np.block([[(1.0 - self.rho) * eye, sq * eye], [-sq * eye, eye]]))

    @cached_property
    def gram(self) -> np.ndarray:
        """A^T A (n x n), the one Gram matrix behind C^T D C."""
        return _frozen(self.A.T @ self.A)

    @cached_property
    def col_abs_sums(self) -> np.ndarray:
        """Column 1-norms of C: the scale of each entry of C^T x per unit
        of max|x|."""
        return _readonly(np.multiply.outer(self._c_coef, np.abs(self.A).sum(axis=0)).ravel())

    def dc(self, X: np.ndarray) -> np.ndarray:
        """D C w for each row w of X, of shape (2n,) or (k, 2n)."""
        m, n = self.A.shape
        P = (X.reshape(-1, n) @ self.A.T).reshape(-1, 2, m)
        return (self._dc_coef @ P).reshape(X.shape[:-1] + (2 * m,))

    def ct(self, V: np.ndarray) -> np.ndarray:
        """C^T v for each row v of V, of shape (2m,) or (k, 2m)."""
        m, n = self.A.shape
        P = (V.reshape(-1, m) @ self.A).reshape(-1, 2, n)
        P[:, 1] *= self._c_coef[1]
        return P.reshape(V.shape[:-1] + (2 * n,))

    def gram_block(self, E: np.ndarray) -> np.ndarray:
        """G[E, E] of G = C^T D C: entry (i, j) is T[i // n, j // n] times
        (A^T A)[i mod n, j mod n]."""
        bE, iE = np.divmod(E, self.A.shape[1])
        return self._T[bE[:, None], bE] * self.gram[iE[:, None], iE]

    def gram_border(self, E: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray, float]:
        """Column G[E, j], row G[j, E] and corner G[j, j] of G = C^T D C,
        by the index arithmetic of `gram_block`, with 1-D gathers only: the
        row j mod n of A^T A and a column and a row of T."""
        n = self.A.shape[1]
        bj, ij = divmod(j, n)
        bE, iE = np.divmod(E, n)
        # A^T A is symmetric: one gather from its row j mod n serves both
        g = self.gram[ij].take(iE)
        T = self._T
        return T[:, bj].take(bE) * g, T[bj].take(bE) * g, float(T[bj, bj] * self.gram[ij, ij])


def build_model_matrices(inst: ProblemInstance) -> ModelMatrices:
    """The structural matrices of the instance's (A, rho), sharing its A.

    Pure function of the instance; at rho = 0, D is the identity.
    """
    return ModelMatrices(inst.A, inst.rho)


# -- extended vectors -------------------------------------------------------

def split_extended(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split w = [x; z] into its primal and dual halves."""
    w = np.ravel(w)
    if w.size % 2 != 0:
        raise ValueError("extended vector must have even length")
    n = w.size // 2
    return w[:n], w[n:]


# -- indicators -------------------------------------------------------------

# the int8 bytes of +1, -1 and 0 mapped to their characters
_SIGN_BYTES = bytes.maketrans(b"\x01\xff\x00", b"+-0")
_CHAR_SIGNS = {"+": 1, "-": -1, "0": 0}


def as_indicator(s: Sequence[int] | np.ndarray) -> np.ndarray:
    """Validate a sign vector and return it as int8, the one storage type of
    an indicator.  Every entry must be exactly -1, 0 or +1 (a fraction or a
    NaN is refused, not rounded); a boolean array, a support mask rather
    than signs, is refused too.  A valid int8 array comes back as it is,
    without a copy."""
    arr = np.asarray(s)
    if arr.ndim != 1:
        raise ValueError("indicator must be one-dimensional")
    # a range test first: min and max cannot overflow as abs can, a NaN
    # fails it, so the cast sees only values int8 holds; a fraction does
    # not survive the cast unchanged
    if arr.dtype == bool or arr.size and not -1 <= arr.min() <= arr.max() <= 1:
        raise ValueError("indicator entries must be exactly -1, 0 or +1")
    s8 = arr.astype(np.int8, copy=False)
    if arr.dtype.kind not in "iu" and not np.array_equal(s8, arr):
        raise ValueError("indicator entries must be exactly -1, 0 or +1")
    return s8


def indicator_to_string(s: np.ndarray) -> str:
    """2n characters over {+,-,0}, primal block then dual block."""
    return as_indicator(s).tobytes().translate(_SIGN_BYTES).decode()


def indicator_from_string(text: str) -> np.ndarray:
    """The int8 indicator that `indicator_to_string` prints as `text`."""
    try:
        return np.array([_CHAR_SIGNS[c] for c in text], dtype=np.int8)
    except KeyError as exc:
        raise ValueError(f"invalid indicator character {exc} in {text!r}") from None


def zero_indicator(n: int) -> np.ndarray:
    """The all-zero indicator of length 2n, int8."""
    return np.zeros(2 * n, dtype=np.int8)


# -- instance files ---------------------------------------------------------

def instance_from_dict(data: dict) -> ProblemInstance:
    missing = {"A", "rho", "y", "lambda"} - set(data)
    if missing:
        raise ValueError(f"instance file missing keys: {sorted(missing)}")
    return ProblemInstance(
        A=np.array(data["A"], dtype=float),
        rho=float(data["rho"]),
        y=np.array(data["y"], dtype=float),
        r=None if data.get("r") is None else np.array(data["r"], dtype=float),
        lam=float(data["lambda"]),
    )


def load_instance(path: str) -> ProblemInstance:
    """Read a JSON instance file {"A": [[...]], "rho": x, "y": [...],
    "r": optional [...], "lambda": x}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("instance file must contain a JSON object")
    return instance_from_dict(data)


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a sensing matrix from CSV (one row per line)."""
    A = np.loadtxt(path, delimiter=",", ndmin=2)
    return np.asarray(A, dtype=float)
