import numpy as np
import pytest

import sgmc.candidate
from sgmc import ParameterLine, ProblemInstance


@pytest.fixture
def two_column():
    """A = [1 1], rho = 0, y = 2, lambda = 1: one duplicated column, three
    known zones {|y| <= lam}, {y >= lam}, {y <= -lam}."""
    return ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([2.0]), lam=1.0)


@pytest.fixture
def descent_line():
    """The worked two-segment line: y(t) = 1 fixed, lambda(t) = 2 - t."""
    inst = ProblemInstance(A=np.array([[1.0, 1.0]]), rho=0.0, y=np.array([1.0]), lam=2.0)
    line = ParameterLine(b0=inst.b, lam0=2.0, delta_b=np.zeros(2), delta_lam=-1.0)
    return inst, line


def saddle_objective(inst, x, z):
    """Saddle objective G(x, z): least-squares fit plus l1 terms, the
    nonconvex coupling -(rho/2)||A x - A z||^2 and the auxiliary
    sqrt(rho) r^T A z term."""
    x = np.ravel(x)
    z = np.ravel(z)
    if x.shape != (inst.n,) or z.shape != (inst.n,):
        raise ValueError("x and z must both have length n")
    Ax = inst.A @ x
    Az = inst.A @ z
    return float(
        0.5 * np.dot(inst.y - Ax, inst.y - Ax)
        + inst.lam * np.abs(x).sum()
        - inst.lam * np.abs(z).sum()
        - 0.5 * inst.rho * np.dot(Ax - Az, Ax - Az)
        + np.sqrt(inst.rho) * np.dot(inst.r, Az)
    )


def random_instance(seed, m=4, n=8, rho=0.0, lam=None, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * scale
    y = rng.normal(size=m) * scale
    if lam is None:
        lam = 0.4 * float(np.abs(A.T @ y).max())
        lam = max(lam, 0.1)
    return ProblemInstance(A=A, rho=rho, y=y, lam=lam)


@pytest.fixture
def rand_4x8():
    return random_instance(11, m=4, n=8, rho=0.0)


def changed_index(piece, s):
    """The one index where the supports of `piece` and of `s` differ,
    derived by comparing the two, or None if they differ in several
    indices or in none."""
    changed = np.flatnonzero((s != 0) != (piece.s != 0))
    return int(changed[0]) if changed.size == 1 else None


def piece_after_edit(inst, piece, s):
    """The piece of `s` from the piece of a neighbour, as `path_sweep`
    forms it: `next_piece` handed the changed index for a one-index edit,
    `candidate_slope` (looked up on its module, so that a monkeypatch
    sees it) for any other edit."""
    j = changed_index(piece, s)
    if j is None:
        return sgmc.candidate.candidate_slope(inst, s)
    return sgmc.candidate.next_piece(inst, piece, s, j)
