"""Frame numerics shared by the cone, sharpness, and clustering modules.

Holds the orthonormal-frame type, the QR retraction with a deterministic
sign convention, random frame generators, and structure helpers for the
entrywise-nonnegative slice St+(n, k).  A basic fact drives the St+ helpers:
orthogonal nonnegative columns have disjoint supports, so every row of a
feasible frame carries at most one positive entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

FRAME_TOL = 1e-10   # allowed ||U^T U - I||_F for a frame
ENTRY_ZERO_TOL = 1e-12  # entry classification threshold on St+


class FrameError(ValueError):
    """Raised for rank-deficient retractions or infeasible frames."""


def frame_residual(u: np.ndarray):
    """||U^T U - I||_F; a stack of frames (s, n, k) gives one residual per
    slice, each with the bits of the one-frame call."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 2:
        return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))
    flat = (u.mT @ u - np.eye(u.shape[-1])).reshape(len(u), u.shape[-1] ** 2)
    return np.sqrt(np.vecdot(flat, flat))


@dataclass(frozen=True, eq=False)
class StiefelPoint:
    """An n-by-k matrix with orthonormal columns."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2:
            raise FrameError(f"expected a matrix, got shape {m.shape}")
        res = frame_residual(m)
        if res > FRAME_TOL:
            raise FrameError(f"columns not orthonormal: residual {res:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def k(self) -> int:
        return self.matrix.shape[1]


def as_matrix(u) -> np.ndarray:
    if isinstance(u, StiefelPoint):
        return u.matrix
    return np.asarray(u, dtype=float)


def qr_retract(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """QR-based retraction of P + X with R forced to a positive diagonal,
    which makes the result deterministic.  Raises on numerical rank loss.

    ``x`` may be one step (n, k) or a stack of steps (s, n, k); a stack is
    factored in one batched QR, slice by slice the same as one at a time."""
    a = np.asarray(p, dtype=float) + np.asarray(x, dtype=float)
    q, r = np.linalg.qr(a)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    flat = a.reshape(*a.shape[:-2], -1)
    scale = np.maximum(1.0, np.sqrt(np.vecdot(flat, flat)))[..., None]  # ||A||_F per slice
    if np.any(np.abs(diag) < 1e-12 * scale):
        raise FrameError("rank-deficient step: QR retraction undefined")
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs[..., None, :]


def random_stiefel(n: int, k: int, rng: Generator, count: int | None = None) -> np.ndarray:
    """Seeded frame distributed by the orthogonal-invariant measure, or a
    stack (count, n, k) of them from one ``standard_normal`` draw and one
    batched QR; slice i equals the i-th of ``count`` one-frame calls."""
    g = rng.standard_normal((n, k) if count is None else (count, n, k))
    q, r = np.linalg.qr(g)
    return q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]


def zero_rows(p: np.ndarray, tol: float = ENTRY_ZERO_TOL) -> tuple:
    """Indices of rows whose entries are all within tol of zero."""
    p = as_matrix(p)
    return tuple(int(i) for i in np.flatnonzero(np.all(np.abs(p) <= tol, axis=1)))


def support_mask(p: np.ndarray, tol: float = ENTRY_ZERO_TOL) -> np.ndarray:
    """Boolean mask of entries strictly above tol (the positive support)."""
    return as_matrix(p) > tol


def is_nonnegative(p: np.ndarray, tol: float = ENTRY_ZERO_TOL) -> bool:
    return bool(np.all(as_matrix(p) >= -tol))


def column_supports(p: np.ndarray, tol: float = ENTRY_ZERO_TOL) -> list:
    """Row-index support of each column.  On a feasible St+ frame the supports
    are pairwise disjoint and nonempty."""
    mask = support_mask(p, tol)
    return [tuple(int(i) for i in np.flatnonzero(mask[:, j])) for j in range(mask.shape[1])]


def random_stiefel_plus(n: int, k: int, rng: Generator, rows_used: int | None = None) -> np.ndarray:
    """Seeded entrywise-nonnegative frame.

    Draws a random number of occupied rows (at least k, at most n), splits
    them into k disjoint nonempty groups, and fills each group with a positive
    unit vector.  Unused rows stay identically zero.
    """
    if not 0 < k <= n:
        raise FrameError(f"need 0 < k <= n, got n={n}, k={k}")
    m = int(rng.integers(k, n + 1)) if rows_used is None else int(rows_used)
    if not k <= m <= n:
        raise FrameError(f"rows_used must lie in [k, n], got {m}")
    rows = rng.permutation(n)[:m]
    # random composition of m rows into k nonempty groups
    cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else np.array([], dtype=int)
    groups = np.split(rows, cuts)
    u = np.zeros((n, k))
    for j, g in enumerate(groups):
        vals = rng.uniform(0.2, 1.0, size=len(g))
        u[g, j] = vals / np.linalg.norm(vals)
    return u

