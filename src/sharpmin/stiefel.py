"""Frame numerics shared by the cone, sharpness, and clustering modules.

Holds the QR retraction with a deterministic sign convention, random frame
generators, and the distance to the entrywise-nonnegative slice St+(n, k)
of a stack of matrices, exact at desk scale and refused above it.  A basic
fact drives the St+ distance: orthogonal nonnegative columns have disjoint
supports, so every row of a feasible frame carries at most one positive
entry, and the closest feasible frame comes from the best assignment of
rows to columns.  The sign pattern of one St+ frame is classified by
``cones.stiefel_plus_normal_cone``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import Generator

FRAME_TOL = 1e-10   # allowed ||U^T U - I||_F for a frame
ENTRY_ZERO_TOL = 1e-12  # entry classification threshold on St+
EXACT_ASSIGNMENTS = 3**8  # largest k**n whose assignments the exact St+ distance enumerates
SLICE_TABLE_ENTRIES = 1 << 13  # cap on frames x k x 2**n subset-table entries per scorer block


class FrameError(ValueError):
    """Raised for rank-deficient retractions or infeasible frames."""


def frame_residual(u: np.ndarray) -> np.ndarray:
    """||U^T U - I||_F of each frame of a stack (..., n, k), with the bits of
    ``np.linalg.norm`` of that frame's U^T U - I."""
    u = np.asarray(u, dtype=float)
    flat = (u.mT @ u - np.eye(u.shape[-1])).reshape(*u.shape[:-2], u.shape[-1] ** 2)
    return np.sqrt(np.vecdot(flat, flat))


def qr_retract(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """QR-based retraction of P + X with R forced to a positive diagonal,
    which makes the result deterministic.  Raises on numerical rank loss.

    ``x`` may be one step (n, k) or a stack of steps (s, n, k); a stack is
    factored in one batched QR, slice by slice the same as one at a time."""
    q, r = _sign_fixed_qr(np.asarray(p, dtype=float) + np.asarray(x, dtype=float))
    if np.any(_rank_deficient(r)):
        raise FrameError("rank-deficient step: QR retraction undefined")
    return q


def _sign_fixed_qr(a: np.ndarray) -> tuple:
    """(Q, R) of a matrix or a stack of them, Q's columns flipped so that
    the factor pairing with it has a positive diagonal.  R is returned as
    LAPACK gives it: ``_rank_deficient`` reads only its diagonal magnitudes
    and norm, which the flip does not change."""
    q, r = np.linalg.qr(a)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r


def _rank_deficient(r: np.ndarray) -> np.ndarray:
    """Whether each R factor of a stack (..., k, k) has a diagonal entry
    below 1e-12 max(1, ||R||_F), one bool per factor.  ||R||_F = ||A||_F
    comes from one ``vecdot``; a sum of squares overflows once entries pass
    about 1e154, and only those factors take the slower chain of hypot
    calls."""
    flat = r.reshape(-1, r.shape[-2] * r.shape[-1])
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.vecdot(flat, flat))
    big = ~np.isfinite(norms)
    if np.any(big):
        norms[big] = np.hypot.reduce(flat[big], axis=-1)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    small = np.abs(diag).reshape(len(flat), -1) < 1e-12 * np.maximum(1.0, norms)[:, None]
    return np.any(small, axis=-1).reshape(diag.shape[:-1])


def random_stiefel(n: int, k: int, rng: Generator, count: int | None = None) -> np.ndarray:
    """Seeded frame distributed by the orthogonal-invariant measure, or a
    stack (count, n, k) of them from one ``standard_normal`` draw and one
    batched QR; slice i equals the i-th of ``count`` one-frame calls."""
    g = rng.standard_normal((n, k) if count is None else (count, n, k))
    return _sign_fixed_qr(g)[0]


def random_stiefel_plus(n: int, k: int, rng: Generator) -> np.ndarray:
    """Seeded entrywise-nonnegative frame.

    Draws a random number of occupied rows (at least k, at most n), splits
    them into k disjoint nonempty groups, and fills each group with a positive
    unit vector.  Unused rows stay identically zero.
    """
    if not 0 < k <= n:
        raise FrameError(f"need 0 < k <= n, got n={n}, k={k}")
    m = int(rng.integers(k, n + 1))
    rows = rng.permutation(n)[:m]
    # random composition of m rows into k nonempty groups
    cuts = np.sort(rng.choice(np.arange(1, m), size=k - 1, replace=False)) if k > 1 else np.array([], dtype=int)
    groups = np.split(rows, cuts)
    u = np.zeros((n, k))
    for j, g in enumerate(groups):
        vals = rng.uniform(0.2, 1.0, size=len(g))
        u[g, j] = vals / np.linalg.norm(vals)
    return u


def slice_distances(stack) -> tuple:
    """Distances from a stack (s, n, k) of finite matrices to St+(n, k),
    with the frames that attain them: (d, frames), of shapes (s,) and
    (s, n, k).

    Nonnegative orthonormal columns have disjoint supports, so
    dist(U, St+)^2 = ||U||^2 + k - 2 max_S sum_j g_j(S_j), the max over
    assignments S of the rows to k nonempty groups, where g_j(S) is the norm
    of the positive part of column j on S, or the largest entry of column j
    on S when that norm is 0.

    The distances are exact, and a stack with k**n > EXACT_ASSIGNMENTS is
    refused (``FrameError``).  The frames go in blocks of at most 64, fewer
    when their tables over all row subsets would pass SLICE_TABLE_ENTRIES.
    In a block the lemma below keeps the assignments that can be optimal
    (``_lemma_survivors``), each survivor is scored from the frame's table
    of g_j over all row subsets, and each frame takes its first best
    survivor in table order.  Every optimum survives, so in exact arithmetic
    the result is that of scoring every assignment; the scores are floats,
    and near St+, where rounding ties or misorders assignments, the frame
    can differ from the full table's first float-best, and neither need be
    an exact optimum.  The frames are checked by one ``frame_residual`` call
    and for nonnegativity.

    Lemma (which assignments can be optimal).  Call a row free if it has no
    positive entry, and misplaced in column j if it is not free and
    u_ij <= 0.  Every optimal assignment has, in each column j, either no
    misplaced row, or exactly one misplaced row and no row positive in j.
    Proof: otherwise column j holds a misplaced row and a second non-free
    row.  Pick a misplaced row i of j that is not the only row of j holding
    its largest entry (when j has no positive row, both rows are misplaced
    and one of them qualifies).  Move i to a column l with u_il > 0.  g_j
    does not drop: its positive norm is unchanged, or another row keeps its
    maximum.  Column j stays nonempty.  g_l rises strictly, either from
    sqrt(p) to sqrt(p + u_il^2) or from a value <= 0 to u_il > 0.  So an
    assignment that puts a misplaced row into a column holding two or more
    non-free rows is never optimal, and the exact scorer drops it unscored.
    A row need not go to a column where it is positive: for
    U = [[0.9, 0.1], [0.5, -0.3], [0.2, -0.05]] the optimum puts row 3,
    positive only in column 1, alone in column 2."""
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3:
        raise FrameError(f"expected a stack of matrices, got shape {stack.shape}")
    s, n, k = stack.shape
    if not 0 < k <= n:
        raise FrameError(f"St+({n}, {k}) is empty")
    if not np.all(np.isfinite(stack)):
        raise FrameError("matrix entries must be finite")
    if k**n > EXACT_ASSIGNMENTS:
        raise FrameError(f"the exact St+ distance needs {k}^{n} assignments, "
                         f"cap is EXACT_ASSIGNMENTS = {EXACT_ASSIGNMENTS}")
    if k == 1:
        frames = _slice_frames(stack, np.ones((s, n, 1), dtype=bool))
    else:
        keys = _assignment_keys(n, k)
        step = max(1, min(64, SLICE_TABLE_ENTRIES // (k << n)))
        chosen = np.empty(s, dtype=np.intp)
        for lo in range(0, s, step):
            chosen[lo:lo + step] = _best_assignments(stack[lo:lo + step], keys)
        member = (keys[:, chosen].T[:, None, :] >> np.arange(n)[:, None]) & 1 > 0
        frames = _slice_frames(stack, member)
    if not (np.all(frame_residual(frames) <= FRAME_TOL) and np.all(frames >= 0.0)):
        raise FrameError("slice frame is not a nonnegative orthonormal frame")
    diff = (stack - frames).reshape(s, n * k)
    return np.sqrt(np.vecdot(diff, diff)), frames


@lru_cache(maxsize=None)
def _assignment_keys(n: int, k: int) -> np.ndarray:
    """All maps of n rows onto k >= 2 columns that leave no column empty, in
    lexicographic order (row 0 leads), as a read-only (k, maps) intp array.
    Entry [j, a] is j * 2**n plus the bitmask (bit i for row i) of the rows
    that map a sends to column j: the place of that row set in a (k, 2**n)
    table of column values."""
    dtype = np.min_scalar_type(k**n - 1)  # holds every map's index, whatever EXACT_ASSIGNMENTS
    powers = k ** np.arange(n - 1, -1, -1, dtype=dtype)
    digits = np.arange(k**n, dtype=dtype) // powers[:, None] % k
    bits = (1 << np.arange(n))[:, None]  # n <= 12 when k >= 2
    rows = np.stack([np.sum((digits == j) * bits, axis=0) for j in range(k)])
    keys = rows[:, np.all(rows > 0, axis=0)] + (np.arange(k) << n)[:, None]
    keys = np.ascontiguousarray(keys, dtype=np.intp)
    keys.flags.writeable = False
    return keys


def _lemma_survivors(block: np.ndarray, keys: np.ndarray) -> tuple:
    """(frame, assignment) index arrays of the assignments that the lemma
    stated in ``slice_distances`` keeps for the frames of
    ``block`` (c <= 64, n, k): those that put no misplaced row into a column
    holding two or more non-free rows.  Frame-major, each frame's in table
    order.

    The test of column j is tabulated over all row subsets, with one bit per
    frame in a 64-bit word, and each assignment ANDs the words of its k row
    sets."""
    c, n, k = block.shape
    bits = 1 << np.arange(n)
    subsets = np.arange(1 << n)
    frame_bits = np.uint64(1) << np.arange(c, dtype=np.uint64)
    pos = block > 0.0
    nonfree = pos.any(axis=2)
    held = subsets & (nonfree @ bits)[:, None]
    crowded = (held & (held - 1)) != 0
    misplaced = ((nonfree[:, :, None] & ~pos) * bits[:, None]).sum(axis=1)
    good = ~(crowded[:, None, :] & ((subsets & misplaced[:, :, None]) != 0))  # (c, k, 2**n)
    # bit f of table[j * 2**n + S]: frame f passes the test of column j on row set S
    table = np.bitwise_or.reduce(good * frame_bits[:, None, None], axis=0).reshape(-1)
    words = np.bitwise_and.reduce(table.take(keys), axis=0)
    candidates = np.flatnonzero(words != 0)
    frame, index = np.nonzero(words[candidates] & frame_bits[:, None] != 0)
    return frame, candidates[index]


def _best_assignments(block: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of the first best surviving assignment of each frame of
    ``block`` (c <= 64, n, k); every frame has a survivor."""
    c = len(block)
    frame, assignment = _lemma_survivors(block, keys)
    g = _subset_values(block).reshape(c, -1)
    score = np.zeros(len(assignment))
    for row_sets in keys:
        score += g[frame, row_sets[assignment]]
    starts = np.searchsorted(frame, np.arange(c))
    hits = np.flatnonzero(score == np.maximum.reduceat(score, starts)[frame])
    return assignment[hits[np.searchsorted(frame[hits], np.arange(c))]]


def _subset_values(block: np.ndarray) -> np.ndarray:
    """g_j(S) for each frame of ``block`` (c, n, k), column j and row subset S
    (bit i for row i): shape (c, k, 2**n), built one row at a time."""
    c, n, k = block.shape
    cols = block.transpose(0, 2, 1)
    pos2 = np.maximum(cols, 0.0) ** 2
    p2 = np.zeros((c, k, 1 << n))
    top = np.full((c, k, 1 << n), -np.inf)
    for i in range(n):
        h = 1 << i
        p2[:, :, h:2 * h] = p2[:, :, :h] + pos2[:, :, i, None]
        top[:, :, h:2 * h] = np.maximum(top[:, :, :h], cols[:, :, i, None])
    return np.where(p2 > 0.0, np.sqrt(p2), top)


def _slice_frames(stack: np.ndarray, member: np.ndarray) -> np.ndarray:
    """Closest St+ frames to a stack (s, n, k) whose column j is supported
    on the rows with member[:, :, j] (every column must own a row): column
    j is the normalized positive part of U's column on those rows, or, when
    that part is zero, the unit vector at its largest entry there.  Each
    column's norm is one unit-stride dot over all n rows, the non-member
    rows zero; that adds the member terms in the order and with the bits of
    ``np.linalg.norm`` of the member entries alone when n < 16 or a column
    owns every row (a single column, or n < 16 because
    k**n <= EXACT_ASSIGNMENTS)."""
    cols = np.where(member, np.maximum(stack, 0.0), 0.0).transpose(0, 2, 1).copy()
    norms = np.sqrt(np.vecdot(cols, cols))[:, None, :]
    positive = norms > 0.0
    v = np.where(member & positive, cols.transpose(0, 2, 1) / np.where(positive, norms, 1.0), 0.0)
    frame, col = np.nonzero(~positive[:, 0, :])
    top = np.where(member, stack, -np.inf).argmax(axis=1)
    v[frame, top[frame, col], col] = 1.0
    return v
