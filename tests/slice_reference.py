"""Reference for the exact distance to St+: every covering row-to-column
assignment of one frame scored from one (n, assignments) table, the way the
distance was computed one frame at a time before the desk-scale stack
scorer of ``stiefel.slice_distances``, with its assignment filter, replaced
it."""

import math
from functools import lru_cache

import numpy as np

from sharpmin.fixtures import arc_chordal_distance


@lru_cache(maxsize=None)
def ref_assignment_table(n, k):
    """All maps of n rows onto k columns that leave no column empty, one per
    column of an n-row int8 array, in lexicographic order (row 0 leads)."""
    powers = k ** np.arange(n - 1, -1, -1, dtype=np.int16)
    table = (np.arange(k**n, dtype=np.int16) // powers[:, None] % k).astype(np.int8)
    covers = np.all(np.any(table == np.arange(k)[:, None, None], axis=1), axis=0)
    table = np.ascontiguousarray(table[:, covers])
    table.flags.writeable = False
    return table


def ref_table_scores(mat):
    """sum_j g_j(S_j) of every assignment of the table, one float each."""
    n, k = mat.shape
    table = ref_assignment_table(n, k)
    pos2 = np.maximum(mat, 0.0) ** 2
    score = np.zeros(table.shape[1])
    for j in range(k):
        member = table == j
        p2 = pos2[:, j] @ member.astype(float)
        top = np.where(member, mat[:, j:j + 1], -np.inf).max(axis=0)
        score += np.where(p2 > 0.0, np.sqrt(p2), top)
    return score


def ref_slice_frame(mat, owner):
    """Closest St+ frame to mat whose column j is supported on the rows
    with owner == j."""
    v = np.zeros_like(mat)
    for j in range(mat.shape[1]):
        rows = np.flatnonzero(owner == j)
        col = np.maximum(mat[rows, j], 0.0)
        norm = np.linalg.norm(col)
        if norm > 0.0:
            v[rows, j] = col / norm
        else:
            v[rows[np.argmax(mat[rows, j])], j] = 1.0
    return v


def ref_slice_distance(mat):
    """(distance, closest frame) from the first best assignment of the full
    table."""
    mat = np.asarray(mat, dtype=float)
    table = ref_assignment_table(*mat.shape)
    v = ref_slice_frame(mat, table[:, int(np.argmax(ref_table_scores(mat)))])
    return float(np.linalg.norm(mat - v)), v


def ref_stiefel_distance(mat):
    """The penalty study's distance of one frame: the closed form on the
    circle, else the full-table distance."""
    if mat.shape == (2, 1):
        return arc_chordal_distance(math.atan2(float(mat[1, 0]), float(mat[0, 0])))
    return ref_slice_distance(mat)[0]
