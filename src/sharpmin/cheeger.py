"""Cheeger-type graph clustering through nonsmooth optimization on the
Stiefel manifold.

The discrete objective sums |boundary(A_i)| / sqrt(|A_i|) over k disjoint
nonempty vertex subsets.  Its continuous relaxation minimizes the columnwise
edge-difference l1 seminorm over orthonormal frames with a nonnegativity
requirement, handled here by a weighted penalty on the entrywise negative part.
The pipeline: parse a graph, optionally compute the exact constant by
enumeration, run a multi-restart Riemannian subgradient descent on the
penalized relaxation, round the best frame to a sub-partition with a
threshold sweep, and compare against the enumeration oracle when affordable.
The restarts advance as one stack of frames whose edge differences B U (B
the signed incidence matrix) give each step's objective and, by a bincount
scatter, B^T sign(B U); the penalty, the checks and the best iterates are
taken once per block of iterates, and the oracle scores each assignment
with k lookups in per-block tables over suffix subsets.  Each gives the
bits of the one-frame, one-assignment loop it replaced.

The penalty study (``wsm_penalty_check``) probes whether the negative-part
penalty with exponent beta makes the nonnegative slice a weakly sharp
solution set: the dual necessary condition fails for beta > 1 (the penalty is
smooth, its subdifferential a single point).  Below 1 it finds no refutation at
moderate alpha; at large alpha its sampled quotients can refute falsely
(``--n 4 --k 2 --beta 0.75 --alpha 2`` at scale 0.05, quotient -0.369), since
h_beta is not locally Lipschitz there.  The growth check also scores the
frames P = [I_k; 0] with one column negated, whose quotient 1/sqrt(2) (1/2
when n = k) bounds the global modulus at every beta.  No refutation is not
sharpness either:
for 1/2 < beta < 1 and n > k >= 2 the local modulus is 0, on curves its global
sample almost surely misses (README, honesty notes).  Distances to the
nonnegative slice come from ``stiefel.slice_distances``, one call per stack of
frames, exact at the desk scale where the study runs, the circle included.
The modulus trace is the running infimum over nested prefixes of the
sharpness check's one sample.

The solver's penalty weight is a fixed setting, C = PENALTY_C0 max(L, 1)
with L the ``lipschitz_bound``, not a certified constant: no finite C makes
C h_1 dominate the distance to St+ (see ``SolverConfig``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from pathlib import Path

import numpy as np
from numpy.random import SeedSequence, default_rng

from .manifolds import (BudgetExceededError, GeometryError, Point, require_within_stack_cap,
                        stiefel, tangent_project)
from .stiefel import (
    ENTRY_ZERO_TOL,
    FrameError,
    _rank_deficient,
    _sign_fixed_qr,
    frame_residual,
    random_stiefel,
    random_stiefel_plus,
    slice_distances,
)
from .cones import Schedule, stiefel_plus_normal_cone
from .wsm import WsmVerdict, check_dual_nc, verify_wsm_sampled


class GraphFormatError(ValueError):
    """Malformed graph text: bad line, out-of-range vertex, or self-loop."""


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 1..n with deduplicated edges (u < v)."""

    n: int
    edges: tuple

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            u, v = e
            if not (1 <= u < v <= self.n):
                raise GraphFormatError(f"edge {e} out of range for n={self.n} (need 1 <= u < v <= n)")
            if e in seen:
                raise GraphFormatError(f"duplicate edge {e}")
            seen.add(e)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(self.edge_array().ravel(), minlength=self.n)

    def edge_array(self) -> np.ndarray:
        """0-indexed m-by-2 array, shape (0, 2) for edgeless graphs."""
        if not self.edges:
            return np.zeros((0, 2), dtype=int)
        return np.array(self.edges, dtype=int) - 1

    @cached_property
    def edge_ends(self) -> tuple:
        """Read-only 0-indexed (tail, head) index arrays, built once: edge e
        is the row e_tail - e_head of the signed incidence matrix B."""
        ends = self.edge_array()
        tail, head = ends[:, 0].copy(), ends[:, 1].copy()
        tail.flags.writeable = head.flags.writeable = False
        return tail, head

    @cached_property
    def neighbours(self) -> tuple:
        """0-indexed neighbour tuple of each vertex, built once."""
        adjacent = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adjacent[u - 1].append(v - 1)
            adjacent[v - 1].append(u - 1)
        return tuple(tuple(a) for a in adjacent)


def load_graph(source) -> Graph:
    """Parse a graph from a file path (Path instance) or raw text (str).

    Format: comment lines start with ``c``; optional header ``p <n> <m>``;
    edge lines ``e <u> <v>`` with 1-indexed endpoints; bare ``<u> <v>`` lines
    are accepted too.  Without a header, n is the largest vertex mentioned.
    Duplicate edges are collapsed with a warning; self-loops are an error.
    """
    if isinstance(source, Path):
        text = source.read_text()
    else:
        text = str(source)
    n_declared = None
    raw_edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n_declared is not None:
                raise GraphFormatError(f"line {lineno}: repeated header")
            try:
                n_declared = int(tokens[1])
            except (IndexError, ValueError):
                raise GraphFormatError(f"line {lineno}: malformed header {line!r}") from None
            if n_declared < 1:
                raise GraphFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if tokens[0] == "e":
            tokens = tokens[1:]
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: malformed line {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: malformed line {line!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if u < 1 or v < 1:
            raise GraphFormatError(f"line {lineno}: vertex index must be >= 1")
        raw_edges.append((min(u, v), max(u, v)))
    n = n_declared if n_declared is not None else max((v for e in raw_edges for v in e), default=1)
    if n > np.iinfo(np.intp).max:
        raise GraphFormatError(f"vertex count {n} exceeds the largest array index")
    unique = sorted(set(raw_edges))
    if len(unique) < len(raw_edges):
        warnings.warn(f"collapsed {len(raw_edges) - len(unique)} duplicate edge(s)", stacklevel=2)
    return Graph(n=n, edges=tuple(unique))


@dataclass(frozen=True)
class SubPartition:
    """k pairwise-disjoint nonempty vertex subsets (not required to cover)."""

    parts: tuple  # tuple of frozensets

    def __post_init__(self):
        parts = tuple(frozenset(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        seen = set()
        for p in parts:
            if not p:
                raise GraphFormatError("sub-partition parts must be nonempty")
            if seen & p:
                raise GraphFormatError("sub-partition parts must be disjoint")
            seen |= p


def cut_boundary(graph: Graph, vertices) -> int:
    """Number of edges with exactly one endpoint in the vertex set."""
    a = set(vertices)
    for v in a:
        if not 1 <= v <= graph.n:
            raise GraphFormatError(f"vertex {v} out of range for n={graph.n}")
    return sum(1 for u, v in graph.edges if (u in a) != (v in a))


def cheeger_objective(graph: Graph, parts: SubPartition) -> float:
    """Sum over parts of |boundary| / sqrt(size)."""
    total = 0.0
    for p in parts.parts:
        total += cut_boundary(graph, p) / math.sqrt(len(p))
    return total


def _canonical(assignment) -> bool:
    """True when part labels appear in first-occurrence order 1, 2, ...,
    which picks one representative per label-permutation class."""
    top = 0
    for a in assignment:
        if a > top + 1:
            return False
        top = max(top, a)
    return True


ORACLE_BLOCK_BYTES = 1 << 18  # cap on one oracle block's tables (see _block_bytes)


def exact_cheeger(graph: Graph, k: int, budget: int = 20_000_000):
    """Global minimum of the discrete objective by full enumeration.

    Walks all (k+1)^n assignments of vertices to one of k parts or none,
    skipping non-canonical label permutations, and returns the best value
    with its lexicographically smallest canonical argmin.  Refuses (rather
    than silently approximating) when (k+1)^n exceeds the budget.
    Assignments are scored in numpy blocks (see ``_oracle_blocks``); the
    result is the one a scalar scan in product order would keep.
    """
    if not 1 <= k <= graph.n:
        raise GraphFormatError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    if _over_budget(graph.n, k, budget):
        # (k+1)^n itself can pass Python's digit limit for int-to-str conversion
        raise BudgetExceededError(
            f"enumeration needs {k + 1}^{graph.n} assignments, budget is {budget}"
        )
    best_val = math.inf
    best_assignment = None
    for prefix, rows, values in _oracle_blocks(graph, k):
        start = 0
        while True:  # a scan keeps each value below its best by more than 1e-15
            below = np.flatnonzero(values[start:] < best_val - 1e-15)
            if not below.size:
                break
            start += int(below[0])
            best_val = float(values[start])
            best_assignment = np.concatenate([prefix, rows[:, start]])
            start += 1
    parts = [frozenset(int(i) + 1 for i in np.flatnonzero(best_assignment == j))
             for j in range(1, k + 1)]
    return best_val, SubPartition(tuple(parts))


def _over_budget(n: int, k: int, budget: int) -> bool:
    """Whether (k+1)^n > budget, without building the power when n alone
    decides it: (k+1)^n >= 2^n > budget once n passes budget's bit length."""
    return n > budget.bit_length() or (k + 1) ** n > budget


def _oracle_blocks(graph: Graph, k: int):
    """Yield (prefix, rows, values) blocks over the canonical assignments
    that leave no part empty, in product order.  A block fixes the first
    hi = n - low vertices to ``prefix`` (int8) and runs the last ``low``
    vertices through the suffixes that complete it: ``rows[:, a]`` is the
    suffix of assignment a, and ``values[a]`` is
    0 + b_1/sqrt(s_1) + ... + b_k/sqrt(s_k), summed in that order.

    Every edge has tail < head, so it is prefix-prefix, prefix-suffix (tail
    in the prefix) or suffix-suffix.  Let S and T be the prefix and suffix
    vertices of part j, c_HH(S) and c_LL(T) the prefix-prefix and
    suffix-suffix edges they cut, d(b) the prefix-suffix edges at suffix
    vertex b and w(b) those of them with tail in S.  Then

        b_j = c_HH(S) + sum_b w(b) + sum_{b in T} (d(b) - 2 w(b)) + c_LL(T).

    Proof: a prefix-suffix edge (a, b) is cut exactly when one of a in S,
    b in T holds.  For b not in T it is cut when a in S, by w(b) edges.  For
    b in T it is cut when a not in S, by d(b) - w(b) edges, which adds
    d(b) - 2 w(b) to the w(b) already counted in sum_b w(b).

    So each block builds, for each part j, the table
    V_j[T] = b_j / sqrt(|S| + |T|) over all 2^low suffix subsets T, and
    scores assignment a as 0 + V_1[mask_1[a]] + ... + V_k[mask_k[a]], where
    mask_j[a] is the bitmask of the suffix vertices with label j.  Each cut
    and size is an exact small integer (the matrix products sum integers),
    so each entry is the same division by the same correctly rounded sqrt
    as counting the part's boundary directly.  Entries with |S| + |T| = 0
    are NaN and never gathered: every scored assignment uses all k labels.

    ``low`` is the largest length whose block fits in ORACLE_BLOCK_BYTES."""
    n = graph.n
    low = 0
    while low < n and _block_bytes(low + 1, k) <= ORACLE_BLOCK_BYTES:
        low += 1
    hi = n - low
    tail, head = graph.edge_ends
    in_prefix, in_suffix = head < hi, tail >= hi
    cross = ~in_prefix & ~in_suffix
    prefix_tail, prefix_head = tail[in_prefix], head[in_prefix]
    in_subset = np.arange(1 << low)[:, None] >> np.arange(low) & 1  # [T, b]: bit b of T
    sizes = in_subset.sum(axis=1)
    cut_suffix = np.count_nonzero(in_subset[:, tail[in_suffix] - hi]
                                  != in_subset[:, head[in_suffix] - hi], axis=1)
    subset_rows = in_subset.T.astype(float)
    degree = np.bincount(head[cross] - hi, minlength=low)
    adjacency = np.zeros((hi, low))
    adjacency[tail[cross], head[cross] - hi] = 1.0
    labels = np.arange(1, k + 1, dtype=np.int8)[:, None]
    suffixes = _canonical_suffixes(low, k)
    for prefix in product(range(k + 1), repeat=hi):
        if not _canonical(prefix):
            continue
        rows, masks = suffixes[max(prefix, default=0)]
        if not rows.shape[1]:
            continue
        prefix = np.array(prefix, dtype=np.int8)
        in_part = prefix == labels  # S of each part
        w = in_part @ adjacency
        cut = (in_part[:, prefix_tail] != in_part[:, prefix_head]).sum(axis=1) + w.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            tables = ((cut[:, None] + (degree - 2.0 * w) @ subset_rows + cut_suffix)
                      / np.sqrt(in_part.sum(axis=1)[:, None] + sizes))
        values = np.zeros(rows.shape[1])
        for table, mask in zip(tables, masks):
            np.add(values, np.take(table, mask), out=values)
        yield prefix, rows, values


def _block_bytes(low: int, k: int) -> int:
    """Bytes one oracle block holds at suffix length ``low``: per suffix, its
    int8 digits, its k label masks, its value and one gather temporary; per
    suffix subset, the k tables and a float row per suffix vertex."""
    mask = np.min_scalar_type((1 << low) - 1).itemsize
    return (k + 1) ** low * (low + k * mask + 16) + (1 << low) * (k + low) * 8


@lru_cache(maxsize=None)
def _canonical_suffixes(length: int, k: int) -> tuple:
    """Read-only (digits, masks) of the suffixes in product order, by the
    largest label t of the prefix: entry t holds the suffixes that keep
    labels in first-occurrence order after t and end with largest label k.
    ``digits`` is (length, count) int8; ``masks[j - 1]`` is, per suffix, the
    bitmask of its positions with label j, in the smallest unsigned dtype."""
    index = np.arange((k + 1) ** length, dtype=np.int32)  # under ORACLE_BLOCK_BYTES / 16 entries
    digits = np.empty((length, index.size), dtype=np.int8)
    for v in range(length):
        digits[v] = index // (k + 1) ** (length - 1 - v) % (k + 1)
    dtype = np.min_scalar_type((1 << length) - 1)
    weights = (1 << np.arange(length)).astype(dtype)[:, None]
    labels = np.arange(1, k + 1, dtype=np.int8)[:, None, None]
    tables = []
    for t in range(k + 1):
        top = np.full(index.size, t, dtype=np.int8)
        keep = np.ones(index.size, dtype=bool)
        for row in digits:
            keep &= row <= top + 1
            top = np.maximum(top, row)
        table = digits[:, keep & (top == k)]
        masks = ((table == labels) * weights).sum(axis=1, dtype=dtype)
        table.flags.writeable = masks.flags.writeable = False
        tables.append((table, masks))
    return tuple(tables)


def _scored_assignments(n: int, k: int) -> int:
    """Number of assignments the oracle scores: the canonical ones with no
    empty part.  Each is a split of the n vertices plus a marker for "no
    part" into k + 1 blocks, so this is the Stirling number S(n + 1, k + 1)."""
    row = [1] + [0] * (k + 1)  # S(0, j) for j = 0..k+1
    for _ in range(n + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 2)]
    return row[k + 1]


def grad_norm_l1(graph: Graph, u):
    """Columnwise sum over edges of |U[a, i] - U[b, i]|, i.e. |B U|_1 for the
    signed incidence matrix B (the relaxation objective; equals the discrete
    objective on indicator frames).  A stack of frames (s, n, k) gives one
    value per slice, each summed with the bits of the one-frame call."""
    mat = np.asarray(u, dtype=float)
    if mat.shape[-2] != graph.n:
        raise GraphFormatError(f"frame has {mat.shape[-2]} rows, graph has {graph.n} vertices")
    total = _slice_sums(np.abs(_edge_differences(graph, mat)))
    return float(total) if mat.ndim == 2 else total


def _edge_differences(graph: Graph, mat: np.ndarray) -> np.ndarray:
    """B U: the rows U[tail] - U[head] of each slice, shape (..., m, k)."""
    tail, head = graph.edge_ends
    return np.take(mat, tail, axis=-2) - np.take(mat, head, axis=-2)


def _slice_sums(x: np.ndarray):
    """Sum of each (n, k) or (m, k) slice of x."""
    return np.sum(x.reshape(*x.shape[:-2], -1), axis=-1)


def penalty_h(u, beta: float):
    """Negative-part penalty sum(max(-u_ij, 0)^beta); zero exactly on
    entrywise-nonnegative frames.  A stack of frames (s, n, k) gives one
    value per slice, each summed with the bits of the one-frame call."""
    if not beta > 0:
        raise GeometryError(f"penalty exponent must be positive, got {beta}")
    mat = np.asarray(u, dtype=float)
    total = _slice_sums(np.maximum(-mat, 0.0) ** beta)
    return float(total) if mat.ndim == 2 else total


def lipschitz_bound(graph: Graph, k: int) -> float:
    """Certified Lipschitz rate of the relaxation objective in Frobenius
    norm: sqrt(k * sum of squared degrees).  Edgewise triangle inequality,
    then Cauchy-Schwarz over vertices and columns."""
    deg = graph.degrees()
    return math.sqrt(k * float(np.sum(deg.astype(float) ** 2)))


def _incidence_plan(graph: Graph, shape: tuple) -> tuple:
    """Flat indices into a frame or stack of this shape where each entry
    (e, j) of B U lands: (tail_e, j) with sign +, and (head_e, j) with -."""
    n, k = shape[-2:]
    tail, head = graph.edge_ends
    base = np.arange(0, math.prod(shape), n * k)[:, None, None] + np.arange(k)
    return (base + tail[:, None] * k).ravel(), (base + head[:, None] * k).ravel()


def _subgradient(manifold, mat, diffs, plan: tuple, c: float) -> np.ndarray:
    """Tangent subgradient of the penalized objective |B U|_1 + C h_1(U) at
    each slice of a stack of frames on ``manifold``, from B U and the plan
    of mat's shape.

    Edge terms contribute B^T sign(B U), the sign pattern of the column
    differences (0 on ties, a valid selection at the kink); the penalty
    contributes -C at strictly negative entries.
    """
    tail_at, head_at = plan
    signs = np.sign(diffs).ravel()
    # sums of -1, 0, 1 are exact in any order; no edges: int zeros, float below
    edges = np.bincount(tail_at, signs, mat.size) - np.bincount(head_at, signs, mat.size)
    grad = edges.reshape(mat.shape) - np.where(mat < 0.0, c, 0.0)
    return tangent_project(manifold, mat, grad)


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the penalized relaxation solver.

    The penalty exponent is 1 (the l1 penalty h_1) and step t is
    1/max(L, 1)/sqrt(t), L the ``lipschitz_bound``.  penalty_c defaults to
    C = PENALTY_C0 max(L, 1) when left as None.  That weight is a solver
    setting, not an exact-penalty constant: no finite C makes C h_1 dominate
    the distance to St+, which is 0.6 t along R_P(tV) (P = [I_k; 0], V zero
    but row k + 1 = (0.6, 0.8, 0, ...)) while h_1 is 0.48 t^2.

    A frame has entries |u_ij| <= 1, so with d_i the degree of vertex i the
    penalized value is at most k (sum_i d_i + C n) and the subgradient
    before projection has entries at most d_i + C, both within
    n k (max_i d_i + C).  ``solve_relaxation`` refuses a weight C, given or
    default, with n k (max_i d_i + C) > 2**-10 * (the largest float): the
    tangent projection and the QR factorization of a step then stay within
    a few times that bound, far from overflow.
    """

    penalty_c: float | None = None
    max_iters: int = 300
    restarts: int = 20
    seed: int = 0
    oracle_budget: int = 20_000_000

    def __post_init__(self):
        if self.penalty_c is not None and not 0 < self.penalty_c < math.inf:
            raise GeometryError("penalty weight must be positive and finite")
        if self.restarts < 1:
            raise GeometryError("need at least one restart")
        if self.max_iters < 1:
            raise GeometryError(f"need at least one iteration, got max_iters={self.max_iters}")


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Full provenance of one clustering run."""

    k: int
    penalty_c: float
    seed: int
    best_continuous_value: float
    best_penalty_value: float
    rounded: SubPartition
    rounded_value: float
    oracle_value: float | None
    gap: float | None
    best_restart: int
    max_feasibility_residual: float
    trace: tuple  # (iter, objective, penalty, feasibility_residual)
    restart_best_values: tuple  # best penalized value of each restart
    oracle_assignments: int | None  # assignments the oracle scored

    def __post_init__(self):
        values = [self.best_continuous_value, self.best_penalty_value, self.rounded_value]
        if any(v < -1e-12 for v in values):
            raise GeometryError("objective values must be nonnegative")
        if self.oracle_value is not None:
            if self.rounded_value < self.oracle_value - 1e-9:
                raise GeometryError(
                    "rounded value beat the enumeration oracle; one of them is wrong"
                )


# C = PENALTY_C0 max(L, 1) by default: on seeds 0-19 of the benchmark's
# cluster workloads it matched the oracle most often, then gave the lowest
# rounded values on the large graphs (CHANGES.md has the table)
PENALTY_C0 = 0.175
SOLVER_BLOCK_BYTES = 1 << 16  # cap on the iterates kept for one block's bookkeeping


def round_solution(graph: Graph, u) -> SubPartition:
    """Round a frame to disjoint parts.

    Each vertex goes to the column where it carries the largest magnitude
    (ties to the smallest index); vertices with no magnitude anywhere are
    left out, matching the support restriction of the threshold principle.
    Within each column's pool, prefix sets of the magnitude ordering are
    swept and the one minimizing |boundary| / sqrt(size) wins; the boundary
    is updated as each vertex joins.  Columns with empty pools are dropped;
    an entirely empty result is an error.

    Bound.  Let U be in St+ with every positive entry above ENTRY_ZERO_TOL.
    Its columns are nonnegative, orthonormal and so of disjoint supports:
    vertex v joins the pool of column j exactly when u_vj > 0, and the k
    parts are nonempty and disjoint.  Fix a column u = u_j and its level
    sets A_t = {v : u_v > t}, t >= 0.  The coarea formula on the graph
    (edge ab is cut by A_t exactly for t between u_a and u_b) gives
    ||B u||_1 = int_0^inf |bd A_t| dt, and Minkowski's integral inequality
    applied to u = int_0^inf 1_{A_t} dt gives
    1 = ||u||_2 <= int_0^inf sqrt|A_t| dt.  With rho the least
    |bd A_t| / sqrt|A_t| over the nonempty A_t,
    ||B u||_1 >= rho int_0^inf sqrt|A_t| dt >= rho.  Each nonempty A_t is a
    prefix of the pool's ordering by magnitude, so the sweep keeps a set
    A_j with |bd A_j| / sqrt|A_j| <= rho + 1e-15 <= ||B u_j||_1 + 1e-15, and
    summing over the columns, the rounded value is at most |B U|_1 (up to
    rounding).  So |B U|_1 over St+ is never below the discrete optimum
    over k parts, and the normalized indicator frames of the parts attain
    it.
    """
    mat = np.asarray(u, dtype=float)
    if mat.shape[0] != graph.n:
        raise GraphFormatError(f"frame has {mat.shape[0]} rows, graph has {graph.n} vertices")
    magnitudes = np.abs(mat)
    owner = np.argmax(magnitudes, axis=1)  # argmax takes the smallest index on ties
    neighbours = graph.neighbours
    parts = []
    for j in range(mat.shape[1]):
        pool = np.flatnonzero((owner == j) & (magnitudes[:, j] > ENTRY_ZERO_TOL))
        if not pool.size:
            continue
        pool = pool[np.lexsort((pool, -magnitudes[pool, j]))].tolist()  # by (-magnitude, v)
        best_ratio, best_size = math.inf, 0
        inside = [False] * graph.n
        boundary = 0
        for size, v in enumerate(pool, start=1):
            inside[v] = True
            for w in neighbours[v]:  # the edge vw leaves the boundary or joins it
                boundary += -1 if inside[w] else 1
            ratio = boundary / math.sqrt(size)
            if ratio < best_ratio - 1e-15:
                best_ratio, best_size = ratio, size
        parts.append(frozenset(v + 1 for v in pool[:best_size]))
    if not parts:
        raise GeometryError("rounding produced no nonempty part (all-zero frame?)")
    return SubPartition(tuple(parts))


def _largest_penalty_weight(graph: Graph, k: int) -> float:
    """The largest weight C with n k (max degree + C) <= 2**-10 * (the
    largest float); see ``SolverConfig``."""
    return 2.0**-10 * float(np.finfo(float).max) / (graph.n * k) - float(graph.degrees().max())


def _largest_modulus(n: int, k: int) -> float:
    """The largest modulus alpha with n k alpha**2 <= 2**-10 * (the largest
    float); see ``wsm_penalty_check``."""
    return math.sqrt(2.0**-10 * float(np.finfo(float).max) / (n * k))


def _check_block(deficient: np.ndarray, finite: np.ndarray, t0: int) -> None:
    """Raise for the first iterate of a block (rows from iteration t0 + 1,
    one column per restart) that a step-by-step loop would refuse: a
    rank-deficient retraction before a non-finite value, as within a step."""
    failed = np.any(deficient, axis=1) | ~np.all(finite, axis=1)
    if not np.any(failed):
        return
    i = int(np.argmax(failed))
    if np.any(deficient[i]):
        raise FrameError("rank-deficient step: QR retraction undefined")
    raise GeometryError(
        f"non-finite objective at restart {int(np.argmin(finite[i]))}, iter {t0 + i + 1}")


def solve_relaxation(graph: Graph, k: int, cfg: SolverConfig = SolverConfig()) -> ClusterReport:
    """Multi-restart diminishing-step subgradient descent on the penalized
    relaxation, followed by rounding and oracle comparison when (k+1)^n is
    within ``cfg.oracle_budget`` (a zero budget skips the oracle).

    Every iterate stays orthonormal through the QR retraction; the best
    penalized iterate across restarts is kept (best-iterate, not
    last-iterate, as usual for nonsmooth subgradient methods).  Global
    optimality is never claimed: the report states the best value found.
    """
    if not 1 <= k <= graph.n:
        raise GraphFormatError(f"need 1 <= k <= n, got k={k}, n={graph.n}")
    require_within_stack_cap("the solver's frame stack needs", 8 * cfg.restarts * graph.n * k)
    require_within_stack_cap("the solver's traces need", 3 * 8 * cfg.max_iters * cfg.restarts)
    require_within_stack_cap("the solver's edge differences need", 8 * cfg.restarts * graph.m * k)
    scale = max(lipschitz_bound(graph, k), 1.0)
    c = PENALTY_C0 * scale if cfg.penalty_c is None else float(cfg.penalty_c)
    c_max = _largest_penalty_weight(graph, k)
    if c > c_max:
        raise GeometryError(f"penalty weight {c} can overflow the solver's steps; "
                            f"the largest at n={graph.n}, k={k} is {c_max}")
    step0 = 1.0 / scale

    # all restarts advance together as one (R, n, k) stack; each start frame
    # comes from its own child of SeedSequence(seed), as a loop over restarts would draw it
    u = np.stack([random_stiefel(graph.n, k, default_rng(child))
                  for child in SeedSequence(cfg.seed).spawn(cfg.restarts)])
    # B U of each iterate gives its objective and the next subgradient
    manifold = stiefel(graph.n, k)
    plan = _incidence_plan(graph, u.shape)
    diffs = _edge_differences(graph, u)
    local_best = _slice_sums(np.abs(diffs)) + c * penalty_h(u, 1.0)
    local_u = u.copy()
    values = np.empty((cfg.max_iters, cfg.restarts))
    penalties = np.empty_like(values)
    residuals = np.empty_like(values)
    # a step keeps only what the next step reads; the penalty, the checks (the
    # rank check reads R's triangle out of the raw heads), the residuals and
    # the best iterates are taken once per block of iterates
    block = max(1, min(cfg.max_iters, SOLVER_BLOCK_BYTES // u.nbytes))
    frames = np.empty((block, *u.shape))
    heads = np.empty((block, cfg.restarts, k, k))  # raw QR heads, R on and above the diagonal
    restarts = np.arange(cfg.restarts)
    for t0 in range(0, cfg.max_iters, block):
        size = min(block, cfg.max_iters - t0)
        for i, t in enumerate(range(t0 + 1, t0 + size + 1)):
            g = _subgradient(manifold, u, diffs, plan, c)
            u, heads[i] = _sign_fixed_qr(u - step0 / math.sqrt(t) * g)
            frames[i] = u
            diffs = _edge_differences(graph, u)
            values[t - 1] = _slice_sums(np.abs(diffs))
        stack, val = frames[:size], values[t0:t0 + size]
        penalties[t0:t0 + size] = penalty = c * penalty_h(stack, 1.0)
        val += penalty
        _check_block(_rank_deficient(heads[:size]), np.isfinite(val), t0)
        residuals[t0:t0 + size] = frame_residual(stack)
        # each restart's first lowest iterate, as a strict < over the steps keeps
        first = np.argmin(val, axis=0)
        lowest = val[first, restarts]
        better = lowest < local_best
        local_best[better] = lowest[better]
        local_u[better] = stack[first[better], restarts[better]]
    best_val = math.inf
    best_restart = -1
    for r, value in enumerate(local_best.tolist()):
        if value < best_val - 1e-15:
            best_val = value
            best_restart = r
    best_u = local_u[best_restart]
    best_trace = tuple(zip(range(1, cfg.max_iters + 1), values[:, best_restart].tolist(),
                           penalties[:, best_restart].tolist(),
                           residuals[:, best_restart].tolist()))

    rounded = round_solution(graph, best_u)
    rounded_value = cheeger_objective(graph, rounded)
    oracle_value = gap = oracle_assignments = None
    if not _over_budget(graph.n, k, cfg.oracle_budget):
        oracle_value = exact_cheeger(graph, k, cfg.oracle_budget)[0]
        gap = rounded_value - oracle_value
        oracle_assignments = _scored_assignments(graph.n, k)
    return ClusterReport(
        k=k,
        penalty_c=c,
        seed=cfg.seed,
        best_continuous_value=grad_norm_l1(graph, best_u),
        best_penalty_value=best_val,
        rounded=rounded,
        rounded_value=rounded_value,
        oracle_value=oracle_value,
        gap=gap,
        best_restart=best_restart,
        max_feasibility_residual=float(residuals.max()),
        trace=best_trace,
        restart_best_values=tuple(local_best.tolist()),
        oracle_assignments=oracle_assignments,
    )


# ---------------------------------------------------------------------------
# Penalty exponent study
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PenaltyStudy:
    """Bundle of sharpness evidence for the negative-part penalty at one
    (n, k, beta): the sampled sharpness verdict against the exact distance,
    with its modulus trace, the same check on the probe frames, and dual
    necessary-condition verdicts at seeded nonnegative frames."""

    wsm: WsmVerdict
    probes: WsmVerdict  # the sharpness check on P's k single-column negations
    dual: tuple  # reporting.Check of the dual condition per probed frame

    @property
    def sharpness_violated(self) -> bool:
        """Whether the sample or the probes hold a witness."""
        return "violated" in (self.wsm.status, self.probes.status)

    @property
    def dual_consistent(self) -> bool:
        return all(v.passed for v in self.dual)


# extreme rays plus the +/- covector probes carry the refutations; a light
# random-direction budget suffices for the study's dual checks
STUDY_SCHEDULE = Schedule.geometric(samples_per_scale=10)


def wsm_penalty_check(
    n: int,
    k: int,
    beta: float,
    n_samples: int = 400,
    seed: int = 0,
    alpha: float = 1.0,
) -> PenaltyStudy:
    """Probe the negative-part penalty h_beta as a sharp exact-penalty term.

    Runs (a) a sampled sharpness check of h_beta against the exact distance
    over n_samples random frames drawn from ``default_rng(seed)``, at the
    reference P = [I_k; 0], whose verdict carries the modulus trace over
    prefixes of its sample, (a') the same check on the k probe frames Q_j,
    P with column j negated, scored as their own stack, and (b) dual
    necessary-condition checks at seeded nonnegative frames using the
    sign/support cone pattern.  Small
    dimensions only (dense sampling), and not St(1, 1), which is
    zero-dimensional: it has no tangent direction (``GeometryError``).
    P minimizes h_beta, since h_beta >= 0 everywhere and P has no negative
    entry, so h_beta(P) = 0.  Every Q_j has h_beta(Q_j) = 1 for every beta,
    and dist(Q_j, St+) = sqrt(2) when n > k (|-e_j - v|^2 = 2 + 2 v_j >= 2
    for a unit v >= 0, with equality at v = e_(k+1)) and 2 when n = k, so the
    modulus is at most 1/sqrt(2), or 1/2, at every beta.

    Two budgets are refused before any draw.  The stack of n_samples frames
    must fit in STACK_BYTES (``BudgetExceededError``).  alpha must satisfy
    n k alpha**2 <= 2**-10 * (the largest float) (``GeometryError``, with the
    largest admitted alpha in the message): the dual candidates have norm at
    most alpha, so their squared norms, their tangency residuals (at most
    4 alpha**2) and their inner products with chords stay finite, and so do
    the sharpness products alpha * dist, with dist <= 2 sqrt(k).  Then a
    non-positive alpha and an empty sample are refused (``GeometryError``)."""
    if n > 8 or k > 3:
        raise GeometryError("penalty study is desk-scale only (n <= 8, k <= 3)")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise GeometryError(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")
    manifold = stiefel(n, k)
    if manifold.intrinsic_dim == 0:
        raise GeometryError(f"{manifold} is zero-dimensional: no tangent direction to sample")
    require_within_stack_cap("the study's sample stack needs", 8 * n_samples * n * k)
    alpha_max = _largest_modulus(n, k)
    if alpha > alpha_max:
        raise GeometryError(f"modulus {alpha} can overflow the dual check; "
                            f"the largest at n={n}, k={k} is {alpha_max}")
    if not alpha > 0:
        raise GeometryError(f"modulus must be positive, got {alpha}")
    if n_samples < 1:
        raise GeometryError("need at least one sample")

    def f(u: np.ndarray) -> np.ndarray:
        return penalty_h(u, beta)

    def distance(stack: np.ndarray) -> np.ndarray:
        return slice_distances(stack)[0]

    reference = np.zeros((n, k))
    reference[:k, :k] = np.eye(k)
    point = Point(manifold, reference)
    samples = random_stiefel(n, k, default_rng(seed), n_samples)
    wsm_verdict = verify_wsm_sampled(f, distance, point, samples, alpha)
    probes = np.repeat(reference[None], k, axis=0)
    probes[np.arange(k), np.arange(k), np.arange(k)] = -1.0
    probe_verdict = verify_wsm_sampled(f, distance, point, probes, alpha)

    frames = [reference]
    rng = default_rng(seed + 1)
    for _ in range(2):
        frames.append(random_stiefel_plus(n, k, rng))
    dual = [check_dual_nc(f, stiefel_plus_normal_cone(frame), alpha=alpha, seed=seed + 101 * i,
                          schedule=STUDY_SCHEDULE) for i, frame in enumerate(frames)]
    return PenaltyStudy(wsm=wsm_verdict, probes=probe_verdict, dual=tuple(dual))
