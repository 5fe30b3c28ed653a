"""Concrete finite-dimensional Riemannian manifolds with exact chart maps.

Three embedded manifolds are supported: Euclidean space R^n, the unit sphere
embedded in R^n, and the Stiefel manifold St(n, k) of n-by-k matrices with
orthonormal columns.  Euclidean spaces and spheres come with
closed-form exponential/logarithm maps, geodesic distances, and a known
curvature bound, which makes them usable as exact oracles.  St(n, k) has no
closed-form geodesic distance; here it carries a QR retraction and the ambient
(chordal) distance, a documented surrogate that lower-bounds the true geodesic
distance and is all the downstream clustering pipeline needs.

All types are immutable values; every operation is pure.  Sampling helpers
take an explicit seed or generator and never touch global RNG state, and the
local-distance verifier derives an independent substream per radius.
Substreams come from ``spawned_generators``, which builds the generators of
``SeedSequence(seed).spawn(n)`` for many seeds: numpy mixes each seed once,
and the spawn keys and the state words take one numpy pass.

The tangent projection, the tangency check, the on-manifold check, the
exponential and logarithm maps, the distance and the seeded tangent draw
also take a stack (s, *ambient_shape) of vectors at one point (or of
points), for the sampled estimators that work a block at a time; each row
comes out bitwise as if it were handled alone.  ``Point`` and ``Tangent``
are validated by the same stack rules on a one-row stack, and both refuse
non-finite coordinates.

Set samplers follow one contract here and in ``cones`` and ``fixtures``: a
sampler returns one stack (s, *ambient_shape) of point coordinates, and the
code that takes it checks it with a single ``require_on_manifold`` call
(``point_stack``) instead of building a ``Point`` per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

from .stiefel import frame_residual

FEASIBILITY_TOL = 1e-10   # on-manifold residual allowed for Point
TANGENCY_TOL = 1e-10      # relative tangency residual allowed for Tangent
INJECTIVITY_GUARD = 0.99  # sphere log refuses beyond this fraction of pi


class GeometryError(ValueError):
    """A geometric precondition failed (wrong manifold, chart domain, rank)."""


class BudgetExceededError(RuntimeError):
    """The run would exceed a work or memory budget (the enumeration's
    assignments, the solver's frame stacks, a sample budget's largest
    array); refusing to silently approximate."""


# Cap on the bytes of every sample budget's largest array, checked by the
# function that sizes it before its draws (``require_within_stack_cap``):
# the solver's frame stack, restarts x n x k float64, its three max_iters x
# restarts float64 traces, and its edge differences B U, restarts x m x k
# float64 for a graph of m edges, checked in that order; the penalty study's
# sample stack; the local-distance lemma's test-to-set distance table; and
# the covector rows of one distance-subdifferential identity check.  A solve
# holds about ten frame-stack-sized arrays, a few B U-sized ones (B U, its
# signs, and the two int64 scatter indices of cheeger._incidence_plan), plus
# the block buffers: at most cheeger.SOLVER_BLOCK_BYTES of iterates (one
# iterate when a stack is larger) and their k x k QR heads.  At the default
# 20 restarts the benchmark's largest graphs, (n, k) = (200, 4), need a
# 125 KiB frame stack, over 500 times below the cap.
STACK_BYTES = 1 << 26


def require_within_stack_cap(needs: str, nbytes: int) -> None:
    """Refuse (``BudgetExceededError``) a budget that needs more than
    STACK_BYTES, with the reason "<needs> <nbytes> bytes, cap is ...", where
    ``needs`` names the array and its verb ("the solver's traces need")."""
    if nbytes > STACK_BYTES:
        raise BudgetExceededError(f"{needs} {nbytes} bytes, cap is {STACK_BYTES}")


@dataclass(frozen=True)
class ManifoldDescriptor:
    """Identity of one of the supported manifolds.

    kind is one of ``euclidean``, ``sphere``, ``stiefel``.  ``n`` is the
    ambient vector dimension (euclidean/sphere) or the frame height (stiefel);
    ``k`` is the frame width for stiefel.  Spheres have radius 1.
    """

    kind: str
    n: int
    k: int = 0

    def __post_init__(self):
        if self.kind == "euclidean":
            if self.n < 1:
                raise GeometryError(f"euclidean dimension must be >= 1, got {self.n}")
        elif self.kind == "sphere":
            if self.n < 2:
                raise GeometryError(f"sphere ambient dimension must be >= 2, got {self.n}")
        elif self.kind == "stiefel":
            if not 0 < self.k <= self.n:
                raise GeometryError(f"stiefel needs 0 < k <= n, got n={self.n}, k={self.k}")
        else:
            raise GeometryError(f"unknown manifold kind {self.kind!r}")

    @property
    def intrinsic_dim(self) -> int:
        if self.kind == "euclidean":
            return self.n
        if self.kind == "sphere":
            return self.n - 1
        return self.n * self.k - self.k * (self.k + 1) // 2

    @property
    def ambient_shape(self) -> tuple:
        return (self.n, self.k) if self.kind == "stiefel" else (self.n,)

    def __str__(self):
        if self.kind == "sphere":
            return f"sphere({self.n}, radius=1.0)"
        if self.kind == "stiefel":
            return f"stiefel({self.n}, {self.k})"
        return f"euclidean({self.n})"


def euclidean(n: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("euclidean", n)


def sphere(n: int) -> ManifoldDescriptor:
    """The unit sphere in R^n."""
    return ManifoldDescriptor("sphere", n)


def stiefel(n: int, k: int) -> ManifoldDescriptor:
    return ManifoldDescriptor("stiefel", n, k=k)


def _readonly(a, dtype=float) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def feasibility_residuals(m: ManifoldDescriptor, coords: np.ndarray) -> np.ndarray:
    """On-manifold residual of each row of a stack (s, *ambient_shape) of
    coordinates: 0 for euclidean, |norm - 1| for spheres, ||U^T U - I||_F
    for stiefel."""
    if m.kind == "euclidean":
        return np.zeros(len(coords))
    if m.kind == "sphere":
        return np.abs(row_norms(coords) - 1.0)
    return frame_residual(coords)


def require_on_manifold(m: ManifoldDescriptor, coords: np.ndarray) -> None:
    """Raise unless ``coords`` is a stack (s, *ambient_shape) whose every row
    is a point of m: finite, with an on-manifold residual of at most
    FEASIBILITY_TOL.  This is the rule every ``Point`` is validated by."""
    if coords.shape[1:] != m.ambient_shape or coords.ndim != len(m.ambient_shape) + 1:
        raise GeometryError(f"expected a stack of points of shape (s, {m.ambient_shape}), "
                            f"got {coords.shape}")
    if not np.isfinite(coords).all():
        raise GeometryError(f"point on {m} has a non-finite coordinate")
    if m.kind == "euclidean":
        return
    res = feasibility_residuals(m, coords)
    bad = res > FEASIBILITY_TOL
    if bad.any():
        raise GeometryError(f"point off {m}: residual {res[bad.argmax()]:.3e}")


@dataclass(frozen=True, eq=False)
class Point:
    """A point on a manifold, stored in ambient (embedded) coordinates."""

    manifold: ManifoldDescriptor
    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(self.coords)
        if coords.shape != self.manifold.ambient_shape:
            raise GeometryError(
                f"coords shape {coords.shape} does not match {self.manifold} "
                f"(expected {self.manifold.ambient_shape})"
            )
        object.__setattr__(self, "coords", coords)
        require_on_manifold(self.manifold, coords[None])


def point_stack(m: ManifoldDescriptor, coords) -> np.ndarray:
    """A sampler's output as a C-ordered float stack of points of m, checked
    by one ``require_on_manifold`` call.  (Rows of a C-ordered stack are laid
    out as a lone point is, which the per-row bits of the stack routines
    rely on: BLAS dots of strided rows may round differently.)"""
    coords = np.ascontiguousarray(coords, dtype=float)
    require_on_manifold(m, coords)
    return coords


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product of each row of a stack with the matching row of a second
    stack, or with one row shared by all.

    ``np.vecdot`` runs one BLAS dot per row, so the values are bitwise those
    of ``np.dot`` on the flattened rows (and their square roots those of
    ``np.linalg.norm``)."""
    if a.ndim > 2:
        size = math.prod(a.shape[1:])
        a, b = a.reshape(len(a), size), b.reshape(-1, size)
    return np.vecdot(a, b)


def row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a stack, bitwise ``np.linalg.norm`` of
    each row."""
    return np.sqrt(_row_dots(a, a))


def _per_row(values: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Per-row scalars shaped to broadcast against the stack ``like``."""
    return values.reshape(-1, *(1,) * (like.ndim - 1))


def require_tangent(p: Point, vecs: np.ndarray) -> None:
    """Raise unless every row of the stack ``vecs`` is a finite tangent vector
    at p.

    A row's residual (|<v, p>| on spheres, ||V^T P + P^T V||_F on
    stiefel, identically 0 on euclidean) may be at most TANGENCY_TOL times
    its norm; the first offending row is reported.  This is the rule every
    ``Tangent`` is validated by."""
    if not np.isfinite(vecs).all():
        raise GeometryError("tangent vector has a non-finite entry")
    m = p.manifold
    if m.kind == "euclidean":
        return
    if m.kind == "sphere":
        residuals = np.abs(_row_dots(vecs, p.coords))
    else:
        residuals = row_norms(np.swapaxes(vecs, -1, -2) @ p.coords + p.coords.T @ vecs)
    norms = row_norms(vecs)
    bad = residuals > TANGENCY_TOL * np.maximum(norms, 1e-30)
    if bad.any():
        i = bad.argmax()  # the first offending row
        raise GeometryError(
            f"vector not tangent at base (residual {residuals[i]:.3e} vs norm {norms[i]:.3e})"
        )


@dataclass(frozen=True, eq=False)
class Tangent:
    """A tangent vector at ``base``; covectors are identified with tangents
    through the embedded metric, so the same type serves both roles."""

    base: Point
    vec: np.ndarray

    def __post_init__(self):
        vec = _readonly(self.vec)
        if vec.shape != self.base.manifold.ambient_shape:
            raise GeometryError(f"tangent shape {vec.shape} does not match {self.base.manifold}")
        object.__setattr__(self, "vec", vec)
        require_tangent(self.base, vec[None])


def exp_coords(p: Point, vecs: np.ndarray) -> np.ndarray:
    """Ambient coordinates of exp_p(v) for each row v of a stack
    (s, *ambient_shape) of tangent vectors at p; the rows are not validated
    as points.  Exact: p + v on euclidean, the great-circle arc on the
    sphere.  St(n, k) is refused (no closed form is implemented); use
    ``stiefel.qr_retract``."""
    m = p.manifold
    if m.kind == "euclidean":
        return p.coords + vecs
    if m.kind != "sphere":
        raise GeometryError(f"no exact exponential map for {m}; use qr_retract")
    nv = row_norms(vecs).tolist()
    if 0.0 in nv:  # a zero step stays at p
        moving = np.array(nv) != 0.0
        coords = np.repeat(p.coords[None], len(vecs), axis=0)
        coords[moving] = exp_coords(p, vecs[moving])
        return coords
    # scalar libm cos/sin row by row (np.cos/np.sin may round differently)
    cos_t = np.array([math.cos(n) for n in nv])
    coef = np.array([math.sin(n) / n for n in nv])
    coords = _per_row(cos_t, vecs) * p.coords + _per_row(coef, vecs) * vecs
    # renormalize to kill the O(eps) drift of the closed form
    coords *= _per_row(1.0 / row_norms(coords), vecs)
    return coords


def log_coords(p: Point, coords: np.ndarray) -> np.ndarray:
    """log_p(q) for each row q of a stack of points of p's manifold
    (euclidean or sphere), checked tangent at p.  Refuses a row beyond the
    injectivity guard."""
    m = p.manifold
    if m.kind == "euclidean":
        vecs = coords - p.coords
    elif m.kind == "sphere":
        dots = _row_dots(coords, p.coords)
        w = coords - _per_row(dots, coords) * p.coords
        nw = row_norms(w)
        theta = _atan2(nw, dots)
        far = theta > INJECTIVITY_GUARD * math.pi
        if far.any():
            raise GeometryError(
                f"log undefined: points {theta[far.argmax()] / math.pi:.4f}*pi apart, "
                f"beyond the {INJECTIVITY_GUARD}*pi guard"
            )
        with np.errstate(divide="ignore", invalid="ignore"):
            vecs = _per_row(theta / nw, w) * w
        vecs[nw == 0.0] = 0.0
    else:
        raise GeometryError(f"no exact logarithm map for {m}")
    require_tangent(p, vecs)
    return vecs


def _atan2(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Elementwise atan2 by scalar libm calls (np.arctan2 may round
    differently)."""
    return np.array([math.atan2(a, b) for a, b in zip(y.ravel().tolist(), x.ravel().tolist())]
                    ).reshape(y.shape)


def pairwise_distances(m: ManifoldDescriptor, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance from each row of the stack ``a`` to each row of the stack
    ``b`` of points of m, shape (len(a), len(b)): geodesic on euclidean and
    sphere, the ambient chordal distance ||P - Q||_F on stiefel (a surrogate
    that lower-bounds the geodesic one)."""
    size = math.prod(m.ambient_shape)
    a, b = a.reshape(len(a), 1, size), b.reshape(1, len(b), size)
    if m.kind != "sphere":
        return _pair_norms(b - a)
    dots = np.vecdot(a, b)
    w = b - dots[..., None] * a
    return _atan2(_pair_norms(w), dots)


def _pair_norms(diffs: np.ndarray) -> np.ndarray:
    """Row norms of a (A, B, size) array of vectors, shape (A, B)."""
    return row_norms(diffs.reshape(-1, diffs.shape[-1])).reshape(diffs.shape[:2])


def tangent_project(m: ManifoldDescriptor, base: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ambient vectors onto the tangent space of m at
    the point with coordinates ``base``.

    ``z`` is one ambient vector (shape ``m.ambient_shape``) or a stack of them
    (shape ``(s, *m.ambient_shape)``); the result has the shape of z.  On
    stiefel the projection is Z - P sym(P^T Z), so ``base`` may be any frame,
    validated or not, or a stack of frames paired slice by slice with z.  The
    projection is applied twice, which scrubs the roundoff left when z has a
    large normal part.
    """
    base = np.asarray(base, dtype=float)
    z = np.asarray(z, dtype=float)
    if m.ambient_shape not in (z.shape, z.shape[1:]):
        raise GeometryError(f"ambient vector shape {z.shape} does not match {m}")
    if m.kind == "euclidean":
        return z
    for _ in range(2):
        if m.kind == "sphere":
            z = z - np.vecdot(z, base)[..., None] * base
        else:
            s = base.mT @ z
            z = z - base @ ((s + np.swapaxes(s, -1, -2)) / 2.0)
    return z


def curvature_norm(m: ManifoldDescriptor) -> float:
    """Largest curvature value over orthonormal frames: 0 for euclidean,
    1 for the unit sphere.  Unknown for stiefel (refused)."""
    if m.kind == "euclidean":
        return 0.0
    if m.kind == "sphere":
        return 1.0
    raise GeometryError(f"unknown curvature bound for {m}")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); numpy keeps
# the algorithm stream-stable, so the states below are those of any numpy >= 2.0
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875  # entropy mixing
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_WORD = 0xFFFFFFFF


def _hash_chain(start: int, mult: int, count: int) -> list:
    """The hash constant before each of count successive hashmix calls, and
    after the last."""
    chain = [start]
    for _ in range(count):
        chain.append(chain[-1] * mult & _WORD)
    return chain


@lru_cache(maxsize=None)
def _key_constants(calls: int) -> tuple:
    """The xor and then the mult constants of the four hashmix calls that
    SeedSequence makes on a spawn key after ``calls`` earlier ones: 16 for
    the pool fill and the cross-mix, plus 4 per seed word past the fourth."""
    a = _hash_chain(_HASH_INIT_A, _HASH_MULT_A, calls + 4)
    return (*a[calls:calls + 4], *a[calls + 1:])


_STATE_CHAIN = _hash_chain(_HASH_INIT_B, _HASH_MULT_B, 8)  # the 8 uint32 words of 4 uint64
_STATE_XOR = _readonly(_STATE_CHAIN[:8], np.uint32)
_STATE_MULT = _readonly(_STATE_CHAIN[1:], np.uint32)


def _hashmix(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ (value >> _XSHIFT)


class _SpawnedState(ISeedSequence):
    """The seed sequence behind one generator of ``spawned_generators``:
    ``generate_state`` gives PCG64 its four precomputed words."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def spawned_generators(seeds: Sequence[int], keys: Sequence[int]) -> list:
    """Generators in the states of ``[default_rng(SeedSequence(s,
    spawn_key=(i,))) for s in seeds for i in keys]``, seed-major; ``keys =
    range(n)`` gives the children of ``SeedSequence(seed).spawn(n)``.

    Child i of seed s has the entropy words of s, padded with zeros to 4,
    followed by the spawn key i (below 2**32).  numpy's ``SeedSequence(s)``
    mixes the words of s into its pool, once per seed; the mixing of each
    key into its seed's pool and the hashing of the four PCG64 state words
    then take one numpy pass over every (seed, key) row."""
    keys = np.asarray(keys, dtype=np.uint32)
    rows = []
    for seed in seeds:
        seq = SeedSequence(seed)
        width = -(-int(seq.entropy).bit_length() // 32)  # words of the seed
        rows.append([*seq.pool.tolist(), *_key_constants(16 + 4 * max(width - 4, 0))])
    table = np.repeat(np.array(rows, dtype=np.uint32).reshape(-1, 12), len(keys), axis=0)
    key = np.tile(keys, len(rows))[:, None]
    pool = _mix(table[:, :4], _hashmix(key, table[:, 4:8], table[:, 8:]))
    words = _hashmix(np.tile(pool, 2), _STATE_XOR, _STATE_MULT)
    states = np.ascontiguousarray(words, dtype="<u4").view("<u8").astype(np.uint64)
    return [Generator(PCG64(_SpawnedState(w))) for w in states]


def random_tangents(p: Point, gens: Sequence[Generator], count: int) -> np.ndarray:
    """Stack of seeded unit tangent directions at p, uniform over
    directions: ``count`` rows from each generator of the sequence ``gens``
    in turn, projected, checked and normalised as one block.

    Each generator makes one ``standard_normal((count, *ambient_shape))``
    draw, which it fills in order, so its row i is the direction the i-th of
    ``count`` one-row draws from it would give.  A projection of length
    <= 1e-12 (a measure-zero event) is redrawn from the generator it came
    from, at most 64 draws per row; only then does the stream part from the
    one-at-a-time order.
    """
    shape = p.manifold.ambient_shape

    def redraw(rows: np.ndarray) -> np.ndarray:
        owners, counts = np.unique(rows // count, return_counts=True)
        return np.concatenate([gens[g].standard_normal((r, *shape))
                               for g, r in zip(owners.tolist(), counts.tolist())])

    z = np.concatenate([g.standard_normal((count, *shape)) for g in gens])
    return _scaled_tangents(p, z, redraw, 1.0)


def _scaled_tangents(p: Point, z: np.ndarray, redraw: Callable[[np.ndarray], np.ndarray],
                     norm) -> np.ndarray:
    """The stack of ambient draws z projected onto the tangent space at p and
    scaled to length ``norm`` (a float, or one per row), checked tangent.  A
    row whose projection has length <= 1e-12 is replaced by the projection of
    ``redraw(rows)``, fresh draws for those row indices, at most 64 draws per
    row."""
    m = p.manifold
    vecs = tangent_project(m, p.coords, z)
    require_tangent(p, vecs)
    lengths = row_norms(vecs)
    for attempt in range(64):
        redo = np.flatnonzero(lengths <= 1e-12)
        if not redo.size:
            break
        if attempt == 63:
            raise GeometryError("failed to sample a nondegenerate tangent direction")
        vecs[redo] = tangent_project(m, p.coords, redraw(redo))
        require_tangent(p, vecs[redo])
        lengths[redo] = row_norms(vecs[redo])
    vecs = _per_row(norm / lengths, vecs) * vecs
    require_tangent(p, vecs)
    return vecs


def chart_ball_points(p: Point, r: float, rng: Generator, count: int) -> np.ndarray:
    """Stack of ``count`` points of exp_p(B(0, r)), uniform in the chart ball
    (euclidean/sphere).

    The draws stay one point at a time: each point draws its radius, then,
    unless the radius is 0 (the point is p), one ``standard_normal`` draw for
    its direction.  The directions are projected, scaled to their radii and
    mapped as one block; a degenerate projection (a measure-zero event) is
    redrawn after all points, as in ``random_tangents``."""
    m = p.manifold
    exponent = 1.0 / max(m.intrinsic_dim, 1)
    radii = np.zeros(count)
    draws = []
    for i in range(count):
        radii[i] = r * float(rng.uniform()) ** exponent
        if radii[i] != 0.0:
            draws.append(rng.standard_normal(m.ambient_shape))
    coords = np.repeat(p.coords[None], count, axis=0)
    if draws:
        moving = radii != 0.0
        steps = _scaled_tangents(
            p, np.array(draws),
            lambda rows: rng.standard_normal((len(rows), *m.ambient_shape)), radii[moving])
        coords[moving] = exp_coords(p, steps)
    return coords


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of the local distance comparison between the manifold metric
    and the exponential-chart metric on shrinking balls.

    ``worst_ratio_deviation[i]`` is the largest sampled value of
    |dist(u; S_r) / dist(chart u; chart S_r) - 1| at radius ``radii[i]``.
    ``fitted_order`` is the log-log slope over the radii; ``fitted_coefficient``
    is the leading r^2 coefficient (geometric mean of deviation / r^2), which
    the curvature bound predicts to be at most curvature/6 up to higher order.
    """

    radii: tuple
    worst_ratio_deviation: tuple
    fitted_order: float
    fitted_coefficient: float
    target_coefficient: float
    coefficient_ok: bool


FLAT_DEVIATION = 1e-12  # below this the chart is treated as exact (flat case)
# radii of the local-distance comparison: at least 3 for the order fit,
# strictly decreasing, and below the injectivity guard of the unit sphere
LEMMA_RADII = (0.4, 0.2, 0.1, 0.05)
COEFFICIENT_SLACK = 0.25  # relative excess over curvature/6 the fitted coefficient may show
SPHERE_SAMPLER_POINTS = 16  # points per radius of ``geodesic_sphere_sampler``


def verify_local_distance_lemma(
    p: Point,
    set_sampler: Callable[[float, Generator], np.ndarray],
    samples_per_radius: int = 200,
    seed: int = 0,
) -> LemmaReport:
    """Compare set distances against their exponential-chart images.

    For each radius r of LEMMA_RADII, ``set_sampler(r, rng)`` must return a
    stack of points of a finite subset of the target set intersected with
    B(p, r).  Test points are drawn uniformly from the chart ball of radius
    r; for each, the ratio of the manifold set distance to the chart set
    distance is measured.  The distances from all test points to all set
    points are one table per radius, refused past STACK_BYTES before the
    test points are drawn.  The worst deviations are regressed on r in
    log-log scale and the r^2 coefficient is compared with curvature/6
    inflated by COEFFICIENT_SLACK.
    """
    m = p.manifold
    if m.kind not in ("euclidean", "sphere"):
        raise GeometryError(f"exact distance oracle unavailable on {m}")

    deviations = []
    for r, rng in zip(LEMMA_RADII, spawned_generators([seed], range(len(LEMMA_RADII)))):
        omega = point_stack(m, set_sampler(r, rng))
        if not len(omega):
            raise GeometryError(f"set sampler returned no points at r={r}")
        if np.any(pairwise_distances(m, p.coords[None], omega) > r * (1.0 + 1e-9)):
            raise GeometryError(f"sampler produced a point outside B(p, {r})")
        require_within_stack_cap("the lemma's test-to-set distance table needs",
                                 8 * samples_per_radius * len(omega) * p.coords.size)
        chart_set = log_coords(p, omega)
        u = point_stack(m, chart_ball_points(p, r, rng, samples_per_radius))
        chart_u = log_coords(p, u)
        chart_dist = _pair_norms(chart_u[:, None] - chart_set[None]).min(axis=1)
        keep = chart_dist >= 1e-14  # a test point that collided with a set point is skipped
        manifold_dist = pairwise_distances(m, u[keep], omega).min(axis=1)
        deviations.append(float(np.max(np.abs(manifold_dist / chart_dist[keep] - 1.0),
                                       initial=0.0)))

    target = curvature_norm(m) / 6.0
    if all(d <= FLAT_DEVIATION for d in deviations):
        order, coefficient = float("nan"), float("nan")
        ok = True
    else:
        logs_r = np.log(LEMMA_RADII)
        logs_d = np.log(np.maximum(deviations, 1e-300))
        order = float(np.polyfit(logs_r, logs_d, 1)[0])
        coefficient = float(np.exp(np.mean(logs_d - 2.0 * logs_r)))
        ok = coefficient <= (1.0 + COEFFICIENT_SLACK) * target + 1e-15
    return LemmaReport(
        radii=LEMMA_RADII,
        worst_ratio_deviation=tuple(deviations),
        fitted_order=order,
        fitted_coefficient=coefficient,
        target_coefficient=target,
        coefficient_ok=ok,
    )


def geodesic_sphere_sampler(p: Point) -> Callable[[float, Generator], np.ndarray]:
    """Sampler of the stack of SPHERE_SAMPLER_POINTS points at geodesic
    distance exactly r from p, at seeded angles in a fixed tangent 2-plane.
    Standard fixture for the local-distance verifier."""

    def sampler(r: float, rng: Generator) -> np.ndarray:
        u, w = _tangent_plane_basis(p, rng)
        angles = np.linspace(0.0, 2.0 * math.pi, SPHERE_SAMPLER_POINTS, endpoint=False)
        angles = (angles + rng.uniform(0.0, 2.0 * math.pi / SPHERE_SAMPLER_POINTS)).tolist()
        cos = np.array([math.cos(a) for a in angles])
        sin = np.array([math.sin(a) for a in angles])
        steps = r * (cos[:, None] * u + sin[:, None] * w)
        require_tangent(p, steps)
        return exp_coords(p, steps)

    return sampler


def _tangent_plane_basis(p: Point, rng: Generator):
    u = random_tangents(p, [rng], 1)[0]
    for _ in range(64):
        w = random_tangents(p, [rng], 1)[0]
        w = w - np.dot(w, u) * u
        nw = float(np.linalg.norm(w))
        if nw > 1e-8:
            return u, w / nw
    raise GeometryError("could not build a tangent 2-plane (dimension too small?)")
