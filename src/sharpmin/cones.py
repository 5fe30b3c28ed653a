"""Sampled estimators and refuters for first-order variational objects.

Covers Frechet normal cones and subdifferentials, contingent cones and
contingent directional derivatives, all defined through exponential charts
(or, on the Stiefel manifold, through ambient chords, which agree with the
chart quantities in the small-scale limit and match the ambient-intersection
characterization of normal cones on embedded submanifolds).

Refuters are strictly one-sided.  A verdict is ``refuted`` exactly when it
carries a concrete witness sample whose quotient violates the defining
inequality beyond tolerance at two consecutive scales; ``consistent`` only
means no violation was found and is never a membership certificate.

Objectives follow one convention here and in ``wsm`` and ``fixtures``: f
maps a stack (s, *ambient_shape) of ambient coordinates of manifold points to
s values (see ``objective_values``), and each row's value has the bits of
f on that row alone.  Set samplers follow the contract of ``manifolds``:
``sampler(t, rng)`` returns one stack of set points, checked on the manifold
by one call.

Both refuters take a stack of covectors with one seed each (one covector is
a one-row stack), and score the stack as numpy blocks of at most
``REFUTE_BLOCK_BYTES``.  Every scale of every covector draws from its own
stream: ``manifolds.spawned_generators`` gives the states of
``SeedSequence(seed).spawn(n_scales)`` for all the covectors of a call at
once, and a covector's verdict does not depend on the stack it is scored in.  The stack is scored in two waves: the first
FIRST_WAVE scales of every covector, the earliest that can refute one, then
the rest of the schedule for the covectors still unrefuted, so no scale is
scored once its covector is refuted.  ``frechet_subdiff_refute`` lays out
each covector's scales of a wave as rows of the block: the random directions
of each scale come from one seeded ``standard_normal`` draw, are projected,
normalised and checked tangent together, stepped by the row's scale and
mapped in one call (the exact exponential map on euclidean spaces and
spheres, the positive-diagonal QR retraction with its rank check on frames),
checked on the manifold by the rule of ``Point`` and scored by one call of
f.  ``frechet_normal_refute`` and ``contingent_cone_distance`` concatenate
the sampled stacks and pull them back to chart vectors as one block.  Every
reduction keeps the order the one-sample-at-a-time loop used (the first
extremal sample of a scale is its witness), so the traces, witnesses and
skip counts are bitwise those of that loop stopped at the refuting scale: a
refuted covector's trace and skip count end at the scale that refutes it,
and a consistent covector's cover the whole schedule.  The checks of a block
(the sampler's shapes, tangency, the retraction's rank, the manifold rule,
the shape of f's values) run only on the scales that are scored, so a fault
at a scale that a first-wave refutation leaves unscored is not raised.

The module also carries the exact sign/support description of the Frechet
normal cone to the nonnegative Stiefel slice St+(n, k), together with a
constructive neighborhood sampler used to cross-validate that description
against the sampling refuter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, default_rng

from .manifolds import (
    GeometryError,
    Point,
    Tangent,
    _per_row,
    exp_coords,
    log_coords,
    point_stack,
    random_tangents,
    require_on_manifold,
    require_within_stack_cap,
    require_tangent,
    row_norms,
    spawned_generators,
    stiefel,
)
from .reporting import Check
from .stiefel import ENTRY_ZERO_TOL, qr_retract, random_stiefel_plus

REFUTE_TOL = 1e-3      # quotient excess needed, at two consecutive scales
MEMBER_TOL = 1e-10     # pattern membership tolerance
TAIL_SCALES = 2        # smallest scales behind the contingent estimates
MARGIN = 0.1           # cone distance of the covectors the checks must refute
DIRDERIV_TOL = 5e-2    # estimator bias allowed in the directional-derivative identity
REFUTE_BLOCK_BYTES = 1 << 18  # cap on the (rows, *ambient_shape) blocks of one refuter chunk
FIRST_WAVE = 2         # scales scored for every covector: two consecutive hits refute


@dataclass(frozen=True)
class Schedule:
    """Grid of approach scales for the sampled limit estimators; a verdict
    needs an excess of REFUTE_TOL at two consecutive scales."""

    scales: tuple
    samples_per_scale: int = 32

    def __post_init__(self):
        if len(self.scales) < 2:
            raise GeometryError("schedule needs at least two scales to refute anything")
        if any(t <= 0 for t in self.scales):
            raise GeometryError("scales must be positive")
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise GeometryError("scales must be strictly decreasing")
        if self.samples_per_scale < 1:
            raise GeometryError("samples_per_scale must be >= 1")

    @classmethod
    def geometric(cls, n_scales: int = 11, samples_per_scale: int = 32) -> "Schedule":
        """Scales 0.1 * 0.5**j for j < n_scales."""
        scales = tuple(0.1 * 0.5**j for j in range(n_scales))
        return cls(scales=scales, samples_per_scale=samples_per_scale)


DEFAULT_SCHEDULE = Schedule.geometric()


@dataclass(frozen=True, eq=False)
class Witness:
    """The sample achieving a violation: where, at what scale, what quotient."""

    covector: np.ndarray
    point_coords: np.ndarray
    scale: float
    quotient: float


@dataclass(frozen=True, eq=False)
class RefutationVerdict:
    """A refuter's verdict on one covector: refuted exactly when it holds a witness."""

    witness: Witness | None
    # ((scale, extremal quotient), ...) over the schedule; when refuted, it
    # and the skip count end at the refuting scale
    quotient_trace: tuple
    skipped_samples: int = 0  # NaN samples skipped

    @property
    def refuted(self) -> bool:
        return self.witness is not None


class RefutationBlock(tuple):
    """The verdicts of a stack of covectors, in order.  ``refuted`` counts the
    refuted ones and ``skipped_samples`` sums their skips."""

    @property
    def refuted(self) -> int:
        return sum(v.refuted for v in self)

    @property
    def skipped_samples(self) -> int:
        return sum(v.skipped_samples for v in self)


def _covectors(p: Point, x, seed):
    """(stack of covectors, their seeds) from a stack of covectors at p,
    checked tangent, and one seed each."""
    xs = np.ascontiguousarray(x, dtype=float)
    if xs.shape[1:] != p.manifold.ambient_shape or xs.ndim != len(p.manifold.ambient_shape) + 1:
        raise GeometryError(f"covector stack shape {xs.shape} does not match {p.manifold}")
    require_tangent(p, xs)
    seeds = list(seed)
    if len(seeds) != len(xs):
        raise GeometryError(f"{len(xs)} covectors need as many seeds, got {len(seeds)}")
    return xs, seeds


def _chart_block(p: Point, coords: np.ndarray):
    """Chart vectors of a stack of points at p and their lengths: the exact
    log map where one exists, the ambient chord on stiefel."""
    if p.manifold.kind in ("euclidean", "sphere"):
        vecs = log_coords(p, coords)
    else:
        vecs = coords - p.coords
    return vecs, row_norms(vecs)


def _row_inner(x: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<x, v> for each row v of a stack, where x is one vector or one per
    row; each a single sum of the elementwise products, as ``np.sum`` of one
    row gives it."""
    return np.sum(x * vecs, axis=tuple(range(1, vecs.ndim)))


def _two_consecutive(trace, above: bool):
    """Index of the second of two consecutive scales whose extremal quotient
    passes +REFUTE_TOL (above) or -REFUTE_TOL, or None."""
    prev_hit = False
    for idx, (_, q) in enumerate(trace):
        hit = (q > REFUTE_TOL) if above else (q < -REFUTE_TOL)
        if hit and prev_hit:
            return idx
        prev_hit = hit
    return None


def _in_waves(xs: np.ndarray, scales: tuple, score, above: bool) -> list:
    """Verdicts on the covectors xs, scored in two waves.

    ``score(cs, ks)`` scores the covectors of the index list cs at the scale
    indices ks (a range) and gives blocks of their extremal quotients and
    NaN skips, (rows, len(ks)), and extremal samples, (rows, len(ks),
    *ambient_shape), covector-major over cs.  The first wave scores the
    first FIRST_WAVE scales of every covector, the earliest that can refute
    one; the second scores the rest of the schedule, only for the covectors
    the first left unrefuted.  Every (covector, scale) pair draws from its
    own stream, so the split changes no draw; a refuted covector's trace
    and skip count end at its refuting scale in either wave, so no verdict
    depends on the split.  The checks inside ``score`` run only on the
    scales it scores: a covector refuted in the first wave is not checked
    at the later scales."""
    verdicts = [None] * len(xs)
    quotients, skips = [[] for _ in xs], [[] for _ in xs]
    unrefuted = list(range(len(xs)))
    every = range(len(scales))
    for ks in (every[:FIRST_WAVE], every[FIRST_WAVE:]):
        if not unrefuted:  # every verdict was final after the first wave
            break
        best, skipped, samples = (np.concatenate(a) for a in zip(*score(unrefuted, ks)))
        last, still = ks.stop == len(scales), []
        for j, c in enumerate(unrefuted):
            quotients[c] += best[j].tolist()
            skips[c] += skipped[j].tolist()
            trace = tuple(zip(scales, quotients[c]))
            idx = _two_consecutive(trace, above)
            if idx is not None:  # the trace and skips end at the refuting scale
                witness = Witness(covector=np.array(xs[c]),
                                  point_coords=np.array(samples[j, idx - ks.start]),
                                  scale=trace[idx][0], quotient=trace[idx][1])
                verdicts[c] = RefutationVerdict(witness, trace[:idx + 1], sum(skips[c][:idx + 1]))
            elif last:
                verdicts[c] = RefutationVerdict(None, trace, sum(skips[c]))
            else:
                still.append(c)
        unrefuted = still
    return verdicts


def frechet_normal_refute(
    sampler: Callable[[float, Generator], np.ndarray],
    p: Point,
    x,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    seed: Sequence[int],
) -> RefutationBlock:
    """One-sided test of covectors against the Frechet normal cone of a set
    at p.

    ``sampler(t, rng)`` must return a stack of points of the set at distance
    in (0, t] from p, exactly on the set (constructive parameterizations
    only; the quotients are sensitive to O(t) feasibility error).  The
    refuter estimates the limiting sup of <x, chart(u)> / d(u, p) and reports
    ``refuted`` when the quotient exceeds +tol at two consecutive scales.

    ``x`` is a stack of covectors at p and ``seed`` a sequence of seeds, one
    each; the verdicts come as a ``RefutationBlock``.  The covectors are
    scored in two waves (see ``_in_waves``): the first FIRST_WAVE scales of
    every covector, then the rest for the unrefuted ones.  The sampler is
    called once per covector and scale scored; the samples of a chunk of
    covectors are checked on the manifold, pulled back and scored as one
    block, and each scale keeps its first largest quotient.
    """
    xs, seeds = _covectors(p, x, seed)
    scales = schedule.scales
    shape = p.manifold.ambient_shape
    row_bytes = 8 * math.prod(shape)

    def score(cs, ks):
        rngs = iter(spawned_generators([seeds[c] for c in cs], ks))
        chunk, stacks = [], []
        for c in cs:
            for i in ks:
                pts = np.asarray(sampler(scales[i], next(rngs)), dtype=float)
                if pts.shape[1:] != shape:
                    raise GeometryError(
                        f"sampler gave shape {pts.shape} for points of {p.manifold}")
                stacks.append(pts)
            chunk.append(c)
            if sum(map(len, stacks)) * row_bytes >= REFUTE_BLOCK_BYTES or c == cs[-1]:
                yield _normal_block(p, xs[chunk], stacks, scales[ks.start:ks.stop])
                chunk, stacks = [], []

    return RefutationBlock(_in_waves(xs, scales, score, above=True))


def _normal_block(p: Point, xs: np.ndarray, stacks: list, scales: tuple):
    """Extremal quotients, skips (none) and extremal samples of the
    covectors xs at the given scales, from their sampled stacks, one per
    (covector, scale), covector-major."""
    counts = np.array([len(a) for a in stacks])
    coords = point_stack(p.manifold, np.concatenate(stacks))
    segment = np.repeat(np.arange(len(stacks)), counts)  # (covector, scale) of each row
    t = np.asarray(scales)[segment % len(scales)]
    w, d = _chart_block(p, coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _row_inner(xs[segment // len(scales)], w) / d
    q[(d <= 0.0) | (d > 2.0 * t) | np.isnan(q)] = -math.inf
    # one row per (covector, scale), padded with -inf: the first argmax of a
    # row is the first largest quotient of the scale, as a strict-> scan finds it
    table = np.full((len(stacks), max(counts.max(initial=0), 1)), -math.inf)
    starts = np.cumsum(counts) - counts
    table[segment, np.arange(len(q)) - starts[segment]] = q
    first = np.argmax(table, axis=1)
    best = table[np.arange(len(stacks)), first].reshape(len(xs), len(scales))
    # a scale without samples keeps -inf and is never a witness; its row is clipped
    samples = (coords[np.minimum(starts + first, len(coords) - 1)] if len(coords)
               else np.zeros((len(stacks), *p.manifold.ambient_shape)))
    return (best, np.zeros(best.shape, dtype=int),
            samples.reshape(len(xs), len(scales), *p.manifold.ambient_shape))


def objective_values(f: Callable[[np.ndarray], np.ndarray], coords: np.ndarray) -> np.ndarray:
    """f on a stack (s, *ambient_shape) of point coordinates: s floats, one
    per row, from a single call.  Refuses an objective that does not return
    one value per row."""
    values = np.asarray(f(coords), dtype=float)
    if values.shape != (len(coords),):
        raise GeometryError(
            f"objective gave shape {values.shape} for a stack of {len(coords)} points")
    return values


def _base_value(f, p: Point) -> float:
    f0 = float(objective_values(f, p.coords[None])[0])
    if not math.isfinite(f0):
        raise GeometryError("f must be finite at the base point")
    return f0


def _approach_block(p: Point, steps: np.ndarray) -> np.ndarray:
    """Coordinates of the points reached from p by a stack of steps.

    The steps are checked tangent by the rule of ``Tangent`` and mapped in one
    call: the exact exponential map on euclidean and sphere, the QR
    retraction (with its rank check) on stiefel.  The result is checked on
    the manifold by the rule of ``Point``."""
    require_tangent(p, steps)
    if p.manifold.kind in ("euclidean", "sphere"):
        coords = exp_coords(p, steps)
    else:
        coords = qr_retract(p.coords, steps)
    require_on_manifold(p.manifold, coords)
    return coords


def frechet_subdiff_refute(
    f: Callable[[np.ndarray], np.ndarray],
    p: Point,
    x,
    schedule: Schedule = DEFAULT_SCHEDULE,
    *,
    seed: Sequence[int],
) -> RefutationBlock:
    """One-sided test of covectors against the Frechet subdifferential of f
    at p.

    Estimates the limiting inf of (f(u) - f(p) - <x, chart(u)>) / d(u, p)
    over manifold points approaching p along sampled directions, always
    probing +/- the direction of x itself.  ``refuted`` means the quotient
    fell below -tol at two consecutive scales, so x cannot belong to the
    subdifferential; ``consistent`` certifies nothing.

    ``x`` is a stack of covectors at p and ``seed`` a sequence of seeds, one
    each; the verdicts come as a ``RefutationBlock``.  f maps a stack of
    point coordinates to one value per row.  The covectors are scored in two
    waves (see ``_in_waves``): the first FIRST_WAVE scales of every
    covector, then the rest for the unrefuted ones.  In each wave a chunk of
    covectors is one block: for each covector and scale the two probes and
    ``samples_per_scale`` random tangent directions, all stepped, mapped and
    scored together, with one call of f.  A zero covector has no probes; its
    probe rows are padding, never scored.  A sample where f is NaN is
    skipped and counted; the first sample attaining a scale's least quotient
    is that scale's witness.
    """
    xs, seeds = _covectors(p, x, seed)
    f0 = _base_value(f, p)
    row_bytes = 8 * math.prod(p.manifold.ambient_shape)

    def score(cs, ks):
        per_chunk = max(1, REFUTE_BLOCK_BYTES // (_subdiff_rows(schedule, len(ks)) * row_bytes))
        for start in range(0, len(cs), per_chunk):
            chunk = cs[start:start + per_chunk]
            yield _subdiff_block(f, f0, p, xs[chunk], [seeds[c] for c in chunk], schedule, ks)

    return RefutationBlock(_in_waves(xs, schedule.scales, score, above=False))


def _subdiff_rows(schedule: Schedule, n_scales: int) -> int:
    """Rows the subdifferential refuter scores per covector over n_scales
    scales of the schedule: two probes and ``samples_per_scale`` directions
    at each."""
    return n_scales * (2 + schedule.samples_per_scale)


def _subdiff_block(f, f0: float, p: Point, xs: np.ndarray, seeds: list,
                   schedule: Schedule, ks: range):
    """Least quotients, NaN skips and extremal samples of the covectors xs at
    the scale indices ks, laid out as (covector, scale, row) with the two
    probe rows leading each scale."""
    scales, samples = schedule.scales[ks.start:ks.stop], schedule.samples_per_scale
    shape = p.manifold.ambient_shape
    n_x, n_s, per_scale = len(xs), len(scales), 2 + samples
    xnorm = row_norms(xs)
    unit = xs / _per_row(np.where(xnorm > 0, xnorm, 1.0), xs)
    probes = np.broadcast_to(np.stack([unit, -unit], axis=1)[:, None], (n_x, n_s, 2, *shape))
    dirs = random_tangents(p, spawned_generators(seeds, ks), samples)
    dirs = np.concatenate([probes, dirs.reshape(n_x, n_s, samples, *shape)], axis=2)
    dirs = dirs.reshape(-1, *shape)
    padding = np.zeros((n_x, n_s, per_scale), dtype=bool)
    padding[xnorm == 0, :, :2] = True
    padding = padding.ravel()
    t = np.tile(np.repeat(scales, per_scale), n_x)  # each row's scale
    coords = _approach_block(p, _per_row(t, dirs) * dirs)
    fu = objective_values(f, coords)
    nan = np.isnan(fu) & ~padding
    excluded = nan | padding
    x_rows = np.repeat(xs, n_s * per_scale, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.manifold.kind in ("euclidean", "sphere"):  # exact chart: d = t
            q = (fu - f0 - t * _row_inner(x_rows, dirs)) / t
        else:
            chords = coords - p.coords
            d = row_norms(chords)
            excluded |= d <= 0.0
            q = (fu - f0 - _row_inner(x_rows, chords)) / d
    q[excluded | np.isnan(q)] = math.inf
    q = q.reshape(n_x * n_s, per_scale)
    first = np.argmin(q, axis=1)  # the first least quotient, as a strict-< scan finds it
    least = q[np.arange(len(q)), first].reshape(n_x, n_s)
    samples_at = coords[np.arange(len(q)) * per_scale + first].reshape(n_x, n_s, *shape)
    return least, nan.reshape(n_x, n_s, per_scale).sum(axis=2), samples_at


def contingent_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    p: Point,
    v: Tangent,
) -> float:
    """Ray quotient estimate of the lower directional derivative of f at p
    along v: the least of (f(exp_p(t v)) - f(p)) / t over the smallest
    TAIL_SCALES scales of DEFAULT_SCHEDULE (the QR retraction stands in for
    exp on frames), from one block and one call of f.  A NaN value counts as
    +inf.  No draw is made, so the estimate takes no seed.

    For f Lipschitz near p the limit along the ray equals the contingent
    lower limit (over directions tending to v as well), so the estimate is
    exact in the limit, and exact for linear f.  Otherwise it can
    overestimate: the negative-part penalty h_beta with beta < 1 is not
    Lipschitz at the nonnegative slice, and a ray that leaves the slice only
    through the second-order term of the map has quotients of order
    t^(2 beta - 1) while nearby directions that stay in the slice give 0.
    """
    f0 = _base_value(f, p)
    t = np.asarray(DEFAULT_SCHEDULE.scales[-TAIL_SCALES:])
    fu = objective_values(f, _approach_block(p, _per_row(t, v.vec[None]) * v.vec))
    with np.errstate(over="ignore"):
        q = np.where(np.isfinite(fu), (fu - f0) / t, math.inf)
    return min(q.tolist(), default=math.inf)


def _ray_distances(v: np.ndarray, ws: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Distance from v to each closed ray {s * w : s >= 0} of a stack of
    nonzero w with their lengths."""
    wh = ws / _per_row(lengths, ws)
    s = np.maximum(_row_inner(v, wh), 0.0)
    return row_norms(v - _per_row(s, wh) * wh)


def contingent_cone_distance(
    sampler: Callable[[float, Generator], np.ndarray],
    p: Point,
    v: Tangent,
    seed: int = 0,
) -> float:
    """Sampled distance from v to the contingent cone of a set at p.

    Set points u at scale t are pulled back to normalized chart vectors; the
    estimate is the least distance from v to the rays they span, restricted
    to the smallest TAIL_SCALES scales of DEFAULT_SCHEDULE.  It decreases
    toward the true cone distance as the budget grows and is exactly 0
    whenever a sampled ray hits a contingent direction of v.  The sampler
    runs only at the tail scales, each from the stream its index spawns
    from ``seed`` (keys 9 and 10); their stacks are checked on the manifold
    by one call and scored as one block."""
    scales = DEFAULT_SCHEDULE.scales
    tail = range(len(scales))[-TAIL_SCALES:]
    stacks = [np.asarray(sampler(scales[i], rng), dtype=float)
              for i, rng in zip(tail, spawned_generators([seed], tail))]
    if not len(stacks[-1]):
        raise GeometryError("no set samples at the smallest scale")
    w, d = _chart_block(p, point_stack(p.manifold, np.concatenate(stacks)))
    keep = d > 0.0
    return min([math.inf, *_ray_distances(v.vec, w[keep], d[keep]).tolist()])


# ---------------------------------------------------------------------------
# Normal cone of the nonnegative Stiefel slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PatternCone:
    """Finite description of the Frechet normal cone to St+(n, k) at a
    nonnegative frame P, with P's sign pattern: its zero rows, the mask of
    its positive entries and the rows where each column is positive.

    A tangent matrix X belongs to the cone iff (a) X^T P + P^T X = 0,
    (b) rows of X indexed by the zero rows of P are entrywise nonpositive,
    and (c) X vanishes wherever P is strictly positive.  Entries of X at
    positions where P is zero inside a supported row are not sign-constrained:
    nearby feasible frames keep those entries exactly zero (disjoint column
    supports leave at most one positive entry per row), so approach quotients
    never see them.
    """

    base: Point  # P on stiefel(n, k)
    zero_rows: tuple
    support_mask: np.ndarray
    supports: tuple  # rows where each column is positive; disjoint on St+
    subspace_basis: np.ndarray  # columns: orthonormal basis of the supported-row block

    @property
    def n(self) -> int:
        return self.base.manifold.n

    @property
    def k(self) -> int:
        return self.base.manifold.k

    def _split(self, x: np.ndarray):
        free = ~self.support_mask.any(axis=1)  # the zero rows
        return x[~free, :], x[free, :], free

    def contains(self, x) -> bool:
        """Literal three-condition membership test, each to MEMBER_TOL
        relative to max(1, ||x||)."""
        x = self._coerce(x)
        p = self.base.coords
        tol = MEMBER_TOL * max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(x.T @ p + p.T @ x)) > tol:
            return False
        if np.any(x[list(self.zero_rows), :] > tol):
            return False
        if np.any(np.abs(x[self.support_mask]) > tol):
            return False
        return True

    def project(self, x) -> np.ndarray:
        """Exact Euclidean projection onto the cone: the supported-row block
        projects onto its linear subspace, the zero-row block clamps to the
        nonpositive orthant (the two blocks are orthogonal)."""
        x = self._coerce(x)
        out = np.zeros_like(x)
        top, bottom, free = self._split(x)
        if self.subspace_basis.size:
            coeffs = self.subspace_basis.T @ top.ravel()
            out[~free, :] = (self.subspace_basis @ coeffs).reshape(top.shape)
        out[free, :] = np.minimum(bottom, 0.0)
        return out

    def sample_members(self, rng: Generator, count: int, radius: float = 1.0) -> list:
        """Random cone members with norms spread over (0, radius]."""
        out = []
        for i in range(count):
            x = np.zeros((self.n, self.k))
            top, bottom, free = self._split(x)
            if self.subspace_basis.size:
                coeffs = rng.standard_normal(self.subspace_basis.shape[1])
                x[~free, :] = (self.subspace_basis @ coeffs).reshape(top.shape)
            if free.any():
                x[free, :] = -np.abs(rng.standard_normal((int(free.sum()), self.k)))
            nrm = float(np.linalg.norm(x))
            if nrm > 0:
                target = radius if i == 0 else radius * float(rng.uniform(0.05, 1.0))
                x *= target / nrm
            out.append(x)
        return out

    def extreme_rays(self) -> list:
        """Unit generators along the orthant part plus signed basis elements
        of the subspace part; the sampled dual checks probe these first."""
        rays = []
        for i in self.zero_rows:
            for j in range(self.k):
                e = np.zeros((self.n, self.k))
                e[i, j] = -1.0
                rays.append(e)
        for c in range(self.subspace_basis.shape[1] if self.subspace_basis.size else 0):
            b = np.zeros((self.n, self.k))
            top, _, free = self._split(b)
            vec = self.subspace_basis[:, c]
            b[~free, :] = vec.reshape(top.shape)
            rays.append(b)
            rays.append(-b)
        return rays

    def _coerce(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.k):
            raise GeometryError(f"covector shape {x.shape} does not match frame "
                                f"({self.n}, {self.k})")
        return x


def stiefel_plus_normal_cone(frame) -> PatternCone:
    """Sign/support pattern of the Frechet normal cone to St+(n, k) at P.

    P must be entrywise nonnegative to ENTRY_ZERO_TOL and a point of
    stiefel(n, k) by the rule of ``Point``; the cone keeps that ``Point`` as
    its base.  Entries within ENTRY_ZERO_TOL of zero are classified as zero;
    feasibility drift from retractions stays two orders below that threshold
    by construction.  This is the one place the sign pattern of a St+ frame
    is classified.
    """
    mat = np.asarray(frame, dtype=float)
    if mat.ndim != 2:
        raise GeometryError(f"expected a frame matrix, got shape {mat.shape}")
    if not np.all(mat >= -ENTRY_ZERO_TOL):
        raise GeometryError("base frame has a negative entry beyond tolerance")
    base = Point(stiefel(*mat.shape), mat)
    mask = base.coords > ENTRY_ZERO_TOL
    # the basis is built from the frame with its near-zero entries snapped to 0
    basis = _supported_block_basis(np.where(mask, base.coords, 0.0), mask)
    for a in (mask, basis):
        a.flags.writeable = False
    return PatternCone(base=base, zero_rows=tuple(np.flatnonzero(~mask.any(axis=1)).tolist()),
                       support_mask=mask,
                       supports=tuple(tuple(np.flatnonzero(col).tolist()) for col in mask.T),
                       subspace_basis=basis)


def _supported_block_basis(mat: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {V on the supported rows : V^T P + P^T V = 0 and
    V = 0 on the support of P}, flattened row-major."""
    k = mat.shape[1]
    supported = mask.any(axis=1)
    top = mat[supported, :]
    t_rows = top.shape[0]
    dim = t_rows * k
    if dim == 0:
        return np.zeros((0, 0))
    rows = []
    for idx in np.flatnonzero(mask[supported, :].ravel()):
        r = np.zeros(dim)
        r[idx] = 1.0
        rows.append(r)
    for a in range(k):
        for b in range(a, k):
            r = np.zeros((t_rows, k))
            r[:, b] += top[:, a]
            r[:, a] += top[:, b]
            rows.append(r.ravel())
    basis = _null_space(np.vstack(rows))
    return basis if basis.size else np.zeros((dim, 0))


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a, by the rank rule of
    ``scipy.linalg.null_space``: singular values above max(s) * eps *
    max(a.shape) count toward the rank, and the basis is ``vh[rank:].T``."""
    _, sv, vh = np.linalg.svd(a, full_matrices=True)
    tol = np.amax(sv, initial=0.0) * (np.finfo(float).eps * max(a.shape))
    return vh[int(np.sum(sv > tol)):].T


def stiefel_plus_sampler(cone: PatternCone) -> Callable[[float, Generator], np.ndarray]:
    """Constructive sampler of St+(n, k) near the base frame P of a cone.

    Returns the stack of frames obtained from single row rotations that stay
    exactly feasible: mass moved into a zero row from a supported row, and
    mass redistributed between two rows supporting the same column (both
    signs).  Composite moves are deliberately excluded: single moves keep the
    approach quotients of true cone members nonpositive exactly, so the
    refuter cross-validation carries no false-positive risk from sampling
    bias.

    Each move rotates by the angles theta, theta * u and -theta, with u from
    one ``rng.uniform(0.3, 0.95, size=moves)`` draw; the angles and their
    cosines and sines are scalar libm values, the rotations one block, and
    the nonnegativity and distance filters masks, in move order.  theta and
    the cosines and sines of +/-theta depend on t alone and are computed once
    per scale; a call computes those of theta * u.
    """
    mat = cone.base.coords
    moves = []  # (i, j, ||row j||): rotate rows i <- j, j supporting a column
    for sup in cone.supports:
        for j in sup:
            wj = float(np.linalg.norm(mat[j, :]))
            moves += [(i, j, wj) for i in cone.zero_rows] + [(i, j, wj) for i in sup if i != j]
    rows_i = np.repeat(np.array([i for i, _, _ in moves], dtype=int), 3)
    rows_j = np.repeat(np.array([j for _, j, _ in moves], dtype=int), 3)
    weights = [wj for _, _, wj in moves]
    block = np.arange(3 * len(moves))
    ri, rj = mat[rows_i], mat[rows_j]

    rotations = {}  # t -> (thetas, cos and sin rows with the middle angles left to fill)

    def sampler(t: float, rng: Generator) -> np.ndarray:
        if t not in rotations:
            # 2 sin(theta/2) * wj ~ t; cap the angle away from the feasibility edge
            thetas = [min(2.0 * math.asin(min(t / (2.0 * wj), 0.7)), math.pi / 4) for wj in weights]
            ends = [a for th in thetas for a in (th, 0.0, -th)]
            rotations[t] = (thetas, np.array([math.cos(a) for a in ends])[:, None],
                            np.array([math.sin(a) for a in ends])[:, None])
        thetas, cos, sin = rotations[t]
        middle = [th * u for th, u in zip(thetas, rng.uniform(0.3, 0.95, size=len(moves)).tolist())]
        cos, sin = cos.copy(), sin.copy()
        cos[1::3, 0] = [math.cos(a) for a in middle]
        sin[1::3, 0] = [math.sin(a) for a in middle]
        out = np.repeat(mat[None], len(block), axis=0)
        out[block, rows_i] = cos * ri + sin * rj
        out[block, rows_j] = -sin * ri + cos * rj
        d = row_norms(out - mat)
        keep = np.all(out >= 0.0, axis=(1, 2)) & (0.0 < d) & (d <= 2.0 * t)
        return out[keep]

    return sampler


CROSS_VALIDATION_SCHEDULE = Schedule.geometric(n_scales=8)
PER_FRAME = 5  # cone members, and pattern violators, drawn per cross-validated frame


def cross_validate_pattern_cone(n_frames: int = 100, seed: int = 0) -> Check:
    """Check the pattern description against the normal-cone refuter.

    For seeded nonnegative frames of St+(n, k), 2 <= n <= 6 and
    1 <= k <= min(3, n), PER_FRAME cone members sampled from the pattern
    must never be refuted, and PER_FRAME tangent covectors violating a sign
    or support condition by at least MARGIN (measured as distance to the
    pattern) must always be refuted.  Each disagreement is a failure
    (frame index, kind, covector).
    """
    # every frame may record its 2 PER_FRAME covectors, each up to 6 x 3
    require_within_stack_cap("the cross-validation's disagreement record needs",
                             8 * n_frames * 2 * PER_FRAME * 6 * 3)
    rng = default_rng(seed)
    n_members = n_violators = 0
    disagreements = []
    for idx in range(n_frames):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        p = random_stiefel_plus(n, k, rng)
        cone = stiefel_plus_normal_cone(p)
        # draws in the order of one refuter call per covector: the members,
        # a seed per member in the pattern, the violators, a seed per
        # violator outside it; then the frame is scored as one block
        members = cone.sample_members(rng, PER_FRAME)
        member_seeds = [int(rng.integers(2**31)) if cone.contains(x) else None for x in members]
        violators = _pattern_violators(cone, rng)
        violator_seeds = [None if cone.contains(x) else int(rng.integers(2**31))
                          for x in violators]
        scored = [(x, sd) for x, sd in zip(members + violators, member_seeds + violator_seeds)
                  if sd is not None]
        verdicts = iter(frechet_normal_refute(
            stiefel_plus_sampler(cone), cone.base,
            np.array([x for x, _ in scored]).reshape(len(scored), n, k),
            CROSS_VALIDATION_SCHEDULE, seed=[sd for _, sd in scored]))
        for x, sd in zip(members, member_seeds):
            if sd is None:
                disagreements.append((idx, "member-not-in-pattern", x))
            elif next(verdicts).refuted:
                disagreements.append((idx, "member-refuted", x))
        for x, sd in zip(violators, violator_seeds):
            if sd is None:
                disagreements.append((idx, "violator-in-pattern", x))
            elif not next(verdicts).refuted:
                disagreements.append((idx, "violator-not-refuted", x))
        n_members += len(members)
        n_violators += len(violators)
    return Check("pattern_cross_validation", n_members + n_violators, tuple(disagreements),
                 {"frames_checked": n_frames, "members_checked": n_members,
                  "violators_checked": n_violators})


def _pattern_violators(cone: PatternCone, rng: Generator) -> list:
    """PER_FRAME tangent covectors violating one sign or support condition
    of the pattern by at least MARGIN in cone distance.  Frames admitting no such
    tangent violator (no zero rows and all columns singly supported) yield
    nothing: there the pattern is the whole tangent space."""
    p = cone.base.coords
    out = []
    sign_slots = [(i, j) for i in cone.zero_rows for j in range(cone.k)]
    rot_slots = [(col, a, b) for col, sup in enumerate(cone.supports)
                 for ai, a in enumerate(sup) for b in sup[ai + 1:]]
    if not sign_slots and not rot_slots:
        return out
    base_members = cone.sample_members(rng, PER_FRAME)
    for m in base_members:
        bump = MARGIN * (1.0 + float(rng.uniform(0.0, 0.5)))
        use_sign = bool(sign_slots) and (not rot_slots or rng.uniform() < 0.5)
        x = m.copy()
        if use_sign:
            i, j = sign_slots[int(rng.integers(len(sign_slots)))]
            x[i, j] = bump  # zero-row entries are tangency-free coordinates
        else:
            col, a, b = rot_slots[int(rng.integers(len(rot_slots)))]
            d = np.zeros_like(x)
            d[a, col] = -p[b, col]
            d[b, col] = p[a, col]
            d /= np.linalg.norm(d)
            x = x + bump * d  # unit rotation generator, orthogonal to the pattern
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# Identity checks for the distance function
# ---------------------------------------------------------------------------


def check_dist_subdiff_identity(
    fixture,
    n_covectors: int = 50,
    seed: int = 0,
) -> Check:
    """Sampled two-sided test of the distance-function subdifferential.

    (a) covectors sampled from the analytic cone intersected with the unit
    ball must never be refuted against dist(.; set), and each that is fails
    as ("inside", witness); (b) covectors outside the cone by MARGIN, or
    cone directions rescaled past the unit sphere by MARGIN, must be
    refuted, and each that is not fails as ("outside", covector).
    ``fixture`` supplies the analytic distance function and the cone
    samplers (see fixtures module).  The refuter runs on DEFAULT_SCHEDULE.
    A check whose 2 x n_covectors covectors, scored on the refuter's rows of
    the whole schedule, need more than STACK_BYTES is refused before any
    draw (``BudgetExceededError``).
    """
    p = fixture.point
    rows = 2 * n_covectors * _subdiff_rows(DEFAULT_SCHEDULE, len(DEFAULT_SCHEDULE.scales))
    require_within_stack_cap("scoring one identity check needs", 8 * rows * p.coords.size)
    rng = default_rng(seed)
    # draws in the order of one refuter call per covector, then one block
    inside, seeds = [], []
    for _ in range(n_covectors):
        inside.append(fixture.cone_sample_in(rng))
        seeds.append(int(rng.integers(2**31)))
    outside = []
    rays = list(fixture.cone_rays)
    for i in range(n_covectors):
        if rays and i % 2 == 0:
            ray = rays[(i // 2) % len(rays)]
            outside.append((1.0 + MARGIN + float(rng.uniform(0.0, 0.5))) * ray)
        else:
            outside.append(fixture.cone_sample_out(rng, MARGIN))
    seeds += [int(rng.integers(2**31)) for _ in outside]
    covectors = np.array(inside + outside, dtype=float).reshape(len(seeds),
                                                                *p.manifold.ambient_shape)
    verdicts = frechet_subdiff_refute(fixture.dist_fn, p, covectors, seed=seeds)
    failures = [("inside", v.witness) for v in verdicts[:len(inside)] if v.refuted]
    failures += [("outside", x) for x, v in zip(outside, verdicts[len(inside):]) if not v.refuted]
    return Check(fixture.name, len(seeds), tuple(failures),
                 {"inside_checked": len(inside), "outside_checked": len(outside)})


def _directional_rows(f, sampler, p: Point, directions, seeds) -> list:
    """(direction, lhs, rhs) along each direction at p, with one seed each:
    lhs the contingent derivative of f, rhs the sampled distance from the
    direction to the contingent cone of the sampler's set."""
    rows = []
    for vec, sd in zip(directions, seeds):
        v = Tangent(p, vec)
        rows.append((v.vec, contingent_derivative(f, p, v),
                     contingent_cone_distance(sampler, p, v, seed=sd)))
    return rows


def check_dirderiv_identity(fixture, seed: int = 0) -> Check:
    """Finite-dimensional equality test along each of the fixture's
    directions: the lower directional derivative of dist(.; set) matches the
    distance from the direction to the contingent cone, up to estimator bias
    bounded by DIRDERIV_TOL.  A row (direction, lhs, rhs, residual) fails
    unless its residual is at most DIRDERIV_TOL, so a NaN residual (lhs and
    rhs both inf) fails, and the ``max_residual`` counter carries it."""
    seeds = [seed + 7 * i + 3 for i in range(len(fixture.directions))]
    rows = _directional_rows(fixture.dist_fn, fixture.omega_sampler, fixture.point,
                             fixture.directions, seeds)
    residuals = [abs(lhs - rhs) for _, lhs, rhs in rows]
    failures = tuple((*row, r) for row, r in zip(rows, residuals) if not r <= DIRDERIV_TOL)
    return Check(fixture.name, len(rows), failures,
                 {"max_residual": float(np.max(residuals, initial=0.0))})
