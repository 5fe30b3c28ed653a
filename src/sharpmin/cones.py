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

Every sampled limit reads one fixed grid of approach scales, ``SCALES``
(0.1 * 0.5**j for j < 11), and scale i draws its random part from child i
of ``SeedSequence(seed)``.  ``frechet_subdiff_refute`` runs on every scale
with ``samples`` random tangent directions each (SAMPLES_PER_SCALE unless
told), ``frechet_normal_refute`` on NORMAL_SCALES, the first 8, and the
two contingent estimates on the smallest TAIL_SCALES.

Both refuters take a stack of covectors (one covector is a one-row stack)
and one integer seed, and the whole stack shares each scale's draw, so a
covector's verdict does not depend on the stack it is scored in.
``frechet_subdiff_refute`` draws the scale's tangent directions in one seeded
``standard_normal`` draw each, adds the two probes of each nonzero covector,
steps every row by its scale and maps the block in one call (the exact
exponential map on euclidean spaces and spheres, the positive-diagonal QR
retraction with its rank check on frames), checks it on the manifold by the
rule of ``Point`` and scores it by one call of f.  ``frechet_normal_refute``
calls the set sampler once per scale.  Each refuter then scores every
(covector, scale) pair from one quotient table, refused past STACK_BYTES,
and every reduction keeps the order the one-sample-at-a-time loop used (the
first extremal sample of a scale is its witness).  So the traces, witnesses
and skip counts are bitwise those of that loop stopped at the refuting
scale: a refuted covector's trace and skip count end at the scale that
refutes it, and a consistent covector's cover all its refuter's scales.
Every scale is drawn and checked (the sampler's shapes, tangency, the
retraction's rank, the manifold rule, the shape of f's values), whatever
the verdicts.

The contingent estimates take a stack of tangent directions in the same
way and give one value per direction: ``contingent_derivative`` maps one
block of tail-scale steps and calls f once, and
``contingent_cone_distance`` draws one set sample per call and scores every
direction against it as one (directions, rays) table.

The module also carries the exact sign/support description of the Frechet
normal cone to the nonnegative Stiefel slice St+(n, k), together with a
constructive neighborhood sampler used to cross-validate that description
against the sampling refuter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from .manifolds import (
    GeometryError,
    Point,
    _per_row,
    exp_coords,
    log_coords,
    point_stack,
    random_tangents,
    require_on_manifold,
    require_within_stack_cap,
    require_tangent,
    row_norms,
    stiefel,
)
from .reporting import Check
from .stiefel import ENTRY_ZERO_TOL, qr_retract, random_stiefel_plus

REFUTE_TOL = 1e-3      # quotient excess needed, at two consecutive scales
MEMBER_TOL = 1e-10     # pattern membership tolerance
TAIL_SCALES = 2        # smallest scales behind the contingent estimates
MARGIN = 0.1           # cone distance of the covectors the checks must refute
DIRDERIV_TOL = 5e-2    # estimator bias allowed in the directional-derivative identity


SCALES = tuple(0.1 * 0.5**j for j in range(11))  # approach scales of every sampled limit
SAMPLES_PER_SCALE = 32  # random directions a scale of the subdifferential refuter
NORMAL_SCALES = SCALES[:8]  # the normal refuter's scales


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
    # ((scale, extremal quotient), ...) over the refuter's scales; when refuted, it
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


def _covectors(p: Point, x) -> np.ndarray:
    """A stack of covectors, or of tangent directions, at p, checked tangent."""
    xs = np.ascontiguousarray(x, dtype=float)
    if xs.shape[1:] != p.manifold.ambient_shape or xs.ndim != len(p.manifold.ambient_shape) + 1:
        raise GeometryError(f"covector stack shape {xs.shape} does not match {p.manifold}")
    require_tangent(p, xs)
    return xs


def _chart_block(p: Point, coords: np.ndarray):
    """Chart vectors of a stack of points at p and their lengths: the exact
    log map where one exists, the ambient chord on stiefel."""
    if p.manifold.kind in ("euclidean", "sphere"):
        vecs = log_coords(p, coords)
    else:
        vecs = coords - p.coords
    return vecs, row_norms(vecs)


def _table_inner(xs: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """<x_c, v> for each covector x_c of a stack and each flattened vector v
    of vecs[c], a table (len(xs), ..., size), or of vecs[0] when the table's
    leading axis is 1; each a single sum of the elementwise products, as
    ``np.sum`` of one pair gives it."""
    return np.sum(xs.reshape(len(xs), *(1,) * (vecs.ndim - 2), vecs.shape[-1]) * vecs, axis=-1)


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


def _verdicts(xs: np.ndarray, scales: tuple, best: np.ndarray, skipped: np.ndarray,
              extremal, above: bool) -> RefutationBlock:
    """The verdicts on the covectors xs from their extremal quotients and
    NaN skips, each (covectors, scales), and ``extremal(c, i)``, the
    coordinates of covector c's extremal sample at scale i.  A refuted
    covector's trace and skip count end at its refuting scale, whose
    extremal sample is its witness."""
    verdicts = []
    for c, x in enumerate(xs):
        trace = tuple(zip(scales, best[c].tolist()))
        idx = _two_consecutive(trace, above)
        if idx is None:
            verdicts.append(RefutationVerdict(None, trace, sum(skipped[c].tolist())))
            continue
        witness = Witness(covector=np.array(x), point_coords=np.array(extremal(c, idx)),
                          scale=trace[idx][0], quotient=trace[idx][1])
        verdicts.append(RefutationVerdict(witness, trace[:idx + 1],
                                          sum(skipped[c, :idx + 1].tolist())))
    return RefutationBlock(verdicts)


def _set_sample(sampler: Callable[[float, Generator], np.ndarray], p: Point, seed: int,
                indices: range) -> tuple:
    """One set sample: the sampler called at SCALES[i] for each i of
    ``indices``, with child i of ``SeedSequence(seed)``.  Each stack is
    shape-checked, and the stacks are concatenated and checked on the
    manifold by one call; returns the coordinates and each scale's count."""
    shape = p.manifold.ambient_shape
    stacks = []
    for i in indices:
        pts = np.asarray(sampler(SCALES[i], default_rng(SeedSequence(seed, spawn_key=(i,)))),
                         dtype=float)
        if pts.shape[1:] != shape:
            raise GeometryError(f"sampler gave shape {pts.shape} for points of {p.manifold}")
        stacks.append(pts)
    return point_stack(p.manifold, np.concatenate(stacks)), [len(a) for a in stacks]


def frechet_normal_refute(
    sampler: Callable[[float, Generator], np.ndarray],
    p: Point,
    x,
    *,
    seed: int,
) -> RefutationBlock:
    """One-sided test of covectors against the Frechet normal cone of a set
    at p.

    ``sampler(t, rng)`` must return a stack of points of the set at distance
    in (0, t] from p, exactly on the set (constructive parameterizations
    only; the quotients are sensitive to O(t) feasibility error).  The
    refuter estimates the limiting sup of <x, chart(u)> / d(u, p) over
    NORMAL_SCALES and reports ``refuted`` when the quotient exceeds +tol at
    two consecutive scales.

    ``x`` is a stack of covectors at p, and the verdicts come as a
    ``RefutationBlock``.  The sampler is called once per scale, at scale i
    with child i of ``SeedSequence(seed)``, and every covector is scored
    against the same samples: the stacks are checked on the manifold, pulled
    back and scored as one (covectors, samples) table, refused past
    STACK_BYTES once the sampler has given its stacks, and each scale keeps
    its first largest quotient.
    """
    xs = _covectors(p, x)
    scales = NORMAL_SCALES
    coords, counts = _set_sample(sampler, p, seed, range(len(scales)))
    require_within_stack_cap("the normal refuter's quotient table needs",
                             8 * len(xs) * coords.size)
    w, d = _chart_block(p, coords)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _table_inner(xs, w.reshape(1, len(w), math.prod(p.manifold.ambient_shape))) / d
    q[:, (d <= 0.0) | (d > 2.0 * np.repeat(scales, counts))] = -math.inf
    q[np.isnan(q)] = -math.inf
    # each scale keeps the first largest quotient of its samples, as a
    # strict-> scan finds it; a scale without samples keeps -inf, never a witness
    best = np.full((len(xs), len(scales)), -math.inf)
    first = np.zeros(best.shape, dtype=int)
    ends = np.cumsum(counts)
    for i, (a, b) in enumerate(zip(ends - counts, ends)):
        if b > a:
            first[:, i] = a + np.argmax(q[:, a:b], axis=1)
            best[:, i] = q[np.arange(len(xs)), first[:, i]]
    return _verdicts(xs, scales, best, np.zeros(best.shape, dtype=int),
                     lambda c, i: coords[first[c, i]], above=True)


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
    *,
    seed: int,
    samples: int = SAMPLES_PER_SCALE,
) -> RefutationBlock:
    """One-sided test of covectors against the Frechet subdifferential of f
    at p.

    Estimates the limiting inf of (f(u) - f(p) - <x, chart(u)>) / d(u, p)
    over manifold points approaching p along sampled directions, always
    probing +/- the direction of x itself.  ``refuted`` means the quotient
    fell below -tol at two consecutive scales, so x cannot belong to the
    subdifferential; ``consistent`` certifies nothing.

    ``x`` is a stack of covectors at p, and the verdicts come as a
    ``RefutationBlock``.  f maps a stack of point coordinates to one value
    per row.  Scale i of SCALES draws ``samples`` random tangent directions
    from child i of ``SeedSequence(seed)``, shared by every covector, and
    each nonzero covector adds its two probes at each scale.  All steps are
    mapped in one block, f is called once, and every (covector, scale) pair
    is scored from one (covectors, scales, 2 + samples) quotient
    table with the two probes leading each scale; a zero covector has no
    probes, and its probe columns are never scored.  The table is refused
    past STACK_BYTES before any draw, and fewer than one direction a scale is
    refused.  A sample where f is NaN is skipped and counted; the first
    sample attaining a scale's least quotient is that scale's witness.
    """
    xs = _covectors(p, x)
    if samples < 1:  # with no direction a zero covector would pass vacuously
        raise GeometryError(f"samples must be >= 1, got {samples}")
    shape = p.manifold.ambient_shape
    require_within_stack_cap("the subdifferential refuter's quotient table needs",
                             8 * len(xs) * _subdiff_rows(samples) * math.prod(shape))
    f0 = _base_value(f, p)
    scales = np.asarray(SCALES)
    n_s = len(scales)
    xnorm = row_norms(xs)
    nonzero = np.flatnonzero(xnorm > 0)
    unit = xs[nonzero] / _per_row(xnorm[nonzero], xs[nonzero])
    probes = np.broadcast_to(np.stack([unit, -unit], axis=1)[:, None],
                             (len(nonzero), n_s, 2, *shape))
    rngs = [default_rng(child) for child in SeedSequence(seed).spawn(n_s)]
    dirs = np.concatenate([random_tangents(p, rngs, samples), probes.reshape(-1, *shape)])
    t = np.concatenate([np.repeat(scales, samples), np.tile(np.repeat(scales, 2), len(nonzero))])
    coords = _approach_block(p, _per_row(t, dirs) * dirs)
    fu = objective_values(f, coords)
    # the block row behind each (covector, scale, column): the covector's two
    # probes, then the scale's shared directions; a zero covector's probe
    # columns read row 0 and are padding
    rows = np.zeros((len(xs), n_s, 2 + samples), dtype=int)
    rows[:, :, 2:] = np.arange(n_s * samples).reshape(n_s, samples)
    rows[nonzero, :, :2] = n_s * samples + np.arange(2 * n_s * len(nonzero)).reshape(-1, n_s, 2)
    padding = np.zeros(rows.shape, dtype=bool)
    padding[xnorm == 0, :, :2] = True
    nan = np.isnan(fu)[rows] & ~padding
    excluded = nan | padding
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.manifold.kind in ("euclidean", "sphere"):  # exact chart: d = t
            ts = scales[:, None]
            q = (fu[rows] - f0 - ts * _table_inner(xs, dirs.reshape(len(dirs), -1)[rows])) / ts
        else:
            chords = coords - p.coords
            d = row_norms(chords)[rows]
            excluded |= d <= 0.0
            q = (fu[rows] - f0 - _table_inner(xs, chords.reshape(len(chords), -1)[rows])) / d
    q[excluded | np.isnan(q)] = math.inf
    first = np.argmin(q, axis=2)  # the first least quotient, as a strict-< scan finds it
    best = np.take_along_axis(q, first[..., None], axis=2)[..., 0]
    return _verdicts(xs, SCALES, best, nan.sum(axis=2),
                     lambda c, i: coords[rows[c, i, first[c, i]]], above=False)


def _subdiff_rows(samples: int) -> int:
    """Rows of the subdifferential refuter's quotient table per covector:
    two probes and ``samples`` directions at each of the SCALES."""
    return len(SCALES) * (2 + samples)


def contingent_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    p: Point,
    vs,
) -> np.ndarray:
    """Ray quotient estimates of the lower directional derivative of f at p
    along each direction v of the tangent stack ``vs``: the least of
    (f(exp_p(t v)) - f(p)) / t over the smallest TAIL_SCALES of SCALES (the
    QR retraction stands in for exp on frames), one value per direction,
    from one block of steps and one call of f.  A NaN value counts as +inf.
    No draw is made, so the estimate takes no seed.

    For f Lipschitz near p the limit along the ray equals the contingent
    lower limit (over directions tending to v as well), so the estimate is
    exact in the limit, and exact for linear f.  Otherwise it can
    overestimate: the negative-part penalty h_beta with beta < 1 is not
    Lipschitz at the nonnegative slice, and a ray that leaves the slice only
    through the second-order term of the map has quotients of order
    t^(2 beta - 1) while nearby directions that stay in the slice give 0.
    """
    vs = _covectors(p, vs)
    f0 = _base_value(f, p)
    t = np.tile(SCALES[-TAIL_SCALES:], len(vs))
    steps = np.repeat(vs, TAIL_SCALES, axis=0)
    fu = objective_values(f, _approach_block(p, _per_row(t, steps) * steps))
    with np.errstate(over="ignore"):
        q = np.where(np.isfinite(fu), (fu - f0) / t, math.inf)
    return q.reshape(len(vs), TAIL_SCALES).min(axis=1)


def contingent_cone_distance(
    sampler: Callable[[float, Generator], np.ndarray],
    p: Point,
    vs,
    seed: int = 0,
) -> np.ndarray:
    """Sampled distance from each direction v of the tangent stack ``vs`` to
    the contingent cone of a set at p, one value per direction.

    Set points u at the smallest TAIL_SCALES of SCALES are pulled back to
    normalized chart vectors; a direction's estimate is its least distance
    to the rays they span.  It decreases toward the true cone distance as
    the budget grows and is exactly 0 whenever a sampled ray hits a
    contingent direction of v.  One set sample serves the whole stack: the
    sampler runs once at each tail scale i, with child i of
    ``SeedSequence(seed)`` (children 9 and 10), as in the refuters, and the
    directions are scored against the rays as one (directions, rays) table,
    refused past STACK_BYTES."""
    vs = _covectors(p, vs)
    coords, counts = _set_sample(sampler, p, seed, range(len(SCALES))[-TAIL_SCALES:])
    if not counts[-1]:
        raise GeometryError("no set samples at the smallest scale")
    w, d = _chart_block(p, coords)
    keep = d > 0.0
    n_rays, size = int(np.count_nonzero(keep)), math.prod(p.manifold.ambient_shape)
    require_within_stack_cap("the cone distance's ray table needs", 8 * len(vs) * n_rays * size)
    rays = w[keep].reshape(1, n_rays, size) / d[keep][:, None]
    s = np.maximum(_table_inner(vs, rays), 0.0)  # each direction's foot on each ray
    gaps = vs.reshape(len(vs), 1, size) - s[..., None] * rays
    return np.min(row_norms(gaps.reshape(-1, size)).reshape(s.shape), axis=1, initial=math.inf)


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

    Each move rotates by the angles theta, theta * u and -theta, with theta
    set by t and u from one ``rng.uniform(0.3, 0.95, size=moves)`` draw; the
    angles and their cosines and sines are scalar libm values, the rotations
    one block, and the nonnegativity and distance filters masks, in move
    order.
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

    def sampler(t: float, rng: Generator) -> np.ndarray:
        # 2 sin(theta/2) * wj ~ t; cap the angle away from the feasibility edge
        thetas = [min(2.0 * math.asin(min(t / (2.0 * wj), 0.7)), math.pi / 4) for wj in weights]
        middle = rng.uniform(0.3, 0.95, size=len(moves)).tolist()
        angles = [a for th, u in zip(thetas, middle) for a in (th, th * u, -th)]
        cos = np.array([math.cos(a) for a in angles])[:, None]
        sin = np.array([math.sin(a) for a in angles])[:, None]
        out = np.repeat(mat[None], len(block), axis=0)
        out[block, rows_i] = cos * ri + sin * rj
        out[block, rows_j] = -sin * ri + cos * rj
        d = row_norms(out - mat)
        keep = np.all(out >= 0.0, axis=(1, 2)) & (0.0 < d) & (d <= 2.0 * t)
        return out[keep]

    return sampler


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
        # the members, the violators and one refuter seed; the members in the
        # pattern and the violators outside it are scored as one stack
        members = cone.sample_members(rng, PER_FRAME)
        violators = _pattern_violators(cone, rng)
        refute_seed = int(rng.integers(2**31))
        member_in = [cone.contains(x) for x in members]
        violator_in = [cone.contains(x) for x in violators]
        scored = ([x for x, inside in zip(members, member_in) if inside]
                  + [x for x, inside in zip(violators, violator_in) if not inside])
        verdicts = iter(frechet_normal_refute(
            stiefel_plus_sampler(cone), cone.base, np.array(scored).reshape(len(scored), n, k),
            seed=refute_seed))
        for x, inside in zip(members, member_in):
            if not inside:
                disagreements.append((idx, "member-not-in-pattern", x))
            elif next(verdicts).refuted:
                disagreements.append((idx, "member-refuted", x))
        for x, inside in zip(violators, violator_in):
            if inside:
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
    samplers (see fixtures module).  The covectors are drawn first, then
    one refuter seed, and all 2 x n_covectors are refuted as one stack with
    SAMPLES_PER_SCALE directions a scale.  A check whose refuter table,
    2 x n_covectors rows of ``_subdiff_rows`` each, needs more than
    STACK_BYTES is refused before any draw (``BudgetExceededError``).
    """
    p = fixture.point
    rows = 2 * n_covectors * _subdiff_rows(SAMPLES_PER_SCALE)
    require_within_stack_cap("scoring one identity check needs", 8 * rows * p.coords.size)
    rng = default_rng(seed)
    inside = [fixture.cone_sample_in(rng) for _ in range(n_covectors)]
    outside = []
    rays = list(fixture.cone_rays)
    for i in range(n_covectors):
        if rays and i % 2 == 0:
            ray = rays[(i // 2) % len(rays)]
            outside.append((1.0 + MARGIN + float(rng.uniform(0.0, 0.5))) * ray)
        else:
            outside.append(fixture.cone_sample_out(rng, MARGIN))
    covectors = np.array(inside + outside, dtype=float).reshape(2 * n_covectors,
                                                                *p.manifold.ambient_shape)
    verdicts = frechet_subdiff_refute(fixture.dist_fn, p, covectors,
                                      seed=int(rng.integers(2**31)))
    failures = [("inside", v.witness) for v in verdicts[:len(inside)] if v.refuted]
    failures += [("outside", x) for x, v in zip(outside, verdicts[len(inside):]) if not v.refuted]
    return Check(fixture.name, len(covectors), tuple(failures),
                 {"inside_checked": len(inside), "outside_checked": len(outside)})


def _directional_rows(f, sampler, p: Point, directions, seed: int) -> list:
    """(direction, lhs, rhs) along each direction at p: lhs the contingent
    derivative of f, rhs the sampled distance from the direction to the
    contingent cone of the sampler's set, each estimator called once on the
    stack of directions, the cone distance with ``seed``."""
    vs = np.array(directions, dtype=float).reshape(len(directions), *p.manifold.ambient_shape)
    return list(zip(vs, contingent_derivative(f, p, vs).tolist(),
                    contingent_cone_distance(sampler, p, vs, seed=seed).tolist()))


def check_dirderiv_identity(fixture, seed: int = 0) -> Check:
    """Finite-dimensional equality test along each of the fixture's
    directions: the lower directional derivative of dist(.; set) matches the
    distance from the direction to the contingent cone, up to estimator bias
    bounded by DIRDERIV_TOL.  A row (direction, lhs, rhs, residual) fails
    unless its residual is at most DIRDERIV_TOL, so a NaN residual (lhs and
    rhs both inf) fails, and the ``max_residual`` counter carries it."""
    rows = _directional_rows(fixture.dist_fn, fixture.omega_sampler, fixture.point,
                             fixture.directions, seed + 3)
    residuals = [abs(lhs - rhs) for _, lhs, rhs in rows]
    failures = tuple((*row, r) for row, r in zip(rows, residuals) if not r <= DIRDERIV_TOL)
    return Check(fixture.name, len(rows), failures,
                 {"max_residual": float(np.max(residuals, initial=0.0))})
