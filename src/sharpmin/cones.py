"""Sampled estimators and refuters for first-order variational objects.

Covers Frechet normal cones and subdifferentials, contingent cones and
contingent directional derivatives, all defined through exponential charts
(or, on the Stiefel manifold, through ambient chords, which agree with the
chart quantities in the small-scale limit and match the ambient-intersection
characterization of normal cones on embedded submanifolds).

Refuters are strictly one-sided.  A ``refuted`` verdict always carries a
concrete witness sample whose quotient violates the defining inequality
beyond tolerance at two consecutive scales; ``consistent`` only means no
violation was found and is never a membership certificate.

Objectives follow one convention here and in ``wsm`` and ``fixtures``: f
maps a stack (s, *ambient_shape) of ambient coordinates of manifold points to
s values (see ``objective_values``), and each row's value has the bits of
f on that row alone.

``frechet_subdiff_refute`` scores one covector's whole schedule as one block
of shape (scales * rows per scale, *ambient_shape); ``contingent_derivative``
works one block per scale.  Each scale's random directions come from its own
seeded ``standard_normal`` draw; the block is projected onto the tangent
space, normalised and checked tangent by the rule of ``Tangent`` together,
stepped by each row's scale and mapped in one call: the exact exponential map
on euclidean spaces and spheres, the positive-diagonal QR retraction (with
its rank check) on frames.  The mapped block is checked on the manifold by
the rule of ``Point`` and f is called once on it.  Every reduction is taken
row by row in the order the one-sample-at-a-time loop used, so the traces,
witnesses and skip counts are bitwise those of that loop.

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
from numpy.random import Generator, SeedSequence, default_rng
from scipy.linalg import null_space

from .manifolds import (
    GeometryError,
    Point,
    Tangent,
    exp_coords,
    log_map,
    random_tangents,
    require_on_manifold,
    require_tangent,
    row_norms,
    stiefel,
)
from .stiefel import (
    ENTRY_ZERO_TOL,
    StiefelPoint,
    as_matrix,
    column_supports,
    is_nonnegative,
    qr_retract,
    random_stiefel_plus,
    zero_rows as _zero_rows,
)

REFUTE_TOL = 1e-3      # quotient excess needed, at two consecutive scales
MEMBER_TOL = 1e-10     # pattern membership tolerance


@dataclass(frozen=True)
class Schedule:
    """Geometric grid of approach scales for the sampled limit estimators."""

    scales: tuple
    samples_per_scale: int = 32
    tol: float = REFUTE_TOL

    def __post_init__(self):
        if len(self.scales) == 0:
            raise GeometryError("schedule needs at least one scale")
        if any(t <= 0 for t in self.scales):
            raise GeometryError("scales must be positive")
        if any(b >= a for a, b in zip(self.scales, self.scales[1:])):
            raise GeometryError("scales must be strictly decreasing")
        if self.samples_per_scale < 1:
            raise GeometryError("samples_per_scale must be >= 1")

    @classmethod
    def geometric(cls, t0: float = 0.1, eta: float = 0.5, n_scales: int = 11,
                  samples_per_scale: int = 32, tol: float = REFUTE_TOL) -> "Schedule":
        scales = tuple(t0 * eta**j for j in range(n_scales))
        return cls(scales=scales, samples_per_scale=samples_per_scale, tol=tol)


DEFAULT_SCHEDULE = Schedule.geometric()


@dataclass(frozen=True, eq=False)
class Witness:
    """The sample achieving a violation: where, at what scale, what quotient."""

    covector: np.ndarray
    point_coords: np.ndarray | None
    scale: float
    quotient: float


@dataclass(frozen=True, eq=False)
class RefutationVerdict:
    status: str  # "consistent" | "refuted"
    witness: Witness | None
    quotient_trace: tuple  # ((scale, extremal quotient), ...)
    skipped_samples: int = 0

    def __post_init__(self):
        if self.status not in ("consistent", "refuted"):
            raise GeometryError(f"bad status {self.status!r}")
        if self.status == "refuted" and self.witness is None:
            raise GeometryError("refuted verdict requires a witness")

    @property
    def refuted(self) -> bool:
        return self.status == "refuted"


def _chart_vector(p: Point, u: Point):
    """Chart coordinates of u at p and their length: the exact log map where
    one exists, the ambient chord on stiefel."""
    if p.manifold.kind in ("euclidean", "sphere"):
        t = log_map(p, u)
        return t.vec, t.norm
    chord = u.coords - p.coords
    return chord, float(np.linalg.norm(chord))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def _two_consecutive(trace, tol: float, above: bool):
    """Index of the second of two consecutive scales whose extremal quotient
    passes the threshold, or None."""
    prev_hit = False
    for idx, (_, q) in enumerate(trace):
        hit = (q > tol) if above else (q < -tol)
        if hit and prev_hit:
            return idx
        prev_hit = hit
    return None


def frechet_normal_refute(
    sampler: Callable[[float, Generator], Sequence[Point]],
    p: Point,
    x: Tangent,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
) -> RefutationVerdict:
    """One-sided test of x against the Frechet normal cone of a set at p.

    ``sampler(t, rng)`` must yield points of the set at distance in (0, t]
    from p, exactly on the set (constructive parameterizations only;
    the quotients are sensitive to O(t) feasibility error).  The refuter
    estimates the limiting sup of <x, chart(u)> / d(u, p) and reports
    ``refuted`` when the quotient exceeds +tol at two consecutive scales.
    """
    streams = SeedSequence(seed).spawn(len(schedule.scales))
    trace = []
    best = []  # per-scale argmax sample
    for t, ss in zip(schedule.scales, streams):
        rng = default_rng(ss)
        q_max, arg = -math.inf, None
        for u in sampler(t, rng):
            w, d = _chart_vector(p, u)
            if d <= 0.0 or d > 2.0 * t:
                continue
            q = _inner(x.vec, w) / d
            if q > q_max:
                q_max, arg = q, u
        trace.append((t, q_max))
        best.append(arg)
    idx = _two_consecutive(trace, schedule.tol, above=True)
    if idx is not None:
        u = best[idx]
        witness = Witness(covector=np.array(x.vec), point_coords=np.array(u.coords),
                          scale=trace[idx][0], quotient=trace[idx][1])
        return RefutationVerdict("refuted", witness, tuple(trace))
    return RefutationVerdict("consistent", None, tuple(trace))


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
    x: Tangent,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
) -> RefutationVerdict:
    """One-sided test of x against the Frechet subdifferential of f at p.

    Estimates the limiting inf of (f(u) - f(p) - <x, chart(u)>) / d(u, p)
    over manifold points approaching p along sampled directions, always
    probing +/- the direction of x itself.  ``refuted`` means the quotient
    fell below -tol at two consecutive scales, so x cannot belong to the
    subdifferential; ``consistent`` certifies nothing.

    f maps a stack of point coordinates to one value per row.  The whole
    schedule is one block: at every scale the probes and
    ``samples_per_scale`` random tangent directions, all stepped, mapped and
    scored together, with one call of f.  A sample where f is NaN is skipped
    and counted; the first sample attaining a scale's least quotient is that
    scale's witness.
    """
    f0 = _base_value(f, p)
    xnorm = float(np.linalg.norm(x.vec))
    scales = schedule.scales
    shape = p.manifold.ambient_shape
    axes = tuple(range(1, len(shape) + 1))
    rngs = [default_rng(ss) for ss in SeedSequence(seed).spawn(len(scales))]
    dirs = random_tangents(p, rngs, schedule.samples_per_scale)
    dirs = dirs.reshape(len(scales), schedule.samples_per_scale, *shape)
    if xnorm > 0:
        probes = np.stack([x.vec / xnorm, -x.vec / xnorm])
        dirs = np.concatenate([np.broadcast_to(probes, (len(scales), *probes.shape)), dirs],
                              axis=1)
    per_scale = dirs.shape[1]
    dirs = dirs.reshape(-1, *shape)
    t = np.repeat(scales, per_scale)  # each row's scale
    coords = _approach_block(p, t.reshape(-1, *(1,) * len(shape)) * dirs)
    fu = objective_values(f, coords)
    excluded = np.isnan(fu)
    skipped = int(excluded.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        if p.manifold.kind in ("euclidean", "sphere"):  # exact chart: d = t
            q = (fu - f0 - t * np.sum(x.vec * dirs, axis=axes)) / t
        else:
            chords = coords - p.coords
            d = row_norms(chords)
            excluded |= d <= 0.0
            q = (fu - f0 - np.sum(x.vec * chords, axis=axes)) / d
    q[excluded | np.isnan(q)] = math.inf
    q = q.reshape(len(scales), per_scale)
    first = np.argmin(q, axis=1)  # the first least quotient, as a strict-< scan finds it
    trace = tuple(zip(scales, q[np.arange(len(scales)), first].tolist()))
    idx = _two_consecutive(trace, schedule.tol, above=False)
    if idx is not None:
        witness = Witness(covector=np.array(x.vec),
                          point_coords=np.array(coords[idx * per_scale + first[idx]]),
                          scale=trace[idx][0], quotient=trace[idx][1])
        return RefutationVerdict("refuted", witness, trace, skipped)
    return RefutationVerdict("consistent", None, trace, skipped)


def contingent_derivative(
    f: Callable[[np.ndarray], np.ndarray],
    p: Point,
    v: Tangent,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    perturb_frac: float = 0.5,
    n_perturb: int = 8,
    tail_scales: int = 2,
) -> float:
    """Sampled lower directional derivative of f at p along v.

    Difference quotients (f(exp_p(t w)) - f(p)) / t are taken over the
    schedule with w in a ball around v that shrinks linearly with t and
    collapses onto {v} at the smallest ``tail_scales`` scales; the estimate is
    the minimum over those tail scales.  The collapse makes the estimate exact
    for linear functions and for any function Lipschitz near p, where the
    limit along the ray equals the full lower limit.  f maps a stack of point
    coordinates to one value per row; each scale's directions are stepped,
    mapped and scored as one block, with one call of f.
    """
    f0 = _base_value(f, p)
    scales = schedule.scales
    t0 = scales[0]
    streams = SeedSequence(seed).spawn(len(scales))
    tail_start = max(0, len(scales) - tail_scales)
    estimate = math.inf
    vnorm = max(v.norm, 1.0)
    for j, (t, ss) in enumerate(zip(scales, streams)):
        rng = default_rng(ss)
        delta = 0.0 if j >= tail_start else perturb_frac * vnorm * (t / t0)
        ws = v.vec[None]
        if delta > 0:
            ws = np.concatenate([ws, v.vec + delta * random_tangents(p, rng, n_perturb)])
        fu = objective_values(f, _approach_block(p, t * ws))
        fu = fu[~np.isnan(fu)]
        with np.errstate(over="ignore"):
            q = np.where(np.isfinite(fu), (fu - f0) / t, math.inf)
        q_min = min(q.tolist(), default=math.inf)
        if j >= tail_start:
            estimate = min(estimate, q_min)
    return estimate


def ray_distance(v: np.ndarray, w: np.ndarray) -> float:
    """Distance from v to the closed ray {s * w : s >= 0} (w nonzero)."""
    nw = float(np.linalg.norm(w))
    if nw <= 0.0:
        raise GeometryError("ray direction must be nonzero")
    wh = w / nw
    s = max(_inner(v, wh), 0.0)
    return float(np.linalg.norm(v - s * wh))


def contingent_cone_distance(
    sampler: Callable[[float, Generator], Sequence[Point]],
    p: Point,
    v: Tangent,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    tail_scales: int = 2,
) -> float:
    """Sampled distance from v to the contingent cone of a set at p.

    Set points u at scale t are pulled back to normalized chart vectors; the
    estimate is the least distance from v to the rays they span, restricted
    to the smallest ``tail_scales`` scales.  It decreases toward the true
    cone distance as the budget grows and is exactly 0 whenever a sampled
    ray hits a contingent direction of v."""
    streams = SeedSequence(seed).spawn(len(schedule.scales))
    tail_start = max(0, len(schedule.scales) - tail_scales)
    estimate = math.inf
    seen_smallest = False
    for j, (t, ss) in enumerate(zip(schedule.scales, streams)):
        rng = default_rng(ss)
        pts = list(sampler(t, rng))
        if j == len(schedule.scales) - 1 and pts:
            seen_smallest = True
        if j < tail_start:
            continue
        for u in pts:
            w, d = _chart_vector(p, u)
            if d <= 0.0:
                continue
            estimate = min(estimate, ray_distance(v.vec, w))
    if not seen_smallest:
        raise GeometryError("no set samples at the smallest scale")
    return estimate


# ---------------------------------------------------------------------------
# Normal cone of the nonnegative Stiefel slice
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PatternCone:
    """Finite description of the Frechet normal cone to St+(n, k) at a
    nonnegative frame P.

    A tangent matrix X belongs to the cone iff (a) X^T P + P^T X = 0,
    (b) rows of X indexed by the zero rows of P are entrywise nonpositive,
    and (c) X vanishes wherever P is strictly positive.  Entries of X at
    positions where P is zero inside a supported row are not sign-constrained:
    nearby feasible frames keep those entries exactly zero (disjoint column
    supports leave at most one positive entry per row), so approach quotients
    never see them.
    """

    base: StiefelPoint
    zero_rows: tuple
    support_mask: np.ndarray
    subspace_basis: np.ndarray  # columns: orthonormal basis of the supported-row block

    def __post_init__(self):
        mask = np.array(self.support_mask, dtype=bool)
        mask.flags.writeable = False
        object.__setattr__(self, "support_mask", mask)
        basis = np.array(self.subspace_basis, dtype=float)
        basis.flags.writeable = False
        object.__setattr__(self, "subspace_basis", basis)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    def _split(self, x: np.ndarray):
        free = np.zeros(self.n, dtype=bool)
        free[list(self.zero_rows)] = True
        return x[~free, :], x[free, :], free

    def contains(self, x, tol: float = MEMBER_TOL) -> bool:
        """Literal three-condition membership test, each to tolerance."""
        x = self._coerce(x)
        p = self.base.matrix
        scale = max(1.0, float(np.linalg.norm(x)))
        if float(np.linalg.norm(x.T @ p + p.T @ x)) > tol * scale:
            return False
        if np.any(x[list(self.zero_rows), :] > tol * scale):
            return False
        if np.any(np.abs(x[self.support_mask]) > tol * scale):
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

    def distance(self, x) -> float:
        x = self._coerce(x)
        return float(np.linalg.norm(x - self.project(x)))

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
        if isinstance(x, Tangent):
            if not np.array_equal(x.base.coords, self.base.matrix):
                raise GeometryError("covector is based at a different frame")
            x = x.vec
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.k):
            raise GeometryError(f"covector shape {x.shape} does not match frame "
                                f"({self.n}, {self.k})")
        return x


def stiefel_plus_normal_cone(p, tol: float = ENTRY_ZERO_TOL) -> PatternCone:
    """Sign/support pattern of the Frechet normal cone to St+(n, k) at P.

    P must be an entrywise-nonnegative frame.  Entries within ``tol`` of zero
    are classified as zero; feasibility drift from retractions stays two
    orders below that threshold by construction.
    """
    mat = as_matrix(p)
    if not is_nonnegative(mat, tol):
        raise GeometryError("base frame has a negative entry beyond tolerance")
    base = p if isinstance(p, StiefelPoint) else StiefelPoint(mat)
    mat = np.where(np.abs(mat) <= tol, 0.0, mat)  # snap for classification
    zrows = _zero_rows(mat, tol)
    mask = mat > tol
    basis = _supported_block_basis(mat, zrows, mask)
    return PatternCone(base=base, zero_rows=zrows, support_mask=mask, subspace_basis=basis)


def _supported_block_basis(mat: np.ndarray, zrows: tuple, mask: np.ndarray) -> np.ndarray:
    """Orthonormal basis of {V on the supported rows : V^T P + P^T V = 0 and
    V = 0 on the support of P}, flattened row-major."""
    n, k = mat.shape
    free = np.zeros(n, dtype=bool)
    free[list(zrows)] = True
    top = mat[~free, :]
    t_rows = top.shape[0]
    dim = t_rows * k
    if dim == 0:
        return np.zeros((0, 0))
    rows = []
    top_mask = mask[~free, :]
    for idx in np.flatnonzero(top_mask.ravel()):
        r = np.zeros(dim)
        r[idx] = 1.0
        rows.append(r)
    for a in range(k):
        for b in range(a, k):
            r = np.zeros((t_rows, k))
            r[:, b] += top[:, a]
            r[:, a] += top[:, b]
            rows.append(r.ravel())
    a_mat = np.vstack(rows)
    basis = null_space(a_mat)
    return basis if basis.size else np.zeros((dim, 0))


def stiefel_plus_sampler(p, tol: float = ENTRY_ZERO_TOL) -> Callable[[float, Generator], list]:
    """Constructive sampler of St+(n, k) near a feasible frame P.

    Yields frames obtained from single row rotations that stay exactly
    feasible: mass moved into a zero row from a supported row, and mass
    redistributed between two rows supporting the same column (both signs).
    Composite moves are deliberately excluded: single moves keep the approach
    quotients of true cone members nonpositive exactly, so the refuter
    cross-validation carries no false-positive risk from sampling bias.
    """
    mat = as_matrix(p)
    if not is_nonnegative(mat, tol):
        raise GeometryError("sampler base frame must be entrywise nonnegative")
    n, k = mat.shape
    zrows = list(_zero_rows(mat, tol))
    supports = column_supports(mat, tol)

    moves = []  # (i, j, sign, weight): rotate rows i<-j, weight = ||row j||
    for col, sup in enumerate(supports):
        for j in sup:
            wj = float(np.linalg.norm(mat[j, :]))
            for i in zrows:
                moves.append((i, j, +1.0, wj))
            for i in sup:
                if i != j:
                    moves.append((i, j, +1.0, wj))

    def rotate(i, j, theta):
        out = mat.copy()
        c, s = math.cos(theta), math.sin(theta)
        ri, rj = mat[i, :].copy(), mat[j, :].copy()
        out[i, :] = c * ri + s * rj
        out[j, :] = -s * ri + c * rj
        return out

    manifold = stiefel(n, k)

    def sampler(t: float, rng: Generator) -> list:
        out = []
        for i, j, sign, wj in moves:
            if wj <= 0:
                continue
            # 2 sin(theta/2) * wj ~ t; cap the angle away from the feasibility edge
            theta = min(2.0 * math.asin(min(t / (2.0 * wj), 0.7)), math.pi / 4)
            for th in (sign * theta, sign * theta * float(rng.uniform(0.3, 0.95)), -sign * theta):
                v = rotate(i, j, th)
                if not is_nonnegative(v, 0.0):
                    continue
                d = float(np.linalg.norm(v - mat))
                if 0.0 < d <= 2.0 * t:
                    out.append(Point(manifold, v))
        return out

    return sampler


@dataclass(frozen=True, eq=False)
class CrossValidationReport:
    """Agreement record between pattern membership and the sampling refuter."""

    frames_checked: int
    members_checked: int
    violators_checked: int
    disagreements: tuple  # (frame index, kind, covector)

    @property
    def passed(self) -> bool:
        return len(self.disagreements) == 0


def cross_validate_pattern_cone(
    n_frames: int = 100,
    n_max: int = 6,
    k_max: int = 3,
    members_per_frame: int = 5,
    violators_per_frame: int = 5,
    margin: float = 0.1,
    seed: int = 0,
    schedule: Schedule | None = None,
) -> CrossValidationReport:
    """Check the pattern description against the normal-cone refuter.

    For seeded nonnegative frames, cone members sampled from the pattern must
    never be refuted, and tangent covectors violating a sign or support
    condition by at least ``margin`` (measured as distance to the pattern)
    must always be refuted.
    """
    if schedule is None:
        schedule = Schedule.geometric(t0=0.1, eta=0.5, n_scales=8, samples_per_scale=8)
    rng = default_rng(seed)
    members = violators = 0
    disagreements = []
    for idx in range(n_frames):
        n = int(rng.integers(2, n_max + 1))
        k = int(rng.integers(1, min(k_max, n) + 1))
        p = random_stiefel_plus(n, k, rng)
        cone = stiefel_plus_normal_cone(p)
        sampler = stiefel_plus_sampler(p)
        base = Point(stiefel(n, k), p)
        for x in cone.sample_members(rng, members_per_frame):
            members += 1
            if not cone.contains(x):
                disagreements.append((idx, "member-not-in-pattern", x))
                continue
            verdict = frechet_normal_refute(sampler, base, Tangent(base, x),
                                            schedule, seed=int(rng.integers(2**31)))
            if verdict.refuted:
                disagreements.append((idx, "member-refuted", x))
        for x in _pattern_violators(cone, rng, violators_per_frame, margin):
            violators += 1
            if cone.contains(x):
                disagreements.append((idx, "violator-in-pattern", x))
                continue
            verdict = frechet_normal_refute(sampler, base, Tangent(base, x),
                                            schedule, seed=int(rng.integers(2**31)))
            if not verdict.refuted:
                disagreements.append((idx, "violator-not-refuted", x))
    return CrossValidationReport(n_frames, members, violators, tuple(disagreements))


def _pattern_violators(cone: PatternCone, rng: Generator, count: int, margin: float) -> list:
    """Tangent covectors violating one sign or support condition of the
    pattern by at least ``margin`` in cone distance.  Frames admitting no such
    tangent violator (no zero rows and all columns singly supported) yield
    nothing: there the pattern is the whole tangent space."""
    p = cone.base.matrix
    supports = column_supports(p)
    out = []
    sign_slots = [(i, j) for i in cone.zero_rows for j in range(cone.k)]
    rot_slots = [(col, a, b) for col, sup in enumerate(supports)
                 for ai, a in enumerate(sup) for b in sup[ai + 1:]]
    if not sign_slots and not rot_slots:
        return out
    base_members = cone.sample_members(rng, count)
    for m in base_members:
        bump = margin * (1.0 + float(rng.uniform(0.0, 0.5)))
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


@dataclass(frozen=True, eq=False)
class IdentityCheckReport:
    """Two-sided sampled check that the subdifferential of the distance
    function is the normal cone intersected with the unit ball."""

    fixture: str
    inside_checked: int
    outside_checked: int
    inside_failures: tuple   # cone-ball covectors that got refuted
    outside_failures: tuple  # outside covectors that escaped refutation

    @property
    def passed(self) -> bool:
        return not self.inside_failures and not self.outside_failures


def check_dist_subdiff_identity(
    fixture,
    n_covectors: int = 50,
    margin: float = 0.1,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
) -> IdentityCheckReport:
    """Sampled two-sided test of the distance-function subdifferential.

    (a) covectors sampled from the analytic cone intersected with the unit
    ball must never be refuted against dist(.; set); (b) covectors outside
    the cone by ``margin``, or cone directions rescaled past the unit sphere
    by ``margin``, must be refuted.  ``fixture`` supplies the analytic
    distance function and the cone samplers (see fixtures module).
    """
    rng = default_rng(seed)
    p = fixture.point
    inside_failures = []
    outside_failures = []
    n_inside = n_covectors
    for _ in range(n_inside):
        x = fixture.cone_sample_in(rng)
        verdict = frechet_subdiff_refute(fixture.dist_fn, p, Tangent(p, x),
                                         schedule, seed=int(rng.integers(2**31)))
        if verdict.refuted:
            inside_failures.append(verdict.witness)
    outside = []
    rays = list(fixture.cone_rays)
    for i in range(n_covectors):
        if rays and i % 2 == 0:
            ray = rays[(i // 2) % len(rays)]
            outside.append((1.0 + margin + float(rng.uniform(0.0, 0.5))) * ray)
        else:
            outside.append(fixture.cone_sample_out(rng, margin))
    for x in outside:
        verdict = frechet_subdiff_refute(fixture.dist_fn, p, Tangent(p, x),
                                         schedule, seed=int(rng.integers(2**31)))
        if not verdict.refuted:
            outside_failures.append(x)
    return IdentityCheckReport(
        fixture=fixture.name,
        inside_checked=n_inside,
        outside_checked=len(outside),
        inside_failures=tuple(inside_failures),
        outside_failures=tuple(outside_failures),
    )


@dataclass(frozen=True, eq=False)
class DirDerivReport:
    """Per-direction residuals between the lower directional derivative of
    the distance function and the distance to the contingent cone."""

    fixture: str
    rows: tuple  # (direction, lhs, rhs, residual)
    tol: float

    @property
    def max_residual(self) -> float:
        return max((r[3] for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_dirderiv_identity(
    fixture,
    directions: Sequence[np.ndarray] | None = None,
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    tol: float = 5e-2,
) -> DirDerivReport:
    """Finite-dimensional equality test: the lower directional derivative of
    dist(.; set) matches the distance from the direction to the contingent
    cone, up to estimator bias bounded by ``tol``."""
    p = fixture.point
    if directions is None:
        directions = fixture.directions
    rows = []
    for i, vec in enumerate(directions):
        v = Tangent(p, np.asarray(vec, dtype=float))
        lhs = contingent_derivative(fixture.dist_fn, p, v, schedule, seed=seed + 7 * i)
        rhs = contingent_cone_distance(fixture.omega_sampler, p, v, schedule,
                                       seed=seed + 7 * i + 3)
        rows.append((np.asarray(vec, dtype=float), lhs, rhs, abs(lhs - rhs)))
    return DirDerivReport(fixture=fixture.name, rows=tuple(rows), tol=tol)
