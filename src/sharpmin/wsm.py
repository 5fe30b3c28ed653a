"""Weak-sharp-minima verification: sampled sharpness checks, modulus
estimation, and primal/dual necessary-condition checkers.

A solution set is weakly sharp for a problem when the objective grows at
least linearly in the distance to the set, with some modulus alpha > 0.
Exact set distances are often unavailable, so every check here runs against a
distance *bracket* [lb, ub] and verdicts are three-valued (pass_strong /
pass_weak / violated) to stay honest about the bracket width.  The
necessary-condition checkers are refutation-oriented: they can certify
failure of sharpness through a concrete witness, but only ever report
consistency otherwise; sufficiency is never claimed.

Objectives take the stack form of ``cones``: f maps a stack
(s, *ambient_shape) of point coordinates to s values, and every check calls
it once on all the points it scores.  Samplers follow the contract of
``manifolds``: ``sampler(count, rng)`` returns one stack of point
coordinates, checked on the manifold by one call.  Brackets take the same
stack form: ``bracket(coords)`` maps a stack of s points to (lb, ub), two
arrays of s distance bounds, and every check calls it once on all the
points it scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import default_rng

from .manifolds import (
    GeometryError,
    ManifoldDescriptor,
    Point,
    Tangent,
    pairwise_distances,
    point_stack,
)
from .cones import (
    DEFAULT_SCHEDULE,
    Schedule,
    contingent_cone_distance,
    contingent_derivative,
    frechet_subdiff_refute,
    objective_values,
)

VIOLATION_TOL = 1e-9
# A sample whose upper distance bound is at most this lies in the solution set:
# points on the set get rounding-level distances, not exact zeros.
INSIDE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WsmInstance:
    """One sharpness-verification problem.

    ``f`` maps a stack of point coordinates to one value per row;
    ``feasible_sampler(count, rng)`` returns a stack of feasible points;
    ``bracket(coords)`` maps a stack of s point coordinates to (lb, ub), two
    arrays of shape (s,) whose rows enclose dist(u; solution set) for each
    point u of the stack; ``point`` is a reference solution where f
    attains its minimum; ``radius`` restricts the check to a ball around it
    (math.inf for a global check).  When ``solution_sampler`` (a stack
    sampler as well) is given, the reference-minimality of ``point`` is
    spot-checked against sampled solution-set points before any verdict is
    issued.
    """

    f: Callable[[np.ndarray], np.ndarray]
    feasible_sampler: Callable[[int, np.random.Generator], np.ndarray]
    bracket: Callable[[np.ndarray], tuple]
    point: Point
    alpha: float
    radius: float = math.inf
    solution_sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise GeometryError(f"modulus must be positive, got {self.alpha}")

    def check_reference(self, n_samples: int = 32, seed: int = 0, tol: float = 1e-9):
        if self.solution_sampler is None:
            return
        rng = default_rng(seed)
        f0 = _values_at(self.f, self.point.coords[None])[0]
        solutions = point_stack(self.point.manifold, self.solution_sampler(n_samples, rng))
        if any(fs < f0 - tol for fs in _values_at(self.f, solutions)):
            raise GeometryError("reference point is not minimal over sampled solution set")


@dataclass(frozen=True, eq=False)
class WsmVerdict:
    """Outcome of a sampled sharpness check.

    ``pass_strong``: the inequality held against the upper bracket end at
    every sample.  ``pass_weak``: it held against the lower end everywhere
    but only against the lower end somewhere.  ``violated``: a witness sample
    broke the inequality even against the lower end (a sound violation, since
    the true distance is at least lb)."""

    status: str  # pass_strong | pass_weak | violated
    witness: tuple | None  # (coords, f(u), lb, ub)
    estimated_modulus: float
    n_samples: int

    def __post_init__(self):
        if self.status not in ("pass_strong", "pass_weak", "violated"):
            raise GeometryError(f"bad status {self.status!r}")
        if self.status == "violated" and self.witness is None:
            raise GeometryError("violated verdict requires a witness")


def verify_wsm_sampled(inst: WsmInstance, n_samples: int, seed: int = 0,
                       tol: float = VIOLATION_TOL) -> WsmVerdict:
    """Sample feasible points and check f(u) >= f(p) + alpha * dist(u; set)
    against the distance bracket: f and the bracket each in one call on the
    stack of samples, the checks in sample order."""
    if n_samples < 1:
        raise GeometryError("need at least one sample")
    inst.check_reference(seed=seed)
    rng = default_rng(seed)
    m = inst.point.manifold
    f0 = _values_at(inst.f, inst.point.coords[None])[0]
    strong = True
    witness = None
    modulus = math.inf
    checked = 0
    samples = point_stack(m, inst.feasible_sampler(n_samples, rng))
    if inst.radius < math.inf:
        samples = samples[~(pairwise_distances(m, samples, inst.point.coords[None])[:, 0]
                            > inst.radius)]
    for u, fu, lb, ub in zip(samples, _values_at(inst.f, samples),
                             *_brackets_at(inst.bracket, samples)):
        if not math.isfinite(fu):
            raise GeometryError("objective not finite at a feasible sample")
        if lb > ub + 1e-12:
            raise GeometryError(f"bracket inverted: lb={lb} > ub={ub}")
        checked += 1
        gain = fu - f0
        if ub > INSIDE_TOL and math.isfinite(ub):
            modulus = min(modulus, gain / ub)
        if witness is None and gain < inst.alpha * lb - tol:
            witness = (np.array(u), fu, lb, ub)
        if gain < inst.alpha * ub - tol:
            strong = False
    if witness is not None:
        return WsmVerdict("violated", witness, modulus, checked)
    status = "pass_strong" if strong else "pass_weak"
    return WsmVerdict(status, None, modulus, checked)


def _values_at(f, coords: np.ndarray) -> list:
    """f at each point of a stack, as floats, from one call (no call for an
    empty stack)."""
    return objective_values(f, coords).tolist() if len(coords) else []


def _brackets_at(bracket, coords: np.ndarray) -> tuple:
    """(lbs, ubs) of a stack, as two lists of floats, from one bracket call
    (no call for an empty stack).  Refuses a bracket that does not return
    one pair of bounds per row."""
    if not len(coords):
        return [], []
    lb, ub = (np.asarray(b, dtype=float) for b in bracket(coords))
    if lb.shape != (len(coords),) or ub.shape != (len(coords),):
        raise GeometryError(f"bracket gave shapes {lb.shape} and {ub.shape} "
                            f"for a stack of {len(coords)} points")
    return lb.tolist(), ub.tolist()


def estimate_modulus(
    f: Callable[[np.ndarray], np.ndarray],
    feasible_sampler: Callable[[int, np.random.Generator], np.ndarray],
    bracket: Callable[[np.ndarray], tuple],
    n_samples: int,
    seed: int = 0,
    f_min: float = 0.0,
    *,
    manifold: ManifoldDescriptor,
) -> float:
    """Infimum over samples of (f(u) - f_min) / ub(u), skipping points inside
    the set (ub <= INSIDE_TOL).  Using the upper bracket end makes this a
    conservative estimate of the best modulus valid on the sampled region.
    The sampled stack is checked on ``manifold``; the bracket is called once
    on the stack and f once on the samples outside the set."""
    samples = point_stack(manifold, feasible_sampler(n_samples, default_rng(seed)))
    outside, ubs = [], []
    for i, ub in enumerate(_brackets_at(bracket, samples)[1]):
        if ub <= INSIDE_TOL or not math.isfinite(ub):
            continue  # inside the set, or unbracketed
        outside.append(i)
        ubs.append(ub)
    if not outside:
        raise GeometryError("all samples landed inside the solution set")
    est = math.inf
    for fu, ub in zip(_values_at(f, samples[outside]), ubs):
        est = min(est, (fu - f_min) / ub)
    return est


@dataclass(frozen=True, eq=False)
class NcVerdict:
    """Outcome of a necessary-condition check ('primal', 'dual', or
    'difference').  ``passed`` means no violation was found; a failure
    always carries the witnessing item."""

    kind: str
    passed: bool
    checked: int
    failures: tuple

    @property
    def witness(self):
        return self.failures[0] if self.failures else None


def check_primal_nc(
    f: Callable[[np.ndarray], np.ndarray],
    omega_sampler,
    p: Point,
    alpha: float,
    directions: Sequence[np.ndarray],
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    tol: float = 5e-2,
) -> NcVerdict:
    """Directional necessary condition for a sharp solution set: along every
    tangent direction the lower directional derivative of f must dominate
    alpha times the distance to the contingent cone of the set."""
    directions = [np.asarray(vec, dtype=float) for vec in directions]
    failures = []
    for i, vec in enumerate(directions):
        v = Tangent(p, vec)
        lhs = contingent_derivative(f, p, v, schedule)
        rhs = contingent_cone_distance(omega_sampler, p, v, schedule, seed=seed + 11 * i + 5)
        if lhs < alpha * rhs - tol:
            failures.append((vec, lhs, rhs))
    return NcVerdict("primal", not failures, len(directions), tuple(failures))


def check_dual_nc(
    f: Callable[[np.ndarray], np.ndarray],
    cone,
    p: Point,
    alpha: float = 1.0,
    n_cone_samples: int = 40,
    seed: int = 0,
    schedule: Schedule = DEFAULT_SCHEDULE,
) -> NcVerdict:
    """Dual necessary condition: every covector in the normal cone capped at
    norm alpha must survive the subdifferential refuter on f.  The sampler
    covers the extreme rays of the cone first (the places a sharpness claim
    fails first) and fills up with random members scaled into the alpha-ball.
    The candidates and their seeds are drawn first and then refuted as one
    stack."""
    rng = default_rng(seed)
    candidates = [alpha * r for r in cone.extreme_rays()]
    remaining = max(0, n_cone_samples - len(candidates))
    candidates.extend(cone.sample_members(rng, remaining, radius=alpha))
    if not candidates:
        raise GeometryError("cone description produced no candidate covectors")
    seeds = [int(rng.integers(2**31)) for _ in candidates]
    verdicts = frechet_subdiff_refute(f, p, np.array(candidates), schedule, seed=seeds)
    failures = [v.witness for v in verdicts if v.refuted]
    return NcVerdict("dual", not failures, len(candidates), tuple(failures))


def check_difference_nc(
    grad_f1_at_p: np.ndarray,
    f2_subdiff_candidates: Sequence[np.ndarray],
    cone_residual: Callable[[np.ndarray], float],
    tol: float = 1e-8,
) -> NcVerdict:
    """Stationarity filter for difference-form objectives under a geometric
    constraint: each candidate covector x of the subtracted part must satisfy
    x in grad(f1)(p) + normal cone, i.e. the cone residual of x - grad must
    vanish.  A failing candidate certifies that p is not a local solution."""
    grad = np.asarray(grad_f1_at_p, dtype=float)
    failures = []
    checked = 0
    for x in f2_subdiff_candidates:
        checked += 1
        res = float(cone_residual(np.asarray(x, dtype=float) - grad))
        if res > tol:
            failures.append((np.asarray(x, dtype=float), res))
    return NcVerdict("difference", not failures, checked, tuple(failures))
