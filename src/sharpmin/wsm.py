"""Weak-sharp-minima verification: sampled sharpness checks, modulus
estimation, and primal/dual necessary-condition checkers.

A solution set S is weakly sharp when the objective grows at least linearly
in the distance to it, f(u) >= f(p) + alpha * dist(u; S) with a modulus
alpha > 0.  The sampled check scores this against the exact distance: it
passes (pass_strong) or is violated, with the first breaking sample as the
witness.  The necessary-condition checkers are refutation-oriented: they can
certify failure of sharpness through a concrete witness, but only ever
report consistency otherwise; sufficiency is never claimed.

Objectives take the stack form of ``cones``: f maps a stack
(s, *ambient_shape) of point coordinates to s values, and every check calls
it once on all the points it scores.  Samplers follow the contract of
``manifolds``: ``sampler(count, rng)`` returns one stack of point
coordinates, checked on the manifold by one call.  ``distance(coords)``
maps a stack of s points to their s distances to the solution set, and every
check calls it once on all the points it scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.random import default_rng

from .manifolds import (
    GeometryError,
    Point,
    point_stack,
)
from .cones import (
    DEFAULT_SCHEDULE,
    Schedule,
    _directional_rows,
    frechet_subdiff_refute,
    objective_values,
)
from .reporting import Check

VIOLATION_TOL = 1e-9
# A sample whose distance is at most this lies in the solution set: points
# on the set get rounding-level distances, not exact zeros.
INSIDE_TOL = 1e-12
REFERENCE_SAMPLES = 32  # solution-set points the reference-minimality spot check draws
DUAL_CONE_SAMPLES = 24  # covectors each dual necessary-condition check refutes


@dataclass(frozen=True, eq=False)
class WsmInstance:
    """One sharpness-verification problem.

    ``f`` maps a stack of point coordinates to one value per row;
    ``feasible_sampler(count, rng)`` returns a stack of feasible points;
    ``distance(coords)`` maps a stack of s point coordinates to their s
    distances to the solution set; ``point`` is a reference solution where f
    attains its minimum.  When ``solution_sampler`` (a stack sampler as
    well) is given, the reference-minimality of ``point`` is spot-checked
    against REFERENCE_SAMPLES sampled solution-set points before any verdict
    is issued.
    """

    f: Callable[[np.ndarray], np.ndarray]
    feasible_sampler: Callable[[int, np.random.Generator], np.ndarray]
    distance: Callable[[np.ndarray], np.ndarray]
    point: Point
    alpha: float
    solution_sampler: Callable[[int, np.random.Generator], np.ndarray] | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise GeometryError(f"modulus must be positive, got {self.alpha}")

    def check_reference(self, seed: int = 0):
        if self.solution_sampler is None:
            return
        rng = default_rng(seed)
        f0 = _values_at(self.f, self.point.coords[None])[0]
        solutions = point_stack(self.point.manifold, self.solution_sampler(REFERENCE_SAMPLES, rng))
        if any(fs < f0 - VIOLATION_TOL for fs in _values_at(self.f, solutions)):
            raise GeometryError("reference point is not minimal over sampled solution set")


@dataclass(frozen=True, eq=False)
class WsmVerdict:
    """Outcome of a sampled sharpness check.

    ``pass_strong``: the inequality held at every sample.  ``violated``: the
    witness is the first sample that broke it.  ``estimated_modulus`` is the
    least f(u) - f(p) over dist(u; set) among the samples outside the set, a
    sampled infimum and so an upper bound on the modulus."""

    status: str  # pass_strong | violated
    witness: tuple | None  # (coords, f(u), dist(u; set))
    estimated_modulus: float
    n_samples: int

    def __post_init__(self):
        if self.status not in ("pass_strong", "violated"):
            raise GeometryError(f"bad status {self.status!r}")
        if self.status == "violated" and self.witness is None:
            raise GeometryError("violated verdict requires a witness")


def verify_wsm_sampled(inst: WsmInstance, n_samples: int, seed: int = 0) -> WsmVerdict:
    """Sample feasible points and check f(u) >= f(p) + alpha * dist(u; set),
    to VIOLATION_TOL, after the reference check of ``inst``: f and the
    distance each in one call on the stack of samples, the checks in sample
    order."""
    if n_samples < 1:
        raise GeometryError("need at least one sample")
    inst.check_reference(seed=seed)
    return _scan(inst, n_samples, seed)


def estimate_modulus(inst: WsmInstance, n_samples: int, seed: int = 0) -> float:
    """The sampled modulus of ``verify_wsm_sampled`` without the reference
    check: the least f(u) - f(p) over dist(u; set) among the samples outside
    the set (dist > INSIDE_TOL).  It runs over the samples only, so it is an
    upper bound on the best modulus of the sampled region, not a certified
    modulus; inf when no sample lies outside the set."""
    return _scan(inst, n_samples, seed).estimated_modulus


def _scan(inst: WsmInstance, n_samples: int, seed: int) -> WsmVerdict:
    """The sample scan behind ``verify_wsm_sampled`` and ``estimate_modulus``."""
    rng = default_rng(seed)
    m = inst.point.manifold
    f0 = _values_at(inst.f, inst.point.coords[None])[0]
    witness = None
    modulus = math.inf
    samples = point_stack(m, inst.feasible_sampler(n_samples, rng))
    for u, fu, d in zip(samples, _values_at(inst.f, samples),
                        _distances_at(inst.distance, samples)):
        if not math.isfinite(fu):
            raise GeometryError("objective not finite at a feasible sample")
        gain = fu - f0
        if d > INSIDE_TOL and math.isfinite(d):
            modulus = min(modulus, gain / d)
        if witness is None and gain < inst.alpha * d - VIOLATION_TOL:
            witness = (np.array(u), fu, d)
    status = "pass_strong" if witness is None else "violated"
    return WsmVerdict(status, witness, modulus, len(samples))


def _values_at(f, coords: np.ndarray) -> list:
    """f at each point of a stack, as floats, from one call (no call for an
    empty stack)."""
    return objective_values(f, coords).tolist() if len(coords) else []


def _distances_at(distance, coords: np.ndarray) -> list:
    """The distance of each point of a stack, as floats, from one distance
    call (no call for an empty stack).  Refuses a distance that does not
    return one value per row."""
    if not len(coords):
        return []
    d = np.asarray(distance(coords), dtype=float)
    if d.shape != (len(coords),):
        raise GeometryError(f"distance gave shape {d.shape} for a stack of {len(coords)} points")
    return d.tolist()


def check_primal_nc(
    f: Callable[[np.ndarray], np.ndarray],
    omega_sampler,
    p: Point,
    alpha: float,
    directions: Sequence[np.ndarray],
    schedule: Schedule = DEFAULT_SCHEDULE,
    seed: int = 0,
    tol: float = 5e-2,
) -> Check:
    """Directional necessary condition for a sharp solution set: along every
    tangent direction the lower directional derivative of f must dominate
    alpha times the distance to the contingent cone of the set.  Each
    direction where it does not fails as (direction, lhs, rhs)."""
    seeds = [seed + 11 * i + 5 for i in range(len(directions))]
    rows = _directional_rows(f, omega_sampler, p, directions, schedule, seeds)
    return Check("primal", len(rows),
                 tuple(row for row in rows if row[1] < alpha * row[2] - tol))


def check_dual_nc(
    f: Callable[[np.ndarray], np.ndarray],
    cone,
    alpha: float = 1.0,
    seed: int = 0,
    schedule: Schedule = DEFAULT_SCHEDULE,
) -> Check:
    """Dual necessary condition: every covector in the normal cone capped at
    norm alpha must survive the subdifferential refuter on f at the cone's
    base point ``cone.base``.  The sampler covers the extreme rays of the
    cone first (the places a sharpness claim fails first) and fills up to
    DUAL_CONE_SAMPLES with random members scaled into the alpha-ball.  The
    candidates and their seeds are drawn first and then refuted as one
    stack; each refuted candidate fails with its refuter witness."""
    rng = default_rng(seed)
    candidates = [alpha * r for r in cone.extreme_rays()]
    remaining = max(0, DUAL_CONE_SAMPLES - len(candidates))
    candidates.extend(cone.sample_members(rng, remaining, radius=alpha))
    if not candidates:
        raise GeometryError("cone description produced no candidate covectors")
    seeds = [int(rng.integers(2**31)) for _ in candidates]
    verdicts = frechet_subdiff_refute(f, cone.base, np.array(candidates), schedule, seed=seeds)
    failures = [v.witness for v in verdicts if v.refuted]
    return Check("dual", len(candidates), tuple(failures))

