"""Weak-sharp-minima verification: sampled sharpness checks with their
modulus trace, and primal/dual necessary-condition checkers.

A solution set S is weakly sharp when the objective grows at least linearly
in the distance to it, f(u) >= f(p) + alpha * dist(u; S) with a modulus
alpha > 0.  The sampled check scores this against the exact distance: it
is violated exactly when it holds a witness, the first breaking sample.  The
necessary-condition checkers are refutation-oriented: they can certify
failure of sharpness through a concrete witness, but only ever report
consistency otherwise; sufficiency is never claimed.

Objectives take the stack form of ``cones``: f maps a stack
(s, *ambient_shape) of point coordinates to s values, and every check calls
it once on all the points it scores.  The sampled check scores the stack
of points it is given, checked on the manifold by one call.
``distance(coords)`` maps a stack of s points to their s distances to the
solution set, and every check calls it once on all the points it scores, in
one numpy pass.  The primal check scores its whole stack of directions
against one set sample, and the dual check refutes its candidates as one
stack, with DUAL_SAMPLES_PER_SCALE random directions at each of the
``cones.SCALES``.
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
    DIRDERIV_TOL,
    _base_value,
    _directional_rows,
    frechet_subdiff_refute,
    objective_values,
)
from .reporting import Check

VIOLATION_TOL = 1e-9
# A sample whose distance is at most this lies in the solution set: points
# on the set get rounding-level distances, not exact zeros.
INSIDE_TOL = 1e-12
DUAL_CONE_SAMPLES = 24  # covectors each dual necessary-condition check refutes
# random directions a scale of the dual check's refuter: the extreme rays and
# the +/- covector probes carry its refutations, so a light budget suffices
DUAL_SAMPLES_PER_SCALE = 10


@dataclass(frozen=True, eq=False)
class WsmVerdict:
    """Outcome of a sampled sharpness check: ``violated`` exactly when the
    witness, the first sample that broke the inequality, exists, else
    ``pass_strong``.  ``modulus_trace`` holds (c, least f(u) - f(p) over
    dist(u; set) among the first c samples outside the set) for c in
    (s // 4, s // 2, s), s the number of samples, skipping c < 1; inf when
    none of the c lies outside.  Each entry is a sampled infimum over a
    prefix of the one sample, so an upper bound on the modulus, and the
    entries never increase.  ``estimated_modulus`` is the last entry, the
    infimum over the whole sample."""

    witness: tuple | None  # (coords, f(u), dist(u; set))
    modulus_trace: tuple  # ((n_samples, estimate), ...)

    @property
    def status(self) -> str:
        return "pass_strong" if self.witness is None else "violated"

    @property
    def estimated_modulus(self) -> float:
        return self.modulus_trace[-1][1]


def verify_wsm_sampled(
    f: Callable[[np.ndarray], np.ndarray],
    distance: Callable[[np.ndarray], np.ndarray],
    point: Point,
    samples: np.ndarray,
    alpha: float,
) -> WsmVerdict:
    """Check f(u) >= f(p) + alpha * dist(u; set), to VIOLATION_TOL, on a
    stack of samples of ``point``'s manifold, which must not be empty: f at
    the base point p, f on the stack and the distance on the stack, one call
    each, then every sample scored at once.  The modulus trace reads the
    running minimum of the quotients, where a sample inside the set
    (dist <= INSIDE_TOL) or at a non-finite distance counts as inf."""
    samples = point_stack(point.manifold, samples)
    if not len(samples):
        raise GeometryError("need at least one sample")
    f0 = _base_value(f, point)
    values = objective_values(f, samples)
    d = np.asarray(distance(samples), dtype=float)
    if d.shape != (len(samples),):
        raise GeometryError(f"distance gave shape {d.shape} for a stack of {len(samples)} points")
    if not np.all(np.isfinite(values)):
        raise GeometryError("objective not finite at a feasible sample")
    gain = values - f0
    outside = (d > INSIDE_TOL) & (d < math.inf)
    s = len(samples)
    quotients = np.full(s, math.inf)
    running = np.minimum.accumulate(np.divide(gain, d, out=quotients, where=outside))
    trace = tuple((c, float(running[c - 1])) for c in (s // 4, s // 2, s) if c >= 1)
    broken = np.flatnonzero(gain < alpha * d - VIOLATION_TOL)
    if not len(broken):
        return WsmVerdict(None, trace)
    i = broken[0]
    return WsmVerdict((np.array(samples[i]), float(values[i]), float(d[i])), trace)


def check_primal_nc(
    f: Callable[[np.ndarray], np.ndarray],
    omega_sampler,
    p: Point,
    alpha: float,
    directions: Sequence[np.ndarray],
    seed: int = 0,
) -> Check:
    """Directional necessary condition for a sharp solution set: along every
    tangent direction the lower directional derivative of f must dominate
    alpha times the distance to the contingent cone of the set, up to
    DIRDERIV_TOL.  Each direction where it does not fails as (direction,
    lhs, rhs).  All directions share one set sample, drawn with seed + 5."""
    rows = _directional_rows(f, omega_sampler, p, directions, seed + 5)
    return Check("primal", len(rows),
                 tuple(row for row in rows if row[1] < alpha * row[2] - DIRDERIV_TOL))


def check_dual_nc(
    f: Callable[[np.ndarray], np.ndarray],
    cone,
    alpha: float = 1.0,
    seed: int = 0,
) -> Check:
    """Dual necessary condition: every covector in the normal cone capped at
    norm alpha must survive the subdifferential refuter on f at the cone's
    base point ``cone.base``.  The sampler covers the extreme rays of the
    cone first (the places a sharpness claim fails first) and fills up to
    DUAL_CONE_SAMPLES with random members scaled into the alpha-ball.  The
    candidates are drawn first, then one refuter seed, and the candidates
    are refuted as one stack with DUAL_SAMPLES_PER_SCALE random directions a
    scale; each refuted candidate fails with its refuter witness."""
    rng = default_rng(seed)
    candidates = [alpha * r for r in cone.extreme_rays()]
    remaining = max(0, DUAL_CONE_SAMPLES - len(candidates))
    candidates.extend(cone.sample_members(rng, remaining, radius=alpha))
    if not candidates:
        raise GeometryError("cone description produced no candidate covectors")
    verdicts = frechet_subdiff_refute(f, cone.base, np.array(candidates),
                                      seed=int(rng.integers(2**31)),
                                      samples=DUAL_SAMPLES_PER_SCALE)
    failures = [v.witness for v in verdicts if v.refuted]
    return Check("dual", len(candidates), tuple(failures))

