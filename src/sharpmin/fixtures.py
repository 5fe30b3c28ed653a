"""Canonical verification fixtures: sets with exact distance functions,
constructive samplers, and analytic normal/contingent cones.

Each fixture bundles everything the identity checkers need: the base point,
an exact dist(.; set) on the manifold (an objective in the stack form of
``cones``: a stack (s, *ambient_shape) of coordinates in, s distances out,
each with the bits of the one-point call), a set sampler in the stack form of
``manifolds`` (``omega_sampler(t, rng)`` returns the stack of coordinates of
set points at approach scale t, exactly on the set), samplers for the
analytic normal cone at the base point (inside the unit ball, and outside by
a margin), its extreme rays, and tangent directions that exercise the
directional-derivative identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator

from .manifolds import Point, euclidean, sphere


@dataclass(frozen=True, eq=False)
class SetFixture:
    name: str
    point: Point
    dist_fn: Callable[[np.ndarray], np.ndarray]
    omega_sampler: Callable[[float, Generator], np.ndarray]
    cone_sample_in: Callable[[Generator], np.ndarray]
    cone_sample_out: Callable[[Generator, float], np.ndarray]
    cone_rays: tuple = ()
    directions: tuple = ()
    tangent_cone_dist: Callable[[np.ndarray], float] | None = None


def axis_fixture() -> SetFixture:
    """The x-axis in R^2 at the origin.  Normal cone: the y-axis (a line);
    contingent cone: the x-axis itself."""
    m = euclidean(2)
    p = Point(m, np.zeros(2))

    def dist_fn(u: np.ndarray) -> np.ndarray:
        return np.abs(u[:, 1])

    def omega_sampler(t: float, rng: Generator) -> np.ndarray:
        xs = t * rng.uniform(0.05, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
        return np.column_stack([xs, np.zeros(8)])

    def cone_in(rng: Generator) -> np.ndarray:
        s = float(rng.uniform(-1.0, 1.0))
        return np.array([0.0, s])

    def cone_out(rng: Generator, margin: float) -> np.ndarray:
        sx = float(rng.choice([-1.0, 1.0])) * (margin + float(rng.uniform(0.0, 0.5)))
        return np.array([sx, float(rng.uniform(-0.8, 0.8))])

    def tangent_dist(v: np.ndarray) -> float:
        return abs(float(v[1]))

    return SetFixture(
        name="axis-in-plane",
        point=p,
        dist_fn=dist_fn,
        omega_sampler=omega_sampler,
        cone_sample_in=cone_in,
        cone_sample_out=cone_out,
        cone_rays=(np.array([0.0, 1.0]), np.array([0.0, -1.0])),
        directions=(np.array([0.0, 1.0]), np.array([1.0, 0.0]),
                    np.array([-1.0, 0.0]), np.array([0.6, 0.8])),
        tangent_cone_dist=tangent_dist,
    )


def halfplane_fixture() -> SetFixture:
    """The lower half-plane {y <= 0} in R^2 at a boundary point.  Normal
    cone: the outward ray {(0, s) : s >= 0}; contingent cone: the half-plane."""
    m = euclidean(2)
    p = Point(m, np.zeros(2))

    def dist_fn(u: np.ndarray) -> np.ndarray:
        return np.where(u[:, 1] < 0.0, 0.0, u[:, 1])  # max(y, 0.0), NaN and -0.0 kept

    def omega_sampler(t: float, rng: Generator) -> np.ndarray:
        # the contingent cone here is two-dimensional, so ray-distance
        # estimates need angular density: a deterministic grid over the
        # feasible half turn plus jittered fill-in
        polar = [(t * 0.9, ang) for ang in np.linspace(math.pi, 2.0 * math.pi, 128).tolist()]
        for _ in range(8):
            ang = float(rng.uniform(math.pi, 2.0 * math.pi))
            polar.append((t * float(rng.uniform(0.05, 1.0)), ang))
        return np.array([[r * math.cos(ang), r * math.sin(ang)] for r, ang in polar])

    def cone_in(rng: Generator) -> np.ndarray:
        return np.array([0.0, float(rng.uniform(0.0, 1.0))])

    def cone_out(rng: Generator, margin: float) -> np.ndarray:
        # either tilted sideways or pointing into the set
        if rng.uniform() < 0.5:
            sx = float(rng.choice([-1.0, 1.0])) * (margin + float(rng.uniform(0.0, 0.5)))
            return np.array([sx, float(rng.uniform(0.0, 0.8))])
        return np.array([0.0, -(margin + float(rng.uniform(0.0, 0.5)))])

    def tangent_dist(v: np.ndarray) -> float:
        return max(float(v[1]), 0.0)

    return SetFixture(
        name="halfplane",
        point=p,
        dist_fn=dist_fn,
        omega_sampler=omega_sampler,
        cone_sample_in=cone_in,
        cone_sample_out=cone_out,
        cone_rays=(np.array([0.0, 1.0]),),
        directions=(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([0.0, -1.0])),
        tangent_cone_dist=tangent_dist,
    )


_ARC_LO, _ARC_HI = 0.0, math.pi / 2.0


def _wrap_angle(a: float) -> float:
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def arc_angular_distance(theta: float) -> float:
    """Circle distance from angle theta to the arc [0, pi/2]."""
    if _ARC_LO <= theta <= _ARC_HI:
        return 0.0
    to_lo = abs(_wrap_angle(theta - _ARC_LO))
    to_hi = abs(_wrap_angle(theta - _ARC_HI))
    return min(to_lo, to_hi)


def arc_fixture() -> SetFixture:
    """The nonnegative quarter of the unit circle (entrywise-nonnegative
    frames of height 2, width 1) at the point (1, 0).  Normal cone: the ray
    {(0, -s) : s >= 0}; contingent cone: the ray {(0, s) : s >= 0}."""
    m = sphere(2)
    p = Point(m, np.array([1.0, 0.0]))

    def dist_fn(u: np.ndarray) -> np.ndarray:
        # scalar libm atan2 row by row (np.arctan2 may round differently)
        return np.array([arc_angular_distance(math.atan2(y, x)) for x, y in u.tolist()])

    def omega_sampler(t: float, rng: Generator) -> np.ndarray:
        angs = np.minimum(t, _ARC_HI) * rng.uniform(0.05, 1.0, size=8)
        return np.array([[math.cos(a), math.sin(a)] for a in angs.tolist()])

    def cone_in(rng: Generator) -> np.ndarray:
        return np.array([0.0, -float(rng.uniform(0.0, 1.0))])

    def cone_out(rng: Generator, margin: float) -> np.ndarray:
        return np.array([0.0, margin + float(rng.uniform(0.0, 0.5))])

    def tangent_dist(v: np.ndarray) -> float:
        return float(np.linalg.norm(v - max(float(v[1]), 0.0) * np.array([0.0, 1.0])))

    return SetFixture(
        name="nonnegative-arc",
        point=p,
        dist_fn=dist_fn,
        omega_sampler=omega_sampler,
        cone_sample_in=cone_in,
        cone_sample_out=cone_out,
        cone_rays=(np.array([0.0, -1.0]),),
        directions=(np.array([0.0, -1.0]), np.array([0.0, 1.0])),
        tangent_cone_dist=tangent_dist,
    )


def fullspace_fixture() -> SetFixture:
    """The whole plane R^2 as the set.  Distance is identically zero, the
    normal cone is {0}, and every nonzero covector must be refuted."""
    m = euclidean(2)
    p = Point(m, np.zeros(2))

    def dist_fn(u: np.ndarray) -> np.ndarray:
        return np.zeros(len(u))

    def omega_sampler(t: float, rng: Generator) -> np.ndarray:
        out = []
        for _ in range(8):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            out.append(t * float(rng.uniform(0.05, 1.0)) * d)
        return np.array(out)

    def cone_in(rng: Generator) -> np.ndarray:
        return np.zeros(2)

    def cone_out(rng: Generator, margin: float) -> np.ndarray:
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        return (margin + float(rng.uniform(0.0, 1.0))) * d

    def tangent_dist(v: np.ndarray) -> float:
        return 0.0

    return SetFixture(
        name="fullspace",
        point=p,
        dist_fn=dist_fn,
        omega_sampler=omega_sampler,
        cone_sample_in=cone_in,
        cone_sample_out=cone_out,
        cone_rays=(),
        directions=(np.array([1.0, 0.0]),),
        tangent_cone_dist=tangent_dist,
    )


def identity_fixtures() -> list:
    """The three standard fixtures for the distance-subdifferential check."""
    return [halfplane_fixture(), arc_fixture(), fullspace_fixture()]


def dirderiv_fixtures() -> list:
    """Fixtures with directions for the directional-derivative identity."""
    return [axis_fixture(), halfplane_fixture(), arc_fixture()]
