"""Small constructors the tests share: points, the negative-part penalty and
the closed-form chordal distance to the nonnegative arc on the unit circle
(height-2, width-1 frames are the unit circle), one
covector's refuter verdict, the indicator frame of a sub-partition, and the
solver's subgradient."""

import math

import numpy as np

from sharpmin.cheeger import _edge_differences, _incidence_plan, _subgradient
from sharpmin.cones import DEFAULT_SCHEDULE
from sharpmin.fixtures import arc_angular_distance
from sharpmin.manifolds import Point, sphere, stiefel


def circle_point(theta):
    return Point(sphere(2), np.array([math.cos(theta), math.sin(theta)]))


def circle_penalty(beta):
    """Entrywise negative-part penalty sum(max(-u_i, 0)^beta) restricted to
    the unit circle, on a stack (s, 2) of circle points."""

    def f(u):
        return np.sum(np.maximum(-u, 0.0) ** beta, axis=-1)

    return f


def arc_chordal_distance(theta):
    """Ambient chordal distance from angle theta to the arc [0, pi/2], the
    distance of the circle point at theta to St+(2, 1)."""
    return 2.0 * math.sin(arc_angular_distance(theta) / 2.0)


def refute_one(refute, g, p, x, schedule=DEFAULT_SCHEDULE, seed=0):
    """The verdict of a refuter (``frechet_normal_refute`` with a sampler g
    or ``frechet_subdiff_refute`` with an objective g) on one ``Tangent`` x
    at p, scored as a one-row stack."""
    return refute(g, p, x.vec[None], schedule, seed=seed)[0]


def indicator_frame(graph, parts):
    """Frame with columns 1_{A_i} / sqrt(|A_i|); lies on the nonnegative
    slice and reproduces the discrete objective under the relaxation."""
    u = np.zeros((graph.n, len(parts.parts)))
    for j, p in enumerate(parts.parts):
        for v in p:
            u[v - 1, j] = 1.0 / math.sqrt(len(p))
    return u


def subgradient(graph, u, c):
    """The solver's tangent subgradient of |B U|_1 + C h_1(U) at a frame or
    at each slice of a stack of frames."""
    u = np.asarray(u, dtype=float)
    plan = _incidence_plan(graph, u.shape)
    return _subgradient(stiefel(*u.shape[-2:]), u, _edge_differences(graph, u), plan, c)
