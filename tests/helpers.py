"""Small constructors the tests share: points and the negative-part penalty
on the unit circle (height-2, width-1 frames are the unit circle), and the
indicator frame of a sub-partition."""

import math

import numpy as np

from sharpmin.manifolds import Point, sphere


def circle_point(theta):
    return Point(sphere(2, 1.0), np.array([math.cos(theta), math.sin(theta)]))


def circle_penalty(beta):
    """Entrywise negative-part penalty sum(max(-u_i, 0)^beta) restricted to
    the unit circle, on a stack (s, 2) of circle points."""

    def f(u):
        return np.sum(np.maximum(-u, 0.0) ** beta, axis=-1)

    return f


def indicator_frame(graph, parts):
    """Frame with columns 1_{A_i} / sqrt(|A_i|); lies on the nonnegative
    slice and reproduces the discrete objective under the relaxation."""
    u = np.zeros((graph.n, parts.k))
    for j, p in enumerate(parts.parts):
        for v in p:
            u[v - 1, j] = 1.0 / math.sqrt(len(p))
    return u
