"""Sharpness verification tests: sampled inequality checks, modulus
estimation, and the primal/dual/difference necessary conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpmin.fixtures as fx
from sharpmin.cones import GeometryError, stiefel_plus_normal_cone
from sharpmin.manifolds import Point, stiefel, tangent_project
from sharpmin.cheeger import wsm_penalty_check
from sharpmin.wsm import (
    INSIDE_TOL,
    WsmInstance,
    check_difference_nc,
    check_dual_nc,
    check_primal_nc,
    estimate_modulus,
    verify_wsm_sampled,
)


def circle_sampler(count, rng):
    thetas = rng.uniform(-math.pi, math.pi, size=count)
    return [fx.circle_point(t) for t in thetas]


def arc_bracket(u):
    theta = math.atan2(float(u.coords[1]), float(u.coords[0]))
    d = fx.arc_angular_distance(theta)
    return d, d


def circle_instance(beta, alpha):
    return WsmInstance(
        f=fx.circle_penalty(beta),
        feasible_sampler=circle_sampler,
        bracket=arc_bracket,
        point=fx.circle_point(0.3),
        alpha=alpha,
    )


class TestVerifyWsm:
    def test_distance_itself_is_strongly_sharp(self):
        inst = WsmInstance(
            f=fx.arc_fixture().dist_fn,
            feasible_sampler=circle_sampler,
            bracket=arc_bracket,
            point=fx.circle_point(0.3),
            alpha=1.0,
        )
        verdict = verify_wsm_sampled(inst, 400, seed=0)
        assert verdict.status == "pass_strong"
        assert verdict.estimated_modulus == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_penalty_passes_at_half(self):
        # oracle: min over the circle of sum(sqrt(neg)) / arc distance is
        # 2/pi ~ 0.6366, so alpha = 0.5 passes strongly on a dense grid
        verdict = verify_wsm_sampled(circle_instance(0.5, 0.5), 720, seed=0)
        assert verdict.status == "pass_strong"
        assert verdict.estimated_modulus >= 0.6

    def test_square_penalty_violated_at_any_alpha(self):
        for alpha in (1.0, 0.1):
            verdict = verify_wsm_sampled(circle_instance(2.0, alpha), 720, seed=0)
            assert verdict.status == "violated"
            coords, fval, lb, ub = verdict.witness
            assert fval < alpha * lb  # the witness re-evaluates as a violation

    def test_translation_invariance(self):
        base = circle_instance(0.5, 0.5)
        shifted = WsmInstance(
            f=lambda u: base.f(u) + 17.25,
            feasible_sampler=base.feasible_sampler,
            bracket=base.bracket,
            point=base.point,
            alpha=base.alpha,
        )
        v1 = verify_wsm_sampled(base, 300, seed=5)
        v2 = verify_wsm_sampled(shifted, 300, seed=5)
        assert v1.status == v2.status
        assert v1.estimated_modulus == pytest.approx(v2.estimated_modulus, abs=1e-9)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_scaling_scales_modulus(self, lam):
        base = circle_instance(0.5, 0.25)
        scaled = WsmInstance(
            f=lambda u: lam * base.f(u),
            feasible_sampler=base.feasible_sampler,
            bracket=base.bracket,
            point=base.point,
            alpha=base.alpha,
        )
        v1 = verify_wsm_sampled(base, 100, seed=7)
        v2 = verify_wsm_sampled(scaled, 100, seed=7)
        assert v2.estimated_modulus == pytest.approx(lam * v1.estimated_modulus, rel=1e-9)

    def test_pass_strong_monotone_in_alpha(self):
        strong_alpha = 0.5
        v = verify_wsm_sampled(circle_instance(0.5, strong_alpha), 300, seed=1)
        assert v.status == "pass_strong"
        for smaller in (0.25, 0.05):
            v2 = verify_wsm_sampled(circle_instance(0.5, smaller), 300, seed=1)
            assert v2.status == "pass_strong"

    def test_inverted_bracket_refused(self):
        inst = WsmInstance(
            f=fx.circle_penalty(0.5),
            feasible_sampler=circle_sampler,
            bracket=lambda u: (2.0, 1.0),
            point=fx.circle_point(0.3),
            alpha=1.0,
        )
        with pytest.raises(GeometryError):
            verify_wsm_sampled(inst, 10, seed=0)

    def test_nonminimal_reference_refused(self):
        def arc_sampler(count, rng):
            return [fx.circle_point(t) for t in rng.uniform(0.0, math.pi / 2, size=count)]

        inst = WsmInstance(
            f=lambda u: -u[:, 0],  # minimized at theta = 0, not 0.9
            feasible_sampler=circle_sampler,
            bracket=arc_bracket,
            point=fx.circle_point(0.9),
            alpha=1.0,
            solution_sampler=arc_sampler,
        )
        with pytest.raises(GeometryError):
            verify_wsm_sampled(inst, 10, seed=0)


class TestEstimateModulus:
    def test_scaled_distance(self):
        f = fx.arc_fixture().dist_fn
        est = estimate_modulus(lambda u: 2.0 * f(u), circle_sampler, arc_bracket,
                               500, seed=0)
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_square_penalty_vanishes(self):
        # near the arc ends the ratio d^2/d collapses; sample close to them
        def near_boundary_sampler(count, rng):
            thetas = -(10.0 ** rng.uniform(-4, -1, size=count))
            return [fx.circle_point(t) for t in thetas]

        est = estimate_modulus(fx.circle_penalty(2.0), near_boundary_sampler,
                               arc_bracket, 200, seed=0)
        assert est <= 5e-3

    def test_sqrt_penalty_bounded_below(self):
        # oracle: dense-grid minimum of sum(sqrt(neg)) / chordal distance
        def chordal_bracket(u):
            theta = math.atan2(float(u.coords[1]), float(u.coords[0]))
            d = fx.arc_chordal_distance(theta)
            return d, d

        grid = fx.circle_grid(2000)
        f = fx.circle_penalty(0.5)
        oracle = min(f(u.coords[None])[0] / chordal_bracket(u)[1]
                     for u in grid if chordal_bracket(u)[1] > 0)
        assert oracle >= 0.70

        est = estimate_modulus(f, circle_sampler, chordal_bracket, 1000, seed=0)
        assert est >= 0.70
        assert est >= oracle - 1e-9

    def test_all_inside_refused(self):
        def inside_sampler(count, rng):
            return [fx.circle_point(0.3)] * count

        with pytest.raises(GeometryError):
            estimate_modulus(fx.circle_penalty(0.5), inside_sampler, arc_bracket, 5, seed=0)

    def test_rounding_level_distance_counts_as_inside(self):
        # a point on the set whose computed distance is an ulp above zero must
        # be skipped, not read as a zero modulus
        inside, outside = fx.circle_point(0.3), fx.circle_point(-0.5)

        def two_point_sampler(count, rng):
            return [inside, outside]

        def bracket(u):
            return (1e-16, 1e-16) if u is inside else (0.5, 0.5)

        est = estimate_modulus(fx.circle_penalty(1.0), two_point_sampler, bracket, 2)
        assert est == pytest.approx(2.0 * math.sin(0.5), abs=1e-15)
        assert 0.0 < INSIDE_TOL <= 1e-12

    def test_penalty_study_on_octant_keeps_positive_modulus(self):
        # random unit vectors in R^3 land on St+(3, 1) with probability 1/8,
        # where the exact distance is rounding-level, not 0
        study = wsm_penalty_check(3, 1, 0.5, n_samples=20)
        assert study.modulus_trace
        assert all(est > 0 for _, est in study.modulus_trace)


class TestPrimalNc:
    def test_distance_equality_case(self):
        arc = fx.arc_fixture()
        verdict = check_primal_nc(arc.dist_fn, arc.omega_sampler, arc.point, 1.0,
                                  [np.array([0.0, -1.0]), np.array([0.0, 1.0])])
        assert verdict.passed

    def test_beta_split(self):
        arc = fx.arc_fixture()
        dirs = [np.array([0.0, -1.0])]
        sharp = check_primal_nc(fx.circle_penalty(0.5), arc.omega_sampler, arc.point,
                                1.0, dirs)
        smooth = check_primal_nc(fx.circle_penalty(2.0), arc.omega_sampler, arc.point,
                                 1.0, dirs)
        assert sharp.passed
        assert not smooth.passed
        v, lhs, rhs = smooth.witness
        assert lhs < 0.01 and rhs == pytest.approx(1.0, abs=1e-9)


class TestDualNc:
    def base(self):
        return Point(stiefel(2, 1), np.array([[1.0], [0.0]]))

    def cone(self):
        return stiefel_plus_normal_cone(np.array([[1.0], [0.0]]))

    def as_point_fn(self, beta):
        def f(u):
            neg = np.maximum(-u, 0.0)
            return np.sum((neg**beta).reshape(len(u), -1), axis=-1)

        return f

    def test_scaled_distance_consistent(self):
        # subgradients of alpha * dist fill the scaled cone ball: no sampled
        # cone element may be refuted
        def fdist(u):
            return np.array([0.7 * fx.arc_angular_distance(math.atan2(y, x))
                             for x, y in u[:, :, 0].tolist()])

        verdict = check_dual_nc(fdist, self.cone(), self.base(), alpha=0.7,
                                n_cone_samples=16, seed=0)
        assert verdict.passed

    def test_square_penalty_refuted_with_witness(self):
        verdict = check_dual_nc(self.as_point_fn(2.0), self.cone(), self.base(),
                                alpha=1.0, n_cone_samples=16, seed=0)
        assert not verdict.passed
        w = verdict.witness
        assert np.allclose(w.covector, [[0.0], [-1.0]], atol=1e-12)

    def test_sqrt_penalty_consistent(self):
        verdict = check_dual_nc(self.as_point_fn(0.5), self.cone(), self.base(),
                                alpha=1.0, n_cone_samples=16, seed=0)
        assert verdict.passed


class TestDifferenceNc:
    def test_classical_stationarity(self):
        # whole-space constraint: the check reduces to grad f1 = 0
        residual = lambda x: float(np.linalg.norm(x))
        ok = check_difference_nc(np.zeros(2), [np.zeros(2)], residual)
        assert ok.passed
        bad = check_difference_nc(np.array([1.0, 0.0]), [np.zeros(2)], residual)
        assert not bad.passed

    def test_halfspace_linear_program(self):
        # S = {y <= 0} with outward normal (0, 1): 0 in {c} + cone(n) iff
        # -c lies on the outward ray
        def residual(x):
            return float(np.linalg.norm(x - max(x[1], 0.0) * np.array([0.0, 1.0])))

        c = np.array([0.0, -2.0])
        ok = check_difference_nc(c, [np.zeros(2)], residual)
        assert ok.passed
        c_bad = np.array([1.0, 0.0])
        assert not check_difference_nc(c_bad, [np.zeros(2)], residual).passed

    def test_smoothed_relaxation_stationarity(self):
        # smoothed two-vertex objective sqrt((u1-u2)^2 + eps^2) on the circle:
        # analytic optimum at u1 = u2 has zero tangent gradient, a rotated
        # point does not
        eps = 1e-3

        def grad(u):
            d = float(u[0, 0] - u[1, 0])
            g = d / math.sqrt(d * d + eps * eps)
            return np.array([[g], [-g]])

        def residual_at(p):
            return lambda x: float(np.linalg.norm(tangent_project(stiefel(2, 1), p, -x)))

        star = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        verdict = check_difference_nc(grad(star), [np.zeros((2, 1))], residual_at(star))
        assert verdict.passed
        off = np.array([[1.0], [0.0]])
        verdict_off = check_difference_nc(grad(off), [np.zeros((2, 1))], residual_at(off))
        assert not verdict_off.passed
