"""Tests for the cone estimators/refuters, the sign/support pattern of the
normal cone to the nonnegative Stiefel slice, and the identity checkers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpmin.fixtures as fx
from sharpmin.cones import (
    GeometryError,
    Schedule,
    check_dirderiv_identity,
    check_dist_subdiff_identity,
    contingent_cone_distance,
    contingent_derivative,
    cross_validate_pattern_cone,
    frechet_normal_refute,
    frechet_subdiff_refute,
    ray_distance,
    stiefel_plus_normal_cone,
    stiefel_plus_sampler,
)
from sharpmin.manifolds import Point, Tangent, euclidean, stiefel
from sharpmin.stiefel import random_stiefel_plus


def plane_point(*coords):
    return Point(euclidean(2), np.array(coords, dtype=float))


def tangent(p, *coords):
    return Tangent(p, np.array(coords, dtype=float))


class TestSchedule:
    def test_geometric_grid(self):
        s = Schedule.geometric(t0=0.1, eta=0.5, n_scales=4)
        assert s.scales == (0.1, 0.05, 0.025, 0.0125)

    def test_validation(self):
        with pytest.raises(GeometryError):
            Schedule(scales=(0.1, 0.2))
        with pytest.raises(GeometryError):
            Schedule(scales=())


class TestPatternCone:
    def test_first_axis_point(self):
        cone = stiefel_plus_normal_cone(np.array([[1.0], [0.0]]))
        assert cone.zero_rows == (1,)
        assert cone.contains(np.array([[0.0], [-1.0]]))
        assert cone.contains(np.array([[0.0], [0.0]]))
        assert not cone.contains(np.array([[0.0], [1.0]]))

    def test_second_axis_point(self):
        cone = stiefel_plus_normal_cone(np.array([[0.0], [1.0]]))
        assert cone.zero_rows == (0,)
        assert cone.contains(np.array([[-1.0], [0.0]]))
        assert not cone.contains(np.array([[1.0], [0.0]]))

    def test_identity_frame_all_skew(self):
        # no zero rows; the diagonal support vanishes on skew matrices anyway,
        # so the pattern is the whole (skew) tangent space
        cone = stiefel_plus_normal_cone(np.eye(2))
        assert cone.zero_rows == ()
        skew = np.array([[0.0, 3.0], [-3.0, 0.0]])
        assert cone.contains(skew)
        assert cone.contains(-skew)
        not_tangent = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert not cone.contains(not_tangent)

    def test_infeasible_base_refused(self):
        with pytest.raises(GeometryError):
            stiefel_plus_normal_cone(np.array([[0.6], [-0.8]]))

    def test_interior_point_trivial_cone(self):
        # both rows supported: tangency plus the support condition leave {0}
        s = 1.0 / np.sqrt(2.0)
        cone = stiefel_plus_normal_cone(np.array([[s], [s]]))
        assert cone.zero_rows == ()
        assert cone.contains(np.zeros((2, 1)))
        assert not cone.contains(np.array([[-s], [s]]))
        assert cone.subspace_basis.shape[1] == 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_cone_closed_under_scaling_and_addition(self, seed):
        rng = np.random.default_rng(seed)
        p = random_stiefel_plus(4, 2, rng)
        cone = stiefel_plus_normal_cone(p)
        a, b = cone.sample_members(rng, 2)
        lam = float(rng.uniform(0.0, 5.0))
        assert cone.contains(lam * a)
        assert cone.contains(a + b)

    def test_projection_is_exact(self):
        rng = np.random.default_rng(9)
        p = random_stiefel_plus(5, 2, rng)
        cone = stiefel_plus_normal_cone(p)
        x = rng.standard_normal((5, 2))
        proj = cone.project(x)
        assert cone.contains(proj, tol=1e-9)
        # projection is idempotent and reduces distance to any member
        assert np.allclose(cone.project(proj), proj, atol=1e-12)
        member = cone.sample_members(rng, 1)[0]
        assert np.linalg.norm(x - proj) <= np.linalg.norm(x - member) + 1e-12

    def test_members_refute_free(self):
        rng = np.random.default_rng(4)
        p = random_stiefel_plus(4, 2, rng)
        cone = stiefel_plus_normal_cone(p)
        base = Point(stiefel(4, 2), p)
        sampler = stiefel_plus_sampler(p)
        for x in cone.sample_members(rng, 5):
            verdict = frechet_normal_refute(sampler, base, Tangent(base, x), seed=1)
            assert not verdict.refuted


class TestNormalRefuter:
    def test_axis_orthogonal_consistent(self):
        ax = fx.axis_fixture()
        x = tangent(ax.point, 0.0, 1.0)
        v = frechet_normal_refute(ax.omega_sampler, ax.point, x, seed=0)
        assert v.status == "consistent"
        # quotients are identically zero for the orthogonal covector
        assert all(abs(q) <= 1e-12 for _, q in v.quotient_trace)

    def test_axis_parallel_refuted(self):
        ax = fx.axis_fixture()
        x = tangent(ax.point, 1.0, 0.0)
        v = frechet_normal_refute(ax.omega_sampler, ax.point, x, seed=0)
        assert v.refuted
        assert v.witness.quotient >= 0.9

    def test_arc_split(self):
        arc = fx.arc_fixture()
        up = frechet_normal_refute(arc.omega_sampler, arc.point,
                                   tangent(arc.point, 0.0, 1.0), seed=0)
        down = frechet_normal_refute(arc.omega_sampler, arc.point,
                                     tangent(arc.point, 0.0, -1.0), seed=0)
        assert up.refuted
        assert down.status == "consistent"


class TestSubdiffRefuter:
    def test_linear_function(self):
        m = euclidean(3)
        p = Point(m, np.zeros(3))
        c = np.array([1.0, -2.0, 0.5])

        def f(u):
            return float(c @ u.coords)

        ok = frechet_subdiff_refute(f, p, Tangent(p, c), seed=0)
        assert ok.status == "consistent"
        bad = frechet_subdiff_refute(f, p, Tangent(p, c + np.array([1.0, 0, 0])), seed=0)
        assert bad.refuted

    def test_smooth_penalty_refuted(self):
        # squared negative part is flat at the boundary: the downhill
        # covector cannot be a subgradient
        p = fx.circle_point(0.0)
        v = frechet_subdiff_refute(fx.circle_penalty(2.0), p,
                                   tangent(p, 0.0, -1.0), seed=0)
        assert v.refuted
        assert v.witness.quotient == pytest.approx(-1.0, abs=0.1)

    def test_sqrt_penalty_consistent(self):
        # oracle: quotient sqrt(|sin t|) + t over t stays nonnegative near 0
        p = fx.circle_point(0.0)
        v = frechet_subdiff_refute(fx.circle_penalty(0.5), p,
                                   tangent(p, 0.0, -1.0), seed=0)
        assert v.status == "consistent"

    def test_nan_samples_skipped(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def f(u):
            if u.coords[0] > 0:
                return float("nan")
            return 0.0

        v = frechet_subdiff_refute(f, p, Tangent(p, np.zeros(2)), seed=0)
        assert v.skipped_samples > 0

    def test_infinite_base_refused(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))
        with pytest.raises(GeometryError):
            frechet_subdiff_refute(lambda u: float("inf"), p, Tangent(p, np.zeros(2)))


class TestContingentDerivative:
    def test_distance_to_axis(self):
        ax = fx.axis_fixture()
        p = ax.point
        up = contingent_derivative(ax.dist_fn, p, tangent(p, 0.0, 1.0))
        along = contingent_derivative(ax.dist_fn, p, tangent(p, 1.0, 0.0))
        assert up == pytest.approx(1.0, abs=1e-10)
        assert along == pytest.approx(0.0, abs=1e-10)

    def test_norm_positively_homogeneous(self):
        m = euclidean(3)
        p = Point(m, np.zeros(3))

        def f(u):
            return float(np.linalg.norm(u.coords))

        rng = np.random.default_rng(5)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert contingent_derivative(f, p, Tangent(p, v)) == pytest.approx(1.0, abs=1e-10)

    def test_linear_exact(self):
        # for a fixed linear function the estimate equals its value on v
        m = euclidean(4)
        p = Point(m, np.zeros(4))
        c = np.array([0.3, -1.2, 0.0, 2.0])
        v = np.array([1.0, 1.0, -1.0, 0.5])

        def f(u):
            return float(c @ u.coords)

        got = contingent_derivative(f, p, Tangent(p, v))
        assert abs(got - float(c @ v)) <= 1e-10


class TestContingentConeDistance:
    def test_axis_directions(self):
        ax = fx.axis_fixture()
        p = ax.point
        d_along = contingent_cone_distance(ax.omega_sampler, p, tangent(p, 1.0, 0.0))
        d_up = contingent_cone_distance(ax.omega_sampler, p, tangent(p, 0.0, 1.0))
        assert d_along <= 1e-10
        assert d_up == pytest.approx(1.0, abs=1e-9)

    def test_parabola_tangent_ray(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def sampler(t, rng):
            xs = t * rng.uniform(0.1, 1.0, size=6)
            return [Point(m, np.array([x, x * x])) for x in xs]

        d = contingent_cone_distance(sampler, p, tangent(p, 1.0, 0.0))
        assert d <= 1e-3  # sampled rays tilt by O(t) at the smallest scales

    def test_empty_smallest_scale_refused(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def sampler(t, rng):
            return []

        with pytest.raises(GeometryError):
            contingent_cone_distance(sampler, p, tangent(p, 1.0, 0.0))

    def test_ray_distance_helper(self):
        assert ray_distance(np.array([0.0, 1.0]), np.array([1.0, 0.0])) == 1.0
        assert ray_distance(np.array([2.0, 0.0]), np.array([0.5, 0.0])) == 0.0
        # behind the ray: distance to the apex
        assert ray_distance(np.array([-1.0, 0.0]), np.array([1.0, 0.0])) == 1.0


class TestDistSubdiffIdentity:
    @pytest.mark.parametrize("fixture_builder", [fx.halfplane_fixture, fx.arc_fixture,
                                                 fx.fullspace_fixture])
    def test_both_directions(self, fixture_builder):
        rep = check_dist_subdiff_identity(fixture_builder(), n_covectors=20, seed=0)
        assert rep.passed, (rep.inside_failures, rep.outside_failures)

    def test_scaled_ray_margin(self):
        # covectors just past the unit sphere must be refuted with the
        # quotient dropping by about the scaling excess
        arc = fx.arc_fixture()
        x = tangent(arc.point, 0.0, -1.1)
        v = frechet_subdiff_refute(arc.dist_fn, arc.point, x, seed=0)
        assert v.refuted
        assert v.witness.quotient <= -0.05


class TestDirDerivIdentity:
    @pytest.mark.parametrize("fixture_builder", [fx.axis_fixture, fx.halfplane_fixture,
                                                 fx.arc_fixture])
    def test_residuals(self, fixture_builder):
        rep = check_dirderiv_identity(fixture_builder(), seed=0)
        assert rep.passed, rep.rows
        assert rep.max_residual <= 5e-2

    def test_arc_leaving_direction(self):
        arc = fx.arc_fixture()
        rep = check_dirderiv_identity(arc, directions=[np.array([0.0, -1.0])], seed=0)
        (_, lhs, rhs, residual), = rep.rows
        assert lhs == pytest.approx(1.0, abs=1e-2)
        assert rhs == pytest.approx(1.0, abs=1e-9)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_frames_agree(self, seed):
        rep = cross_validate_pattern_cone(n_frames=25, seed=seed)
        assert rep.passed, rep.disagreements
        assert rep.members_checked > 0
        assert rep.violators_checked > 0

    def test_sampler_stays_feasible(self):
        rng = np.random.default_rng(11)
        p = random_stiefel_plus(5, 2, rng)
        sampler = stiefel_plus_sampler(p)
        pts = sampler(0.05, rng)
        assert pts
        for u in pts:
            assert np.all(u.coords >= 0.0)
            assert 0 < np.linalg.norm(u.coords - p) <= 0.1


class TestChordalPath:
    """The frame-typed estimators (retraction steps, chordal quotients) must
    reproduce the circle results at the height-2, width-1 acceptance point."""

    def setup_method(self):
        self.p = Point(stiefel(2, 1), np.array([[1.0], [0.0]]))
        self.sampler = stiefel_plus_sampler(self.p.coords)

    def penalty(self, beta):
        def f(u):
            return float(np.sum(np.maximum(-u.coords, 0.0) ** beta))

        return f

    def test_contingent_cone_distance_of_leaving_direction(self):
        v = Tangent(self.p, np.array([[0.0], [-1.0]]))
        assert contingent_cone_distance(self.sampler, self.p, v) == pytest.approx(1.0, abs=1e-9)

    def test_directional_split(self):
        v = Tangent(self.p, np.array([[0.0], [-1.0]]))
        sharp = contingent_derivative(self.penalty(0.5), self.p, v)
        smooth = contingent_derivative(self.penalty(2.0), self.p, v)
        assert sharp > 10.0   # diverges like 1/sqrt(t) at the floor scale
        assert smooth < 1e-3  # vanishes like t

    def test_subdiff_split(self):
        x = Tangent(self.p, np.array([[0.0], [-1.0]]))
        assert frechet_subdiff_refute(self.penalty(2.0), self.p, x, seed=0).refuted
        assert not frechet_subdiff_refute(self.penalty(0.5), self.p, x, seed=0).refuted
