"""Tests for the cone estimators/refuters, the sign/support pattern of the
normal cone to the nonnegative Stiefel slice, and the identity checkers."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

import sharpmin.cones as cones_module
import sharpmin.fixtures as fx
import sharpmin.manifolds as manifolds_module
from sharpmin.cones import (
    NORMAL_SCALES,
    SAMPLES_PER_SCALE,
    SCALES,
    TAIL_SCALES,
    GeometryError,
    RefutationVerdict,
    Witness,
    _two_consecutive,
    check_dirderiv_identity,
    check_dist_subdiff_identity,
    contingent_cone_distance,
    contingent_derivative,
    cross_validate_pattern_cone,
    frechet_normal_refute,
    frechet_subdiff_refute,
    stiefel_plus_normal_cone,
    stiefel_plus_sampler,
)
from sharpmin.manifolds import (
    STACK_BYTES,
    BudgetExceededError,
    Point,
    Tangent,
    euclidean,
    random_tangents,
    sphere,
    stiefel,
    tangent_project,
)
from sharpmin.stiefel import ENTRY_ZERO_TOL, random_stiefel_plus
from sharpmin.wsm import check_dual_nc
from helpers import circle_penalty, circle_point, refute_one


def plane_point(*coords):
    return Point(euclidean(2), np.array(coords, dtype=float))


def tangent(p, *coords):
    return Tangent(p, np.array(coords, dtype=float))


class TestScales:
    def test_grid(self):
        # a refutation needs an excess at two consecutive scales
        assert len(SCALES) >= 2
        assert all(t > 0 for t in SCALES)
        assert all(b < a for a, b in zip(SCALES, SCALES[1:]))
        assert SCALES == tuple(0.1 * 0.5**j for j in range(len(SCALES)))
        assert SAMPLES_PER_SCALE >= 1

    def test_normal_scales_are_a_prefix(self):
        assert len(NORMAL_SCALES) >= 2
        assert NORMAL_SCALES == SCALES[:len(NORMAL_SCALES)]


class TestPatternCone:
    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (6, 2), (6, 3), (8, 3)])
    def test_basis_matches_scipy_null_space(self, n, k, monkeypatch):
        # same rank rule and the same subspace as scipy.linalg.null_space;
        # the bases agree bit for bit where numpy and scipy share a LAPACK
        # build, which the byte-identical reports depend on
        linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(10 * n + k)
        frames = [random_stiefel_plus(n, k, rng) for _ in range(40)] + [np.eye(n, k)]
        ours = [stiefel_plus_normal_cone(p).subspace_basis for p in frames]
        monkeypatch.setattr(cones_module, "_null_space", linalg.null_space)
        theirs = [stiefel_plus_normal_cone(p).subspace_basis for p in frames]
        for a, b in zip(ours, theirs):
            assert a.shape == b.shape
            assert np.allclose(a @ a.T, b @ b.T, rtol=0.0, atol=1e-12)

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

    @pytest.mark.parametrize("frame", [[[1.0], [1.0]], [[1.0, 0.0], [0.0, 1.0 + 1e-9]]])
    def test_nonnegative_non_orthonormal_base_refused(self, frame):
        # refused by the rule of Point, with its error class
        with pytest.raises(GeometryError, match="point off stiefel"):
            stiefel_plus_normal_cone(np.array(frame))

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 3), (8, 3)])
    def test_pattern_thresholds_the_frame(self, n, k):
        # zero entries nudged to within ENTRY_ZERO_TOL of zero (either sign)
        # stay zero, and one nudged just past it joins the support
        rng = np.random.default_rng(n * 10 + k)
        for _ in range(10):
            frame = random_stiefel_plus(n, k, rng)
            zeros = np.flatnonzero(frame.ravel() == 0.0)
            frame.flat[zeros] = rng.uniform(-1.0, 1.0, len(zeros)) * ENTRY_ZERO_TOL
            if len(zeros):
                frame.flat[rng.choice(zeros)] = 2.0 * ENTRY_ZERO_TOL
            cone = stiefel_plus_normal_cone(frame)
            assert cone.supports == tuple(tuple(np.flatnonzero(frame[:, j] > ENTRY_ZERO_TOL))
                                          for j in range(k))
            assert cone.zero_rows == tuple(
                np.flatnonzero(np.all(np.abs(frame) <= ENTRY_ZERO_TOL, axis=1)))
            assert np.array_equal(cone.base.coords, frame)

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
        assert cone.contains(proj)
        # projection is idempotent and reduces distance to any member
        assert np.allclose(cone.project(proj), proj, atol=1e-12)
        member = cone.sample_members(rng, 1)[0]
        assert np.linalg.norm(x - proj) <= np.linalg.norm(x - member) + 1e-12

    def test_members_refute_free(self):
        rng = np.random.default_rng(4)
        p = random_stiefel_plus(4, 2, rng)
        cone = stiefel_plus_normal_cone(p)
        base = Point(stiefel(4, 2), p)
        sampler = stiefel_plus_sampler(cone)
        for x in cone.sample_members(rng, 5):
            verdict = refute_one(frechet_normal_refute, sampler, base, Tangent(base, x), seed=1)
            assert not verdict.refuted


class TestNormalRefuter:
    def test_axis_orthogonal_consistent(self):
        ax = fx.axis_fixture()
        x = tangent(ax.point, 0.0, 1.0)
        v = refute_one(frechet_normal_refute, ax.omega_sampler, ax.point, x, seed=0)
        assert not v.refuted
        # quotients are identically zero for the orthogonal covector
        assert all(abs(q) <= 1e-12 for _, q in v.quotient_trace)

    def test_axis_parallel_refuted(self):
        ax = fx.axis_fixture()
        x = tangent(ax.point, 1.0, 0.0)
        v = refute_one(frechet_normal_refute, ax.omega_sampler, ax.point, x, seed=0)
        assert v.refuted
        assert v.witness.quotient >= 0.9

    def test_arc_split(self):
        arc = fx.arc_fixture()
        up = refute_one(frechet_normal_refute, arc.omega_sampler, arc.point,
                        tangent(arc.point, 0.0, 1.0), seed=0)
        down = refute_one(frechet_normal_refute, arc.omega_sampler, arc.point,
                          tangent(arc.point, 0.0, -1.0), seed=0)
        assert up.refuted
        assert not down.refuted


class TestSubdiffRefuter:
    def test_linear_function(self):
        m = euclidean(3)
        p = Point(m, np.zeros(3))
        c = np.array([1.0, -2.0, 0.5])

        def f(u):
            return u @ c

        ok = refute_one(frechet_subdiff_refute, f, p, Tangent(p, c), seed=0)
        assert not ok.refuted
        bad = refute_one(frechet_subdiff_refute, f, p, Tangent(p, c + np.array([1.0, 0, 0])),
                         seed=0)
        assert bad.refuted

    def test_smooth_penalty_refuted(self):
        # squared negative part is flat at the boundary: the downhill
        # covector cannot be a subgradient
        p = circle_point(0.0)
        v = refute_one(frechet_subdiff_refute, circle_penalty(2.0), p,
                       tangent(p, 0.0, -1.0), seed=0)
        assert v.refuted
        assert v.witness.quotient == pytest.approx(-1.0, abs=0.1)

    def test_sqrt_penalty_consistent(self):
        # oracle: quotient sqrt(|sin t|) + t over t stays nonnegative near 0
        p = circle_point(0.0)
        v = refute_one(frechet_subdiff_refute, circle_penalty(0.5), p,
                       tangent(p, 0.0, -1.0), seed=0)
        assert not v.refuted

    def test_nan_samples_skipped(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def f(u):
            return np.where(u[:, 0] > 0, np.nan, 0.0)

        v = refute_one(frechet_subdiff_refute, f, p, Tangent(p, np.zeros(2)), seed=0)
        assert v.skipped_samples > 0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_fewer_than_one_direction_refused(self, samples):
        p = Point(euclidean(2), np.zeros(2))
        with pytest.raises(GeometryError, match="samples must be >= 1"):
            frechet_subdiff_refute(lambda u: u[:, 0], p, np.zeros((1, 2)), seed=0,
                                   samples=samples)

    def test_infinite_base_refused(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))
        with pytest.raises(GeometryError):
            refute_one(frechet_subdiff_refute, lambda u: np.full(len(u), np.inf), p,
                       Tangent(p, np.zeros(2)))


class TestContingentDerivative:
    def test_distance_to_axis(self):
        ax = fx.axis_fixture()
        up, along = contingent_derivative(ax.dist_fn, ax.point, [[0.0, 1.0], [1.0, 0.0]])
        assert up == pytest.approx(1.0, abs=1e-10)
        assert along == pytest.approx(0.0, abs=1e-10)

    def test_norm_positively_homogeneous(self):
        m = euclidean(3)
        p = Point(m, np.zeros(3))

        def f(u):
            return np.linalg.norm(u, axis=-1)

        rng = np.random.default_rng(5)
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        assert contingent_derivative(f, p, v[None]).tolist() == pytest.approx([1.0], abs=1e-10)

    def test_linear_exact(self):
        # for a fixed linear function the estimate equals its value on v
        m = euclidean(4)
        p = Point(m, np.zeros(4))
        c = np.array([0.3, -1.2, 0.0, 2.0])
        v = np.array([1.0, 1.0, -1.0, 0.5])

        def f(u):
            return u @ c

        got, = contingent_derivative(f, p, v[None])
        assert abs(got - float(c @ v)) <= 1e-10

    def test_one_value_per_direction_from_one_call(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))
        stacks = []

        def f(u):
            stacks.append(len(u))
            return np.abs(u[:, 0])

        got = contingent_derivative(f, p, [[1.0, 0.0], [0.0, 1.0], [-2.0, 0.0]])
        assert got.tolist() == pytest.approx([1.0, 0.0, 2.0], abs=1e-12)
        assert stacks == [1, 3 * TAIL_SCALES]  # the base point, then one block

    def test_direction_stack_of_the_wrong_shape_refused(self):
        p = Point(euclidean(2), np.zeros(2))
        with pytest.raises(GeometryError, match="shape"):
            contingent_derivative(lambda u: u[:, 0], p, np.zeros((2, 3)))
        with pytest.raises(GeometryError, match="not tangent"):
            contingent_derivative(lambda u: u[:, 0], circle_point(0.0), [[1.0, 0.0]])


class TestContingentConeDistance:
    def test_axis_directions(self):
        ax = fx.axis_fixture()
        d_along, d_up = contingent_cone_distance(ax.omega_sampler, ax.point,
                                                 [[1.0, 0.0], [0.0, 1.0]])
        assert d_along <= 1e-10
        assert d_up == pytest.approx(1.0, abs=1e-9)

    def test_parabola_tangent_ray(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def sampler(t, rng):
            xs = t * rng.uniform(0.1, 1.0, size=6)
            return np.column_stack([xs, xs * xs])

        d, = contingent_cone_distance(sampler, p, [[1.0, 0.0]])
        assert d <= 1e-3  # sampled rays tilt by O(t) at the smallest scales

    @pytest.mark.parametrize("count", [1, 2, 7])
    def test_samples_only_the_tail_scales_once(self, count):
        ax = fx.axis_fixture()
        vs = np.array([[1.0, 1.0], [0.0, -1.0]] * 4)[:count]
        seen = []

        def sampler(t, rng):
            seen.append(t)
            return ax.omega_sampler(t, rng)

        got = contingent_cone_distance(sampler, ax.point, vs, seed=5)
        assert seen == list(SCALES[-TAIL_SCALES:])
        want = ref_contingent_cone_distance(ref_fixture_sampler(ax.name), ax.point, vs, seed=5)
        assert got.shape == (count,)
        assert _bits(got) == _bits(want)

    def test_empty_smallest_scale_refused(self):
        m = euclidean(2)
        p = Point(m, np.zeros(2))

        def sampler(t, rng):
            return np.zeros((0, 2))

        with pytest.raises(GeometryError):
            contingent_cone_distance(sampler, p, [[1.0, 0.0]])

    def test_distances_to_one_ray(self):
        # one set point on the ray through (1, 0): across it, along it, and
        # behind it, where the distance is to the apex
        p = Point(euclidean(2), np.zeros(2))

        def sampler(t, rng):
            return np.array([[0.5 * t, 0.0]])

        got = contingent_cone_distance(sampler, p, [[0.0, 1.0], [2.0, 0.0], [-1.0, 0.0]])
        assert got.tolist() == [1.0, 0.0, 1.0]

    def test_ray_table_past_the_cap_refused(self, monkeypatch):
        # 3 directions x 16 axis rays (8 at each tail scale) x 2 entries
        monkeypatch.setattr(manifolds_module, "STACK_BYTES", 8 * 3 * 16 * 2 - 1)
        ax = fx.axis_fixture()
        with pytest.raises(BudgetExceededError) as info:
            contingent_cone_distance(ax.omega_sampler, ax.point, np.eye(2)[[0, 1, 0]])
        assert str(info.value) == "the cone distance's ray table needs 768 bytes, cap is 767"
        assert len(contingent_cone_distance(ax.omega_sampler, ax.point, np.eye(2))) == 2


class TestDistSubdiffIdentity:
    @pytest.mark.parametrize("fixture_builder", [fx.halfplane_fixture, fx.arc_fixture,
                                                 fx.fullspace_fixture])
    def test_both_directions(self, fixture_builder):
        rep = check_dist_subdiff_identity(fixture_builder(), n_covectors=20, seed=0)
        assert rep.passed, rep.failures

    def test_rows_past_the_cap_refused_before_any_draw(self):
        # 2 x covectors covectors in the plane, each on the 11 scales with 2
        # probes and 32 directions a scale: 11,968 bytes a covector, so the
        # refusal starts at 5,608 covectors
        def draw(rng):
            raise AssertionError("drawn")
        fixture = dataclasses.replace(fx.halfplane_fixture(), cone_sample_in=draw)
        unit = 8 * 2 * 11 * 34 * 2
        count = STACK_BYTES // unit + 1
        assert (unit, count) == (11_968, 5_608)
        with pytest.raises(BudgetExceededError) as info:
            check_dist_subdiff_identity(fixture, n_covectors=count)
        assert str(info.value) == (f"scoring one identity check needs {unit * count} bytes, "
                                   f"cap is {STACK_BYTES}")
        with pytest.raises(AssertionError, match="drawn"):
            check_dist_subdiff_identity(fixture, n_covectors=count - 1)

    def test_scaled_ray_margin(self):
        # covectors just past the unit sphere must be refuted with the
        # quotient dropping by about the scaling excess
        arc = fx.arc_fixture()
        x = tangent(arc.point, 0.0, -1.1)
        v = refute_one(frechet_subdiff_refute, arc.dist_fn, arc.point, x, seed=0)
        assert v.refuted
        assert v.witness.quotient <= -0.05


class TestDirDerivIdentity:
    @pytest.mark.parametrize("fixture_builder", [fx.axis_fixture, fx.halfplane_fixture,
                                                 fx.arc_fixture])
    def test_residuals(self, fixture_builder):
        rep = check_dirderiv_identity(fixture_builder(), seed=0)
        assert rep.passed, rep.failures
        assert rep.counters["max_residual"] <= 5e-2

    def test_arc_leaving_direction(self):
        arc = fx.arc_fixture()
        assert check_dirderiv_identity(arc, seed=0).passed
        vs = np.array(arc.directions)
        lhs = contingent_derivative(arc.dist_fn, arc.point, vs)[0]
        # the check's seed
        rhs = contingent_cone_distance(arc.omega_sampler, arc.point, vs, seed=3)[0]
        assert vs[0].tolist() == [0.0, -1.0]
        assert lhs == pytest.approx(1.0, abs=1e-2)
        assert rhs == pytest.approx(1.0, abs=1e-9)

    def test_nan_residual_fails(self, monkeypatch):
        # the second of the four halfplane directions gives lhs = rhs = inf,
        # so its residual is NaN; it must not hide behind the finite ones
        fixture = fx.halfplane_fixture()
        values = np.array([0.0, math.inf, 0.0, 0.0])
        monkeypatch.setattr(cones_module, "contingent_derivative", lambda *a, **kw: values)
        monkeypatch.setattr(cones_module, "contingent_cone_distance", lambda *a, **kw: values)
        rep = check_dirderiv_identity(fixture, seed=0)
        assert not rep.passed
        assert math.isnan(rep.counters["max_residual"])
        (direction, got_lhs, got_rhs, residual), = rep.failures
        assert direction.tolist() == fixture.directions[1].tolist()
        assert (got_lhs, got_rhs) == (math.inf, math.inf) and math.isnan(residual)

    @pytest.mark.parametrize("count", [1, 3, 8])
    def test_one_set_sample_whatever_the_directions(self, count):
        # the check calls its fixture's sampler once at each tail scale,
        # however many directions it scores
        base = fx.halfplane_fixture()
        seen = []

        def sampler(t, rng):
            seen.append(t)
            return base.omega_sampler(t, rng)

        directions = tuple(base.directions[i % len(base.directions)] for i in range(count))
        fixture = dataclasses.replace(base, omega_sampler=sampler, directions=directions)
        rep = check_dirderiv_identity(fixture, seed=0)
        assert rep.checked == count
        assert seen == list(SCALES[-TAIL_SCALES:])


class TestCrossValidation:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeded_frames_agree(self, seed):
        rep = cross_validate_pattern_cone(n_frames=25, seed=seed)
        assert rep.passed, rep.failures
        assert rep.counters["members_checked"] > 0
        assert rep.counters["violators_checked"] > 0

    def test_frames_past_the_cap_refused_before_any_draw(self, monkeypatch):
        # each frame may record 2 x PER_FRAME covectors of up to 6 x 3 entries
        def draw(*args):
            raise AssertionError("drawn")
        monkeypatch.setattr(cones_module, "random_stiefel_plus", draw)
        unit = 8 * 2 * cones_module.PER_FRAME * 6 * 3
        count = STACK_BYTES // unit + 1
        with pytest.raises(BudgetExceededError) as info:
            cross_validate_pattern_cone(n_frames=count, seed=0)
        assert str(info.value) == (f"the cross-validation's disagreement record needs "
                                   f"{unit * count} bytes, cap is {STACK_BYTES}")
        with pytest.raises(AssertionError, match="drawn"):
            cross_validate_pattern_cone(n_frames=count - 1, seed=0)

    def test_sampler_stays_feasible(self):
        rng = np.random.default_rng(11)
        p = random_stiefel_plus(5, 2, rng)
        sampler = stiefel_plus_sampler(stiefel_plus_normal_cone(p))
        pts = sampler(0.05, rng)
        assert len(pts)
        for u in pts:
            assert np.all(u >= 0.0)
            assert 0 < np.linalg.norm(u - p) <= 0.1


class TestChordalPath:
    """The frame-typed estimators (retraction steps, chordal quotients) must
    reproduce the circle results at the height-2, width-1 acceptance point."""

    def setup_method(self):
        self.p = Point(stiefel(2, 1), np.array([[1.0], [0.0]]))
        self.sampler = stiefel_plus_sampler(stiefel_plus_normal_cone(self.p.coords))

    def penalty(self, beta):
        def f(u):
            return np.sum(np.maximum(-u, 0.0).reshape(len(u), -1) ** beta, axis=-1)

        return f

    def test_contingent_cone_distance_of_leaving_direction(self):
        v = np.array([[[0.0], [-1.0]]])
        assert contingent_cone_distance(self.sampler, self.p, v)[0] == pytest.approx(1.0, abs=1e-9)

    def test_directional_split(self):
        v = np.array([[[0.0], [-1.0]]])
        sharp, = contingent_derivative(self.penalty(0.5), self.p, v)
        smooth, = contingent_derivative(self.penalty(2.0), self.p, v)
        assert sharp > 10.0   # diverges like 1/sqrt(t) at the floor scale
        assert smooth < 1e-3  # vanishes like t

    def test_subdiff_split(self):
        x = Tangent(self.p, np.array([[0.0], [-1.0]]))
        assert refute_one(frechet_subdiff_refute, self.penalty(2.0), self.p, x, seed=0).refuted
        assert not refute_one(frechet_subdiff_refute, self.penalty(0.5), self.p, x,
                              seed=0).refuted


# ---------------------------------------------------------------------------
# Reference: the one-sample-at-a-time refuter that the block kernel replaced
# ---------------------------------------------------------------------------


def _ref_project(p, w):
    m = p.manifold
    if m.kind == "euclidean":
        return w
    if m.kind == "sphere":
        return w - np.dot(w, p.coords) * p.coords
    s = p.coords.T @ w
    return w - p.coords @ ((s + s.T) / 2.0)


def ref_random_tangent(p, rng):
    for _ in range(64):
        z = rng.standard_normal(p.manifold.ambient_shape)
        t = Tangent(p, _ref_project(p, _ref_project(p, z)))
        if float(np.linalg.norm(t.vec)) > 1e-12:
            return Tangent(p, (1.0 / float(np.linalg.norm(t.vec))) * t.vec)
    raise GeometryError("failed to sample a nondegenerate tangent direction")


def _ref_step(p, step):
    """exp_p(step) on euclidean and sphere, QR retraction on stiefel."""
    m = p.manifold
    if m.kind == "euclidean":
        return Point(m, p.coords + step.vec)
    if m.kind == "sphere":
        nv = float(np.linalg.norm(step.vec))
        if nv == 0.0:
            return Point(m, p.coords)
        coords = math.cos(nv) * p.coords + (math.sin(nv) / nv) * step.vec
        return Point(m, coords * (1.0 / np.linalg.norm(coords)))
    a = p.coords + step.vec
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    assert not np.any(np.abs(diag) < 1e-12 * max(1.0, float(np.linalg.norm(a))))
    return Point(m, q * np.where(diag < 0.0, -1.0, 1.0))


def _ref_value(f, u):
    """f at one point, through a one-row stack."""
    return float(f(u.coords[None])[0])


def ref_subdiff_refute(f, p, x, samples=SAMPLES_PER_SCALE, seed=0):
    """One covector, one point at a time: scale i draws its ``samples``
    directions from child i of SeedSequence(seed), the stream a refuter call
    with that seed shares among its covectors."""
    f0 = _ref_value(f, p)
    xnorm = float(np.linalg.norm(x.vec))
    probes = [x.vec / xnorm, -x.vec / xnorm] if xnorm > 0 else []
    streams = SeedSequence(seed).spawn(len(SCALES))
    trace, best, skipped = [], [], 0
    exact_chart = p.manifold.kind in ("euclidean", "sphere")
    for t, ss in zip(SCALES, streams):
        rng = default_rng(ss)
        dirs = list(probes)
        for _ in range(samples):
            dirs.append(ref_random_tangent(p, rng).vec)
        q_min, arg = math.inf, None
        for w in dirs:
            u = _ref_step(p, Tangent(p, t * w))
            fu = _ref_value(f, u)
            if math.isnan(fu):
                skipped += 1
                continue
            if exact_chart:
                q = (fu - f0 - t * float(np.sum(x.vec * w))) / t
            else:
                chord = u.coords - p.coords
                d = float(np.linalg.norm(chord))
                if d <= 0.0:
                    continue
                q = (fu - f0 - float(np.sum(x.vec * chord))) / d
            if q < q_min:
                q_min, arg = q, u
        trace.append((t, q_min))
        best.append(arg)
        if _two_consecutive(trace, above=False) is not None:
            break
    idx = _two_consecutive(trace, above=False)
    if idx is None:
        return RefutationVerdict(None, tuple(trace), skipped)
    witness = Witness(covector=np.array(x.vec), point_coords=np.array(best[idx].coords),
                      scale=trace[idx][0], quotient=trace[idx][1])
    return RefutationVerdict(witness, tuple(trace), skipped)


def ref_contingent_derivative(f, p, vs):
    """One direction, one scale at a time: the least ray quotient over the
    smallest scales, a non-finite value counting as +inf."""
    f0 = _ref_value(f, p)
    out = []
    for vec in vs:
        v = Tangent(p, np.asarray(vec, dtype=float))
        estimate = math.inf
        for t in SCALES[-2:]:
            fu = _ref_value(f, _ref_step(p, Tangent(p, t * v.vec)))
            estimate = min(estimate, (fu - f0) / t if math.isfinite(fu) else math.inf)
        out.append(estimate)
    return out


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def assert_same_verdict(got, ref):
    assert got.refuted == ref.refuted
    assert got.skipped_samples == ref.skipped_samples
    assert _bits(got.quotient_trace) == _bits(ref.quotient_trace)
    if ref.witness is None:
        assert got.witness is None
        return
    for field in ("covector", "point_coords", "scale", "quotient"):
        assert _bits(getattr(got.witness, field)) == _bits(getattr(ref.witness, field))


def _nan_right_half(u):
    return np.where(u[:, 0] > 0, np.nan, 0.0)


def _penalty(beta):
    return lambda u: np.sum((np.maximum(-u, 0.0) ** beta).reshape(len(u), -1), axis=-1)


def _frame_point(n, k, seed):
    return Point(stiefel(n, k), random_stiefel_plus(n, k, np.random.default_rng(seed)))


def _refuter_cases():
    """(name, f, base point, covectors, samples a scale) over all three
    manifold kinds."""
    half, arc = fx.halfplane_fixture(), fx.arc_fixture()
    origin = Point(euclidean(2), np.zeros(2))
    ball = Point(sphere(3), np.array([0.0, 0.0, 1.0]))
    light, full = 10, SAMPLES_PER_SCALE
    cases = [
        ("euclidean-halfplane", half.dist_fn, half.point,
         [[0.0, 0.5], [0.0, 1.3], [0.4, 0.2], [0.0, -0.3]], full),
        ("euclidean-nan", _nan_right_half, origin, [[0.0, 0.0], [0.7, -0.2]], full),
        ("sphere-arc", arc.dist_fn, arc.point, [[0.0, -0.5], [0.0, -1.1], [0.0, 0.4]], full),
        ("sphere-square-penalty", _penalty(2.0), circle_point(0.0), [[0.0, -1.0]], full),
        ("sphere-3d", lambda u: np.abs(u[:, 0]), ball,
         [[0.5, 0.0, 0.0], [1.5, 0.3, 0.0]], full),
    ]
    for n, k, seed in ((4, 2, 3), (6, 3, 8)):
        p = _frame_point(n, k, seed)
        cone = stiefel_plus_normal_cone(p.coords)
        covectors = cone.extreme_rays()[:2] + cone.sample_members(np.random.default_rng(seed), 2)
        for beta in (0.5, 2.0):
            cases.append((f"stiefel-{n}x{k}-beta{beta}", _penalty(beta), p, covectors, light))
    # a zero covector (no probes) and NaN samples scattered through one block
    p = _frame_point(4, 2, 3)
    cases.append(("stiefel-4x2-nan-zero-covector", _nan_above(p.coords[1, 1], _penalty(0.5)), p,
                  [np.zeros((4, 2)), stiefel_plus_normal_cone(p.coords).extreme_rays()[0]],
                  light))
    return cases


def _nan_above(level, f):
    """f, but NaN wherever entry (1, 1) exceeds ``level``."""
    return lambda u: np.where(u[:, 1, 1] > level, np.nan, f(u))


REFUTER_CASES = _refuter_cases()


def _direction_cases():
    """(f, base point, direction stack) over all three manifold kinds, with a
    NaN objective and directions along which the estimate is 0."""
    ax, half, arc = fx.axis_fixture(), fx.halfplane_fixture(), fx.arc_fixture()
    frame = _frame_point(4, 2, 3)
    raw = np.concatenate([np.arange(8.0).reshape(1, 4, 2),
                          np.random.default_rng(4).standard_normal((3, 4, 2))])
    return [(ax.dist_fn, ax.point, np.array(ax.directions)),
            (half.dist_fn, half.point, np.array(half.directions)),
            (arc.dist_fn, arc.point, np.array(arc.directions)),
            (_nan_right_half, Point(euclidean(2), np.zeros(2)),
             np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])),
            (_penalty(0.5), frame,
             np.stack([tangent_project(frame.manifold, frame.coords, z) for z in raw]))]


class TestBlockKernelMatchesPerSampleReference:
    """The block kernel must reproduce the one-sample-at-a-time refuter bit for
    bit: same random stream, same trace, same witness, same skip count."""

    @pytest.mark.parametrize("case", REFUTER_CASES, ids=[c[0] for c in REFUTER_CASES])
    # 2**128 + 3 is a seed of five 32-bit words, past SeedSequence's pool of four
    @pytest.mark.parametrize("seed", [0, 5, 2024, 2**128 + 3])
    def test_subdiff_refute(self, case, seed):
        _, f, p, covectors, samples = case
        for x in covectors:
            x = Tangent(p, np.asarray(x, dtype=float))
            assert_same_verdict(
                refute_one(frechet_subdiff_refute, f, p, x, seed=seed, samples=samples),
                ref_subdiff_refute(f, p, x, samples, seed=seed))

    def test_cases_cover_refutations_and_skips(self):
        verdicts = [ref_subdiff_refute(f, p, Tangent(p, np.asarray(x, dtype=float)), s)
                    for _, f, p, xs, s in REFUTER_CASES for x in xs]
        assert any(v.refuted for v in verdicts)
        assert any(not v.refuted for v in verdicts)
        assert any(v.skipped_samples > 0 for v in verdicts)

    def test_zero_covector_case_mixes_skips_and_scores(self):
        _, f, p, xs, samples = REFUTER_CASES[-1]
        v = ref_subdiff_refute(f, p, Tangent(p, xs[0]), samples)
        assert 0 < v.skipped_samples < len(SCALES) * samples
        assert all(math.isfinite(q) for _, q in v.quotient_trace)

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (6, 2), (8, 3)])
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("frame", [0, 1, 2])
    def test_check_dual_nc(self, n, k, beta, frame):
        # the frames, covectors, seeds and samples of the penalty study at seed 0
        rng = np.random.default_rng(1)
        frames = [np.eye(n, k)] + [random_stiefel_plus(n, k, rng) for _ in range(2)]
        p = Point(stiefel(n, k), frames[frame])
        cone = stiefel_plus_normal_cone(p.coords)
        f, seed = _penalty(beta), 101 * frame
        got = check_dual_nc(f, cone, alpha=1.0, seed=seed)
        rng = np.random.default_rng(seed)
        candidates = list(cone.extreme_rays())
        candidates += cone.sample_members(rng, max(0, 24 - len(candidates)), radius=1.0)
        refute_seed = int(rng.integers(2**31))  # one seed, drawn after the candidates
        refs = [ref_subdiff_refute(f, p, Tangent(p, x), 10, seed=refute_seed)
                for x in candidates]
        want = [r.witness for r in refs if r.refuted]
        assert got.checked == len(refs)
        assert got.passed == (not want)
        assert len(got.failures) == len(want)
        for w_got, w_ref in zip(got.failures, want):
            for field in ("covector", "point_coords", "scale", "quotient"):
                assert _bits(getattr(w_got, field)) == _bits(getattr(w_ref, field))
        if beta == 2.0 and frame == 0:
            assert want  # the smooth penalty is refuted at the reference frame

    def test_objective_must_give_one_value_per_row(self):
        p = Point(euclidean(2), np.zeros(2))
        with pytest.raises(GeometryError, match="shape"):
            refute_one(frechet_subdiff_refute, lambda u: float(np.sum(u)), p,
                       tangent(p, 1.0, 0.0))

    def test_contingent_derivative(self):
        for f, p, vs in _direction_cases():
            assert _bits(contingent_derivative(f, p, vs)) == \
                _bits(ref_contingent_derivative(f, p, vs))

    @pytest.mark.parametrize("p", [
        Point(euclidean(3), np.array([1.0, -2.0, 0.5])),
        circle_point(0.7),
        Point(sphere(4), np.array([0.0, 1.0, 0.0, 0.0])),
        _frame_point(5, 2, 1),
        _frame_point(8, 3, 2),
    ], ids=["euclidean", "circle", "sphere", "stiefel-5x2", "stiefel-8x3"])
    def test_block_draw_equals_sequential_draws(self, p):
        for seed, count in ((0, 1), (1, 17), (2, 32)):
            block = random_tangents(p, [np.random.default_rng(seed)], count)
            rng = np.random.default_rng(seed)
            sequential = [ref_random_tangent(p, rng).vec for _ in range(count)]
            assert block.tobytes() == np.stack(sequential).tobytes()

    def test_block_redraws_from_each_rows_own_generator(self):
        p = circle_point(0.0)  # tangent space: the y-axis, so (x, 0) draws are degenerate

        def gens():
            return [_Scripted([[0.3, 0.5], [2.0, 0.0]], [[7.0, 0.0]], [[1.0, -0.2]]),
                    _Scripted([[0.1, 0.0], [0.0, -2.0]], [[0.0, 0.4]])]

        block = random_tangents(p, gens(), 2)
        one_by_one = np.concatenate([random_tangents(p, [g], 2) for g in gens()])
        assert block.tobytes() == one_by_one.tobytes()
        assert np.array_equal(block, [[0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [0.0, -1.0]])


class _Scripted:
    """A generator stand-in whose ``standard_normal`` calls return the given
    draws in turn."""

    def __init__(self, *draws):
        self.draws = [np.array(d, dtype=float) for d in draws]

    def standard_normal(self, shape):
        out = self.draws.pop(0)
        assert out.shape == shape
        return out


# ---------------------------------------------------------------------------
# Reference: the one-Point-per-sample samplers and consumers that the stack
# contract replaced
# ---------------------------------------------------------------------------


def ref_stiefel_plus_sampler(p):
    """Per-move, per-angle sampler yielding one Point per accepted frame."""
    tol = 1e-12
    mat = np.asarray(p, dtype=float)
    n, k = mat.shape
    zrows = [i for i in range(n) if np.all(np.abs(mat[i]) <= tol)]
    supports = [tuple(np.flatnonzero(mat[:, j] > tol)) for j in range(k)]
    moves = []
    for sup in supports:
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

    def sampler(t, rng):
        out = []
        for i, j, sign, wj in moves:
            if wj <= 0:
                continue
            theta = min(2.0 * math.asin(min(t / (2.0 * wj), 0.7)), math.pi / 4)
            for th in (sign * theta, sign * theta * float(rng.uniform(0.3, 0.95)), -sign * theta):
                v = rotate(i, j, th)
                if not np.all(v >= -0.0):
                    continue
                d = float(np.linalg.norm(v - mat))
                if 0.0 < d <= 2.0 * t:
                    out.append(Point(stiefel(n, k), v))
        return out

    return sampler


def ref_log(p, q):
    """Scalar inverse exponential chart (euclidean and sphere)."""
    m = p.manifold
    if m.kind == "euclidean":
        return q.coords - p.coords
    cos_t = float(np.dot(p.coords, q.coords))
    w = q.coords - float(np.dot(q.coords, p.coords)) * p.coords
    nw = float(np.linalg.norm(w))
    theta = math.atan2(nw, cos_t)
    if nw == 0.0:
        return np.zeros_like(p.coords)
    return (theta / nw) * w


def _ref_chart_vector(p, u):
    if p.manifold.kind in ("euclidean", "sphere"):
        w = ref_log(p, u)
        return w, float(np.linalg.norm(w))
    chord = u.coords - p.coords
    return chord, float(np.linalg.norm(chord))


def ref_normal_refute(sampler, p, x, seed=0):
    """One covector, one point at a time, against the sample the call's
    scale i draws from child i of SeedSequence(seed)."""
    streams = SeedSequence(seed).spawn(len(NORMAL_SCALES))
    trace, best = [], []
    for t, ss in zip(NORMAL_SCALES, streams):
        rng = default_rng(ss)
        q_max, arg = -math.inf, None
        for u in sampler(t, rng):
            w, d = _ref_chart_vector(p, u)
            if d <= 0.0 or d > 2.0 * t:
                continue
            q = float(np.sum(x.vec * w)) / d
            if q > q_max:
                q_max, arg = q, u
        trace.append((t, q_max))
        best.append(arg)
        if _two_consecutive(trace, above=True) is not None:
            break
    idx = _two_consecutive(trace, above=True)
    if idx is None:
        return RefutationVerdict(None, tuple(trace))
    witness = Witness(covector=np.array(x.vec), point_coords=np.array(best[idx].coords),
                      scale=trace[idx][0], quotient=trace[idx][1])
    return RefutationVerdict(witness, tuple(trace))


def ref_ray_distance(v, w):
    nw = float(np.linalg.norm(w))
    wh = w / nw
    s = max(float(np.sum(v * wh)), 0.0)
    return float(np.linalg.norm(v - s * wh))


def ref_contingent_cone_distance(sampler, p, vs, seed=0):
    """One direction, one ray at a time, against the call's one set sample:
    the sampler at the two smallest scales, scale i with child i of
    SeedSequence(seed)."""
    streams = SeedSequence(seed).spawn(len(SCALES))
    sample = [u for i in (-2, -1) for u in sampler(SCALES[i], default_rng(streams[i]))]
    out = []
    for vec in vs:
        estimate = math.inf
        for u in sample:
            w, d = _ref_chart_vector(p, u)
            if d > 0.0:
                estimate = min(estimate, ref_ray_distance(np.asarray(vec, dtype=float), w))
        out.append(estimate)
    return out


def ref_cross_validate(n_frames, seed):
    """The cross-validation as one refuter call per covector: frames up to
    6 x 3, five members and five violators per frame, then the frame's one
    refuter seed."""
    from sharpmin.cones import _pattern_violators

    rng = np.random.default_rng(seed)
    members = violators = 0
    disagreements = []
    for idx in range(n_frames):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, n) + 1))
        p = random_stiefel_plus(n, k, rng)
        cone = stiefel_plus_normal_cone(p)
        sampler = ref_stiefel_plus_sampler(p)
        base = Point(stiefel(n, k), p)
        frame_members = cone.sample_members(rng, 5)
        frame_violators = _pattern_violators(cone, rng)
        seed_of_frame = int(rng.integers(2**31))
        for x in frame_members:
            members += 1
            if not cone.contains(x):
                disagreements.append((idx, "member-not-in-pattern", x))
                continue
            if ref_normal_refute(sampler, base, Tangent(base, x), seed=seed_of_frame).refuted:
                disagreements.append((idx, "member-refuted", x))
        for x in frame_violators:
            violators += 1
            if cone.contains(x):
                disagreements.append((idx, "violator-in-pattern", x))
                continue
            if not ref_normal_refute(sampler, base, Tangent(base, x), seed=seed_of_frame).refuted:
                disagreements.append((idx, "violator-not-refuted", x))
    return members, violators, disagreements


def ref_dist_subdiff_identity(fixture, n_covectors, seed):
    """Failures of the distance-subdifferential check, one refuter call per
    covector, each with the one seed drawn after the covectors."""
    margin = 0.1
    rng = np.random.default_rng(seed)
    p = fixture.point
    inside_x = [fixture.cone_sample_in(rng) for _ in range(n_covectors)]
    outside_x, rays = [], list(fixture.cone_rays)
    for i in range(n_covectors):
        if rays and i % 2 == 0:
            outside_x.append((1.0 + margin + float(rng.uniform(0.0, 0.5)))
                             * rays[(i // 2) % len(rays)])
        else:
            outside_x.append(fixture.cone_sample_out(rng, margin))
    refute_seed = int(rng.integers(2**31))
    verdicts = [ref_subdiff_refute(fixture.dist_fn, p, Tangent(p, x), seed=refute_seed)
                for x in inside_x + outside_x]
    inside = [v.witness for v in verdicts[:n_covectors] if v.refuted]
    outside = [x for x, v in zip(outside_x, verdicts[n_covectors:]) if not v.refuted]
    return inside, outside


def ref_fixture_sampler(name):
    """The fixtures' set samplers as they were, one Point per set point."""
    m = euclidean(2)
    if name == "axis-in-plane":
        def sampler(t, rng):
            xs = t * rng.uniform(0.05, 1.0, size=8) * rng.choice([-1.0, 1.0], size=8)
            return [Point(m, np.array([x, 0.0])) for x in xs]
    elif name == "halfplane":
        def sampler(t, rng):
            out = []
            for ang in np.linspace(math.pi, 2.0 * math.pi, 128):
                r = t * 0.9
                out.append(Point(m, r * np.array([math.cos(ang), math.sin(ang)])))
            for _ in range(8):
                ang = float(rng.uniform(math.pi, 2.0 * math.pi))
                r = t * float(rng.uniform(0.05, 1.0))
                out.append(Point(m, r * np.array([math.cos(ang), math.sin(ang)])))
            return out
    elif name == "nonnegative-arc":
        def sampler(t, rng):
            angs = np.minimum(t, math.pi / 2.0) * rng.uniform(0.05, 1.0, size=8)
            return [Point(sphere(2), np.array([math.cos(a), math.sin(a)])) for a in angs]
    else:
        def sampler(t, rng):
            out = []
            for _ in range(8):
                d = rng.standard_normal(2)
                d /= np.linalg.norm(d)
                out.append(Point(m, t * float(rng.uniform(0.05, 1.0)) * d))
            return out
    return sampler


FRAME_GRID = [(2, 1), (4, 2), (6, 2), (8, 3)]


def _grid_frames(n, k):
    """A reference frame with zero rows, a frame without (every row positive
    in column i mod k) and seeded St+ frames."""
    rng = np.random.default_rng(n * 10 + k)
    full = np.zeros((n, k))
    full[np.arange(n), np.arange(n) % k] = rng.uniform(0.2, 1.0, size=n)
    frames = [np.eye(n, k), full / np.linalg.norm(full, axis=0)]
    return frames + [random_stiefel_plus(n, k, rng) for _ in range(2)]


def _grid_covectors(cone, rng):
    from sharpmin.cones import _pattern_violators

    xs = cone.extreme_rays()[:3] + cone.sample_members(rng, 3)
    xs += _pattern_violators(cone, rng)[:3] + [np.zeros((cone.n, cone.k))]
    if len(cone.zero_rows) >= 2:
        # equal mass on the zero rows of column 0: symmetric moves from one
        # supported row tie in quotient, so each scale must keep the first
        tie = np.zeros((cone.n, cone.k))
        tie[list(cone.zero_rows), 0] = 0.5
        xs.append(tie)
    return xs


def _stack_of(points, shape):
    return np.array([u.coords for u in points], dtype=float).reshape(len(points), *shape)


class TestStackSamplersMatchPerSampleReference:
    """Samplers return coordinate stacks and the refuters score a stack of
    covectors as one table; both must reproduce the one-Point-per-sample code
    bit for bit: same stacks, traces, witnesses and skip counts."""

    @pytest.mark.parametrize("n,k", FRAME_GRID)
    def test_stiefel_plus_sampler(self, n, k):
        for frame in _grid_frames(n, k):
            shared = stiefel_plus_sampler(stiefel_plus_normal_cone(frame))
            # a sampler called again at a scale it has seen gives the same bits
            for seed, t in enumerate((0.1, 0.0125, 1e-4, 0.1, 1e-4, 0.0125)):
                want = ref_stiefel_plus_sampler(frame)(t, np.random.default_rng(seed))
                for got in (stiefel_plus_sampler(stiefel_plus_normal_cone(frame))(
                                t, np.random.default_rng(seed)),
                            shared(t, np.random.default_rng(seed))):
                    assert got.shape == (len(want), n, k)
                    assert got.tobytes() == _stack_of(want, (n, k)).tobytes()

    @pytest.mark.parametrize("n,k", FRAME_GRID)
    def test_normal_refute(self, n, k):
        refuted = 0
        for f_idx, frame in enumerate(_grid_frames(n, k)):
            cone = stiefel_plus_normal_cone(frame)
            base = Point(stiefel(n, k), frame)
            xs = _grid_covectors(cone, np.random.default_rng(f_idx))
            seed = 17 + f_idx
            got = frechet_normal_refute(stiefel_plus_sampler(cone), base, np.array(xs), seed=seed)
            assert len(got) == len(xs)
            for x, v in zip(xs, got):
                want = ref_normal_refute(ref_stiefel_plus_sampler(frame), base,
                                         Tangent(base, x), seed=seed)
                assert_same_verdict(v, want)
                refuted += want.refuted
            one = refute_one(frechet_normal_refute, stiefel_plus_sampler(cone), base,
                             Tangent(base, xs[0]), seed=seed)
            assert_same_verdict(one, got[0])
            assert got.refuted == sum(v.refuted for v in got)
        if n > k:
            assert refuted > 0

    @pytest.mark.parametrize("n,k", FRAME_GRID)
    def test_contingent_cone_distance(self, n, k):
        for f_idx, frame in enumerate(_grid_frames(n, k)):
            p = Point(stiefel(n, k), frame)
            rng = np.random.default_rng(f_idx)
            for seed in (0, 9):
                vs = np.stack([tangent_project(p.manifold, frame, rng.standard_normal((n, k)))
                               for _ in range(3)])
                sampler = stiefel_plus_sampler(stiefel_plus_normal_cone(frame))
                got = contingent_cone_distance(sampler, p, vs, seed=seed)
                want = ref_contingent_cone_distance(ref_stiefel_plus_sampler(frame), p, vs,
                                                    seed=seed)
                assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("builder", [fx.axis_fixture, fx.halfplane_fixture, fx.arc_fixture,
                                         fx.fullspace_fixture])
    def test_fixture_samplers_and_cone_distance(self, builder):
        fixture = builder()
        ref = ref_fixture_sampler(fixture.name)
        for t, seed in ((0.1, 0), (1e-3, 4)):
            got = fixture.omega_sampler(t, np.random.default_rng(seed))
            want = ref(t, np.random.default_rng(seed))
            assert got.tobytes() == _stack_of(want, fixture.point.manifold.ambient_shape).tobytes()
        vs = np.array(fixture.directions)
        for seed in (0, 3, 2**128 + 3):
            assert _bits(contingent_cone_distance(fixture.omega_sampler, fixture.point, vs,
                                                  seed=seed)) == \
                _bits(ref_contingent_cone_distance(ref, fixture.point, vs, seed=seed))

    def test_cross_validation(self):
        got = cross_validate_pattern_cone(n_frames=12, seed=4)
        members, violators, disagreements = ref_cross_validate(12, 4)
        assert (got.counters["members_checked"], got.counters["violators_checked"]) == \
            (members, violators)
        assert [(i, kind) for i, kind, _ in got.failures] == \
            [(i, kind) for i, kind, _ in disagreements]

    @pytest.mark.parametrize("builder", [fx.halfplane_fixture, fx.arc_fixture,
                                         fx.fullspace_fixture])
    def test_dist_subdiff_identity(self, builder):
        base = builder()
        # the cone samplers swapped, so that both kinds of failure occur
        fixture = dataclasses.replace(
            base, cone_sample_in=lambda rng: base.cone_sample_out(rng, 0.2),
            cone_sample_out=lambda rng, margin: base.cone_sample_in(rng))
        got = check_dist_subdiff_identity(fixture, n_covectors=6, seed=3)
        inside, outside = ref_dist_subdiff_identity(fixture, 6, 3)
        assert inside and outside
        inside_got = [w for tag, w in got.failures if tag == "inside"]
        assert len(inside_got) == len(inside)
        for w_got, w_ref in zip(inside_got, inside):
            for field in ("covector", "point_coords", "scale", "quotient"):
                assert _bits(getattr(w_got, field)) == _bits(getattr(w_ref, field))
        assert _bits([x for tag, x in got.failures if tag == "outside"]) == _bits(outside)

    @pytest.mark.parametrize("seed", [3, 2**64 + 1])
    def test_subdiff_stack_with_skips(self, seed):
        _, f, p, xs, samples = REFUTER_CASES[-1]  # zero covector and NaN samples
        xs = np.array(xs + xs[::-1])
        got = frechet_subdiff_refute(f, p, xs, seed=seed, samples=samples)
        for x, v in zip(xs, got):
            assert_same_verdict(v, ref_subdiff_refute(f, p, Tangent(p, x), samples, seed=seed))
        assert got.skipped_samples == sum(v.skipped_samples for v in got) > 0

    @pytest.mark.parametrize("seed", [2, 2**128 + 3])
    def test_normal_refute_keeps_first_of_tied_samples(self, seed):
        # mirror pairs (a, b), (a, -b) tie in quotient for x = (1, 0)
        p = Point(euclidean(2), np.zeros(2))

        def pairs(t, rng):
            a, b = 0.9 * t, t * rng.uniform(0.1, 0.5)  # a > b
            return np.array([[b, a], [a, -b], [a, b], [-a, b]])

        def ref_pairs(t, rng):
            return [Point(p.manifold, u) for u in pairs(t, rng)]

        xs = np.array([[1.0, 0.0], [0.0, 1.0]])
        got = frechet_normal_refute(pairs, p, xs, seed=seed)
        for x, v in zip(xs, got):
            want = ref_normal_refute(ref_pairs, p, Tangent(p, x), seed=seed)
            assert want.refuted
            assert_same_verdict(v, want)
        assert got[0].witness.point_coords[1] < 0.0  # the first of the pair

    def test_covector_stack_of_the_wrong_shape_refused(self):
        p = Point(euclidean(2), np.zeros(2))
        with pytest.raises(GeometryError, match="shape"):
            frechet_subdiff_refute(lambda u: u[:, 0], p, np.zeros((2, 3)), seed=1)
        with pytest.raises(GeometryError, match="shape"):
            frechet_normal_refute(fx.axis_fixture().omega_sampler, p, np.zeros((2, 3)), seed=1)


def _growing_cone_value(u):
    """||u|| (1 + 20 ||u||), NaN on the directions within about 26 degrees
    of +y: along a probe of x = (a, 0) the quotient is 1 + 20 t - a."""
    r = np.linalg.norm(u, axis=1)
    return np.where(u[:, 1] > 0.9 * r, np.nan, r * (1.0 + 20.0 * r))


def _narrowing_set(t, rng):
    """Points of a plane set at distance up to t from 0: in the third
    quadrant at scales above 0.02, in the lower half-plane below it."""
    top = 1.5 * math.pi if t > 0.02 else 2.0 * math.pi
    phi = rng.uniform(math.pi, top, size=8)
    r = t * rng.uniform(0.05, 1.0, size=8)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


class TestMixedStack:
    """A mixed stack must give, covector by covector, what one-covector calls
    and the per-sample references give under the call's one seed; a refuted
    covector's trace and skip count end at its refuting scale, and every
    scale is drawn and checked whatever the verdicts."""

    ORIGIN = Point(euclidean(2), np.zeros(2))
    # refuted at the second scale, refuted at the fifth, consistent, zero
    SUBDIFF_XS = np.array([[5.0, 0.0], [1.5, 0.0], [0.5, 0.0], [0.0, 0.0]])
    NORMAL_XS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    SUBDIFF_TRACE_LENGTHS = [2, 5, 11, 11]
    NORMAL_TRACE_LENGTHS = [2, 5, 8, 8]

    @staticmethod
    def _check(got, one_by_one, refs, lengths):
        assert [len(v.quotient_trace) for v in got] == lengths
        assert [v.refuted for v in got] == [True, True, False, False]
        for v, one, ref in zip(got, one_by_one, refs):
            assert_same_verdict(v, ref)
            assert_same_verdict(one, ref)
            if v.refuted:
                assert v.witness.scale == v.quotient_trace[-1][0]

    def test_subdiff_refute(self):
        p, seed = self.ORIGIN, 3
        got = frechet_subdiff_refute(_growing_cone_value, p, self.SUBDIFF_XS, seed=seed)
        one_by_one = [refute_one(frechet_subdiff_refute, _growing_cone_value, p, Tangent(p, x),
                                 seed=seed) for x in self.SUBDIFF_XS]
        refs = [ref_subdiff_refute(_growing_cone_value, p, Tangent(p, x), seed=seed)
                for x in self.SUBDIFF_XS]
        self._check(got, one_by_one, refs, self.SUBDIFF_TRACE_LENGTHS)
        # the skips of the refuted covectors stop at their refuting scale
        assert all(v.skipped_samples > 0 for v in got)
        assert got[0].skipped_samples < got[1].skipped_samples < got[2].skipped_samples

    def test_normal_refute(self):
        p, seed = self.ORIGIN, 2

        def ref_sampler(t, rng):
            return [Point(p.manifold, u) for u in _narrowing_set(t, rng)]

        got = frechet_normal_refute(_narrowing_set, p, self.NORMAL_XS, seed=seed)
        one_by_one = [refute_one(frechet_normal_refute, _narrowing_set, p, Tangent(p, x),
                                 seed=seed) for x in self.NORMAL_XS]
        refs = [ref_normal_refute(ref_sampler, p, Tangent(p, x), seed=seed)
                for x in self.NORMAL_XS]
        self._check(got, one_by_one, refs, self.NORMAL_TRACE_LENGTHS)

    @pytest.mark.parametrize("case", REFUTER_CASES, ids=[c[0] for c in REFUTER_CASES])
    def test_subdiff_verdict_independent_of_the_stack(self, case):
        # alone, in the stack and in the reversed stack, under the same seed
        _, f, p, xs, samples = case
        xs = np.array(xs, dtype=float)
        stacked = frechet_subdiff_refute(f, p, xs, seed=11, samples=samples)
        reversed_ = frechet_subdiff_refute(f, p, xs[::-1], seed=11, samples=samples)[::-1]
        for x, a, b in zip(xs, stacked, reversed_):
            alone = refute_one(frechet_subdiff_refute, f, p, Tangent(p, x), seed=11,
                               samples=samples)
            assert_same_verdict(a, alone)
            assert_same_verdict(b, alone)

    @pytest.mark.parametrize("n,k", FRAME_GRID)
    def test_normal_verdict_independent_of_the_stack(self, n, k):
        frame = _grid_frames(n, k)[2]
        cone = stiefel_plus_normal_cone(frame)
        base = Point(stiefel(n, k), frame)
        xs = np.array(_grid_covectors(cone, np.random.default_rng(5)))
        sampler = stiefel_plus_sampler(cone)
        stacked = frechet_normal_refute(sampler, base, xs, seed=11)
        reversed_ = frechet_normal_refute(sampler, base, xs[::-1], seed=11)[::-1]
        for x, a, b in zip(xs, stacked, reversed_):
            alone = refute_one(frechet_normal_refute, sampler, base, Tangent(base, x), seed=11)
            assert_same_verdict(a, alone)
            assert_same_verdict(b, alone)

    @pytest.mark.parametrize("cutoff", [0.01, 1.0], ids=["late-scales-empty", "all-empty"])
    def test_normal_refute_scales_without_samples(self, cutoff):
        # a scale without samples keeps the quotient -inf and is never a witness
        p = self.ORIGIN

        def sampler(t, rng):
            return np.zeros((0, 2)) if t < cutoff else np.array([[t, 0.0]])

        def ref_sampler(t, rng):
            return [Point(p.manifold, u) for u in sampler(t, rng)]

        xs = np.array([[1.0, 0.0], [-1.0, 0.0]])
        got = frechet_normal_refute(sampler, p, xs, seed=1)
        for x, v in zip(xs, got):
            assert_same_verdict(v, ref_normal_refute(ref_sampler, p, Tangent(p, x), seed=1))
        assert got[0].refuted == (cutoff < 0.1)
        assert got[1].quotient_trace[-1][1] == -math.inf

    # the fifth scale and later are below this
    LATE = 0.01

    def test_normal_refute_checks_every_scale(self):
        # a sampler with a bad shape at the late scales: a covector refuted at
        # the second scale raises as well, since every scale is drawn
        p = self.ORIGIN

        def sampler(t, rng):
            return np.zeros((1, 3)) if t < self.LATE else np.array([[t, 0.0]])

        for xs in ([[1.0, 0.0]], [[0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]):
            with pytest.raises(GeometryError, match="sampler gave shape"):
                frechet_normal_refute(sampler, p, np.array(xs), seed=0)

    def test_subdiff_refute_checks_every_scale(self):
        # an objective that gives one value too few on a block holding rows
        # at the late scales: the same for a covector refuted at the second
        p = self.ORIGIN

        def f(u):
            values = np.linalg.norm(u, axis=1)
            return values[:-1] if ((values > 0) & (values < self.LATE)).any() else values

        for xs in ([[5.0, 0.0]], [[0.5, 0.0]], [[5.0, 0.0], [0.5, 0.0]]):
            with pytest.raises(GeometryError, match="objective gave shape"):
                frechet_subdiff_refute(f, p, np.array(xs), seed=0)

    def test_table_past_the_cap_refused_before_any_draw(self, monkeypatch):
        # 8 bytes x 2 entries x 11 scales x (2 probes + 32 directions) a
        # covector in the plane: 11,968 bytes, so 5,608 covectors are refused
        def draw(*args):
            raise AssertionError("drawn")
        monkeypatch.setattr(cones_module, "random_tangents", draw)
        p = self.ORIGIN
        unit = 8 * 2 * 11 * 34
        count = STACK_BYTES // unit + 1
        with pytest.raises(BudgetExceededError) as info:
            frechet_subdiff_refute(lambda u: u[:, 0], p, np.zeros((count, 2)), seed=0)
        assert str(info.value) == (f"the subdifferential refuter's quotient table needs "
                                   f"{unit * count} bytes, cap is {STACK_BYTES}")
        with pytest.raises(AssertionError, match="drawn"):
            frechet_subdiff_refute(lambda u: u[:, 0], p, np.zeros((count - 1, 2)), seed=0)

    def test_normal_table_past_the_cap_refused_before_scoring(self, monkeypatch):
        # the table's size is known once the sampler has given its stacks: 2
        # covectors x 8 axis points at each of the 8 scales x 2 entries
        monkeypatch.setattr(manifolds_module, "STACK_BYTES", 8 * 2 * 64 * 2 - 1)
        ax, scales = fx.axis_fixture(), []

        def sampler(t, rng):
            scales.append(t)
            return ax.omega_sampler(t, rng)

        with pytest.raises(BudgetExceededError) as info:
            frechet_normal_refute(sampler, ax.point, np.eye(2), seed=0)
        assert str(info.value) == ("the normal refuter's quotient table needs 2048 bytes, "
                                   "cap is 2047")
        assert scales == list(NORMAL_SCALES)
        monkeypatch.setattr(manifolds_module, "STACK_BYTES", 8 * 2 * 64 * 2)
        assert len(frechet_normal_refute(ax.omega_sampler, ax.point, np.eye(2), seed=0)) == 2

    @pytest.mark.parametrize("case", range(5), ids=["axis", "halfplane", "arc", "nan", "stiefel"])
    def test_contingent_derivative_independent_of_the_stack(self, case):
        f, p, vs = _direction_cases()[case]
        stacked = contingent_derivative(f, p, vs)
        assert _bits(contingent_derivative(f, p, vs[::-1])[::-1]) == _bits(stacked)
        for v, got in zip(vs, stacked):
            assert _bits(contingent_derivative(f, p, v[None])) == _bits([got])

    @pytest.mark.parametrize("builder", [fx.axis_fixture, fx.halfplane_fixture, fx.arc_fixture])
    def test_contingent_cone_distance_independent_of_the_stack(self, builder):
        fixture = builder()
        vs = np.array(fixture.directions)
        stacked = contingent_cone_distance(fixture.omega_sampler, fixture.point, vs, seed=11)
        reversed_ = contingent_cone_distance(fixture.omega_sampler, fixture.point, vs[::-1],
                                             seed=11)[::-1]
        assert _bits(reversed_) == _bits(stacked)
        for v, got in zip(vs, stacked):
            alone = contingent_cone_distance(fixture.omega_sampler, fixture.point, v[None],
                                             seed=11)
            assert _bits(alone) == _bits([got])

    @pytest.mark.parametrize("n,k", FRAME_GRID)
    def test_contingent_cone_distance_on_frames_independent_of_the_stack(self, n, k):
        frame = _grid_frames(n, k)[2]
        p = Point(stiefel(n, k), frame)
        rng = np.random.default_rng(5)
        vs = np.stack([tangent_project(p.manifold, frame, rng.standard_normal((n, k)))
                       for _ in range(4)])
        sampler = stiefel_plus_sampler(stiefel_plus_normal_cone(frame))
        stacked = contingent_cone_distance(sampler, p, vs, seed=11)
        assert _bits(contingent_cone_distance(sampler, p, vs[::-1], seed=11)[::-1]) == \
            _bits(stacked)
        for v, got in zip(vs, stacked):
            assert _bits(contingent_cone_distance(sampler, p, v[None], seed=11)) == _bits([got])
