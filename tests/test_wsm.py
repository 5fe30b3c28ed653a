"""Sharpness verification tests: sampled inequality checks, modulus
estimation, and the primal/dual necessary conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpmin.fixtures as fx
from sharpmin.cones import GeometryError, stiefel_plus_normal_cone
from sharpmin.manifolds import Point, stiefel
from sharpmin.cheeger import _stiefel_distance, wsm_penalty_check
from sharpmin.stiefel import random_stiefel, random_stiefel_plus
from sharpmin.wsm import (
    INSIDE_TOL,
    WsmInstance,
    check_dual_nc,
    check_primal_nc,
    estimate_modulus,
    verify_wsm_sampled,
)
from helpers import circle_penalty, circle_point
from slice_reference import ref_stiefel_distance


def circle_coords(thetas):
    """Stack of the circle points at the given angles (the coordinates of
    ``circle_point``)."""
    return np.array([circle_point(t).coords for t in thetas]).reshape(len(thetas), 2)


def circle_sampler(count, rng):
    return circle_coords(rng.uniform(-math.pi, math.pi, size=count))


def arc_distance(coords):
    return np.array([fx.arc_angular_distance(math.atan2(y, x)) for x, y in coords.tolist()])


def circle_instance(beta, alpha):
    return WsmInstance(
        f=circle_penalty(beta),
        feasible_sampler=circle_sampler,
        distance=arc_distance,
        point=circle_point(0.3),
        alpha=alpha,
    )


def arc_instance(f, sampler, distance):
    """An instance for a modulus estimate: f is 0 on the arc, where the
    reference point lies."""
    return WsmInstance(f=f, feasible_sampler=sampler, distance=distance,
                       point=circle_point(0.3), alpha=1.0)


class TestVerifyWsm:
    def test_distance_itself_is_strongly_sharp(self):
        inst = WsmInstance(
            f=fx.arc_fixture().dist_fn,
            feasible_sampler=circle_sampler,
            distance=arc_distance,
            point=circle_point(0.3),
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
            coords, fval, d = verdict.witness
            assert fval < alpha * d  # the witness re-evaluates as a violation
            assert d == arc_distance(coords[None])[0]

    def test_translation_invariance(self):
        base = circle_instance(0.5, 0.5)
        shifted = WsmInstance(
            f=lambda u: base.f(u) + 17.25,
            feasible_sampler=base.feasible_sampler,
            distance=base.distance,
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
            distance=base.distance,
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

    def test_distance_without_one_value_per_point_refused(self):
        for distance in (lambda coords: 1.0,
                         lambda coords: np.ones(len(coords) + 1),
                         lambda coords: (np.zeros(len(coords)), np.ones(len(coords)))):
            inst = WsmInstance(f=circle_penalty(0.5), feasible_sampler=circle_sampler,
                               distance=distance, point=circle_point(0.3), alpha=1.0)
            with pytest.raises(GeometryError, match="distance gave shape"):
                verify_wsm_sampled(inst, 10, seed=0)
            with pytest.raises(GeometryError, match="distance gave shape"):
                estimate_modulus(inst, 10)

    def test_empty_stack_calls_no_distance(self):
        def distance(coords):
            raise AssertionError("distance called on an empty stack")

        def no_samples(count, rng):
            return np.zeros((0, 2))

        inst = WsmInstance(f=circle_penalty(0.5), feasible_sampler=no_samples,
                           distance=distance, point=circle_point(0.3), alpha=1.0)
        verdict = verify_wsm_sampled(inst, 10, seed=0)
        assert (verdict.status, verdict.n_samples) == ("pass_strong", 0)

    def test_nonminimal_reference_refused(self):
        def arc_sampler(count, rng):
            return circle_coords(rng.uniform(0.0, math.pi / 2, size=count))

        inst = WsmInstance(
            f=lambda u: -u[:, 0],  # minimized at theta = 0, not 0.9
            feasible_sampler=circle_sampler,
            distance=arc_distance,
            point=circle_point(0.9),
            alpha=1.0,
            solution_sampler=arc_sampler,
        )
        with pytest.raises(GeometryError):
            verify_wsm_sampled(inst, 10, seed=0)


class TestEstimateModulus:
    def test_scaled_distance(self):
        f = fx.arc_fixture().dist_fn
        est = estimate_modulus(arc_instance(lambda u: 2.0 * f(u), circle_sampler, arc_distance),
                               500, seed=0)
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_square_penalty_vanishes(self):
        # near the arc ends the ratio d^2/d collapses; sample close to them
        def near_boundary_sampler(count, rng):
            thetas = -(10.0 ** rng.uniform(-4, -1, size=count))
            return circle_coords(thetas)

        inst = arc_instance(circle_penalty(2.0), near_boundary_sampler, arc_distance)
        est = estimate_modulus(inst, 200, seed=0)
        assert est <= 5e-3

    def test_sqrt_penalty_bounded_below(self):
        # oracle: dense-grid minimum of sum(sqrt(neg)) / chordal distance
        def chordal(u):
            return fx.arc_chordal_distance(math.atan2(float(u[1]), float(u[0])))

        def chordal_distance(coords):
            return np.array([chordal(u) for u in coords])

        grid = circle_coords(np.linspace(-math.pi, math.pi, 2000, endpoint=False))
        f = circle_penalty(0.5)
        oracle = min(f(u[None])[0] / chordal(u) for u in grid if chordal(u) > 0)
        assert oracle >= 0.70

        est = estimate_modulus(arc_instance(f, circle_sampler, chordal_distance), 1000, seed=0)
        assert est >= 0.70
        assert est >= oracle - 1e-9

    def test_all_inside_is_inf(self):
        # no sample outside the set bounds the modulus: the estimate is inf,
        # as in the sampled sharpness check
        def inside_sampler(count, rng):
            return circle_coords([0.3] * count)

        inst = arc_instance(circle_penalty(0.5), inside_sampler, arc_distance)
        assert estimate_modulus(inst, 5, seed=0) == math.inf
        assert verify_wsm_sampled(inst, 5, seed=0).estimated_modulus == math.inf

    def test_rounding_level_distance_counts_as_inside(self):
        # a point on the set whose computed distance is an ulp above zero must
        # be skipped, not read as a zero modulus
        inside, outside = circle_point(0.3), circle_point(-0.5)

        def two_point_sampler(count, rng):
            return np.stack([inside.coords, outside.coords])

        def distance(coords):
            return np.where(np.all(coords == inside.coords, axis=1), 1e-16, 0.5)

        est = estimate_modulus(arc_instance(circle_penalty(1.0), two_point_sampler, distance), 2)
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
        sharp = check_primal_nc(circle_penalty(0.5), arc.omega_sampler, arc.point,
                                1.0, dirs)
        smooth = check_primal_nc(circle_penalty(2.0), arc.omega_sampler, arc.point,
                                 1.0, dirs)
        assert sharp.passed
        assert not smooth.passed
        v, lhs, rhs = smooth.witness
        assert lhs < 0.01 and rhs == pytest.approx(1.0, abs=1e-9)


class TestDualNc:
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

        verdict = check_dual_nc(fdist, self.cone(), alpha=0.7, seed=0)
        assert verdict.passed

    def test_square_penalty_refuted_with_witness(self):
        verdict = check_dual_nc(self.as_point_fn(2.0), self.cone(), alpha=1.0, seed=0)
        assert not verdict.passed
        w = verdict.witness
        assert np.allclose(w.covector, [[0.0], [-1.0]], atol=1e-12)

    def test_sqrt_penalty_consistent(self):
        verdict = check_dual_nc(self.as_point_fn(0.5), self.cone(), alpha=1.0, seed=0)
        assert verdict.passed


# ---------------------------------------------------------------------------
# Reference: the one-Point-per-sample samplers and checks that the stack
# contract replaced
# ---------------------------------------------------------------------------


def ref_random_stiefel(n, k, rng):
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def ref_feasible_sampler(n, k):
    def sampler(count, rng):
        return [Point(stiefel(n, k), ref_random_stiefel(n, k, rng)) for _ in range(count)]

    return sampler


def ref_solution_sampler(n, k):
    def sampler(count, rng):
        return [Point(stiefel(n, k), random_stiefel_plus(n, k, rng)) for _ in range(count)]

    return sampler


def _ref_values(f, points):
    return f(np.stack([u.coords for u in points])).tolist() if points else []


def ref_verify(f, sampler, point, alpha, n_samples, seed, solution_sampler=None):
    """(status, witness, modulus, checked), one Point and one full-table
    distance per sample."""
    tol = 1e-9
    f0 = _ref_values(f, [point])[0]
    if solution_sampler is not None:
        sols = solution_sampler(32, np.random.default_rng(seed))
        assert not any(fs < f0 - 1e-9 for fs in _ref_values(f, sols))
    rng = np.random.default_rng(seed)
    samples = sampler(n_samples, rng)
    witness, modulus, checked = None, math.inf, 0
    for u, fu in zip(samples, _ref_values(f, samples)):
        d = ref_stiefel_distance(u.coords)
        checked += 1
        gain = fu - f0
        if d > INSIDE_TOL and math.isfinite(d):
            modulus = min(modulus, gain / d)
        if witness is None and gain < alpha * d - tol:
            witness = (np.array(u.coords), fu, d)
    status = "violated" if witness is not None else "pass_strong"
    return status, witness, modulus, checked


def ref_estimate(f, sampler, n_samples, seed):
    outside, ds = [], []
    for u in sampler(n_samples, np.random.default_rng(seed)):
        d = ref_stiefel_distance(u.coords)
        if d <= INSIDE_TOL or not math.isfinite(d):
            continue
        outside.append(u)
        ds.append(d)
    est = math.inf
    for fu, d in zip(_ref_values(f, outside), ds):
        est = min(est, fu / d)
    return est


def _penalty(beta):
    return lambda u: np.sum((np.maximum(-u, 0.0) ** beta).reshape(len(u), -1), axis=-1)


def _same_wsm_verdict(got, want):
    status, witness, modulus, checked = want
    assert (got.status, got.n_samples) == (status, checked)
    assert np.float64(got.estimated_modulus).tobytes() == np.float64(modulus).tobytes()
    if witness is None:
        assert got.witness is None
    else:
        assert np.array(got.witness[1:]).tobytes() == np.array(witness[1:]).tobytes()
        assert got.witness[0].tobytes() == witness[0].tobytes()


WSM_GRID = [(2, 1), (4, 2), (6, 2), (8, 3)]


class TestStackSamplersMatchPerSampleReference:
    """Frames come as one standard_normal draw and one batched QR, and the
    checks call the stack distance once per stack; verdicts, witnesses and
    modulus estimates must be bitwise those of the one-Point-per-sample
    code."""

    @pytest.mark.parametrize("n,k", WSM_GRID)
    def test_random_frames(self, n, k):
        for count in (1, 7, 100):
            got = random_stiefel(n, k, np.random.default_rng(count), count)
            rng = np.random.default_rng(count)
            want = np.stack([ref_random_stiefel(n, k, rng) for _ in range(count)])
            assert got.tobytes() == want.tobytes()
        one = random_stiefel(n, k, np.random.default_rng(5))
        assert one.tobytes() == ref_random_stiefel(n, k, np.random.default_rng(5)).tobytes()

    @pytest.mark.parametrize("n,k", WSM_GRID)
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_verify_and_modulus(self, n, k, beta):
        point = Point(stiefel(n, k), np.eye(n, k))
        inst = WsmInstance(f=_penalty(beta),
                           feasible_sampler=lambda c, rng: random_stiefel(n, k, rng, c),
                           distance=_stiefel_distance, point=point, alpha=1.0)
        want = ref_verify(_penalty(beta), ref_feasible_sampler(n, k), point, 1.0, 60, 3)
        _same_wsm_verdict(verify_wsm_sampled(inst, 60, seed=3), want)
        est = estimate_modulus(inst, 60, seed=8)
        want = ref_estimate(_penalty(beta), ref_feasible_sampler(n, k), 60, 8)
        assert np.float64(est).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n,k", WSM_GRID)
    def test_penalty_study_samplers(self, n, k):
        beta, samples, seed = 0.5, 40, 2
        study = wsm_penalty_check(n, k, beta, n_samples=samples, seed=seed)
        point = Point(stiefel(n, k), np.eye(n, k))
        want = ref_verify(_penalty(beta), ref_feasible_sampler(n, k), point, 1.0, samples, seed,
                          solution_sampler=ref_solution_sampler(n, k))
        _same_wsm_verdict(study.wsm, want)
        counts = (samples // 4, samples // 2, samples)
        assert [c for c, _ in study.modulus_trace] == list(counts)
        for i, (count, est) in enumerate(study.modulus_trace):
            want = ref_estimate(_penalty(beta), ref_feasible_sampler(n, k), count, seed + 13 * i)
            assert np.float64(est).tobytes() == np.float64(want).tobytes()
