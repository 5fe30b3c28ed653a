"""Sharpness verification tests: sampled inequality checks, their modulus
trace, and the primal/dual necessary conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpmin.fixtures as fx
from sharpmin.cones import GeometryError, stiefel_plus_normal_cone
from sharpmin.manifolds import Point, stiefel
from sharpmin.cheeger import wsm_penalty_check
from sharpmin.stiefel import random_stiefel, slice_distances
from sharpmin.wsm import (
    INSIDE_TOL,
    VIOLATION_TOL,
    check_dual_nc,
    check_primal_nc,
    verify_wsm_sampled,
)
from helpers import arc_chordal_distance, circle_penalty, circle_point
from slice_reference import ref_slice_distance


def circle_coords(thetas):
    """Stack of the circle points at the given angles (the coordinates of
    ``circle_point``)."""
    return np.array([circle_point(t).coords for t in thetas]).reshape(len(thetas), 2)


def circle_samples(count, seed=0):
    """count circle points at uniform angles drawn from ``default_rng(seed)``."""
    return circle_coords(np.random.default_rng(seed).uniform(-math.pi, math.pi, size=count))


def arc_distance(coords):
    return np.array([fx.arc_angular_distance(math.atan2(y, x)) for x, y in coords.tolist()])


def circle_check(f, samples, alpha=1.0, distance=arc_distance):
    """The sampled check of f on the circle at the reference point of angle
    0.3, on the nonnegative arc, where the circle's penalties vanish."""
    return verify_wsm_sampled(f, distance, circle_point(0.3), samples, alpha)


class TestVerifyWsm:
    def test_distance_itself_is_strongly_sharp(self):
        verdict = circle_check(fx.arc_fixture().dist_fn, circle_samples(400))
        assert verdict.status == "pass_strong"
        assert verdict.estimated_modulus == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_penalty_passes_at_half(self):
        # oracle: min over the circle of sum(sqrt(neg)) / arc distance is
        # 2/pi ~ 0.6366, so alpha = 0.5 passes strongly on a dense grid
        verdict = circle_check(circle_penalty(0.5), circle_samples(720), alpha=0.5)
        assert verdict.status == "pass_strong"
        assert verdict.estimated_modulus >= 0.6

    def test_square_penalty_violated_at_any_alpha(self):
        for alpha in (1.0, 0.1):
            verdict = circle_check(circle_penalty(2.0), circle_samples(720), alpha=alpha)
            assert verdict.status == "violated"
            coords, fval, d = verdict.witness
            assert fval < alpha * d  # the witness re-evaluates as a violation
            assert d == arc_distance(coords[None])[0]

    def test_translation_invariance(self):
        f, samples = circle_penalty(0.5), circle_samples(300, seed=5)
        v1 = circle_check(f, samples, alpha=0.5)
        v2 = circle_check(lambda u: f(u) + 17.25, samples, alpha=0.5)
        assert v1.status == v2.status
        assert v1.estimated_modulus == pytest.approx(v2.estimated_modulus, abs=1e-9)

    @given(st.floats(0.1, 10.0))
    @settings(max_examples=10, deadline=None)
    def test_scaling_scales_modulus(self, lam):
        f, samples = circle_penalty(0.5), circle_samples(100, seed=7)
        v1 = circle_check(f, samples, alpha=0.25)
        v2 = circle_check(lambda u: lam * f(u), samples, alpha=0.25)
        assert v2.estimated_modulus == pytest.approx(lam * v1.estimated_modulus, rel=1e-9)

    def test_pass_strong_monotone_in_alpha(self):
        f, samples = circle_penalty(0.5), circle_samples(300, seed=1)
        assert circle_check(f, samples, alpha=0.5).status == "pass_strong"
        for smaller in (0.25, 0.05):
            assert circle_check(f, samples, alpha=smaller).status == "pass_strong"

    def test_distance_without_one_value_per_point_refused(self):
        for distance in (lambda coords: 1.0,
                         lambda coords: np.ones(len(coords) + 1),
                         lambda coords: (np.zeros(len(coords)), np.ones(len(coords)))):
            with pytest.raises(GeometryError, match="distance gave shape"):
                circle_check(circle_penalty(0.5), circle_samples(10), distance=distance)

    def test_empty_stack_refused_before_any_call(self):
        # an empty stack checks nothing, so it is refused rather than passed
        def distance(coords):
            raise AssertionError("distance called on an empty stack")

        def f(coords):
            raise AssertionError("objective called on an empty stack")

        with pytest.raises(GeometryError, match="need at least one sample"):
            circle_check(f, np.zeros((0, 2)), distance=distance)

    def test_stack_off_the_manifold_refused(self):
        for samples, reason in ((np.array([[0.6, 0.8], [2.0, 0.0]]), "point off"),
                                (np.zeros((3, 3)), "expected a stack of points")):
            with pytest.raises(GeometryError, match=reason):
                circle_check(circle_penalty(0.5), samples)

    def test_refusal_order(self):
        # the scan refuses f's shape, then the distance's, then a non-finite f
        base = circle_point(0.3)

        def infinite_off_base(coords):
            return np.where(np.all(coords == base.coords, axis=1), 0.0, np.inf)

        def short_off_base(coords):
            return infinite_off_base(coords)[:1]

        def long_distance(coords):
            return np.ones(len(coords) + 1)

        for f, distance, reason in ((short_off_base, long_distance, "objective gave shape"),
                                    (infinite_off_base, long_distance, "distance gave shape"),
                                    (infinite_off_base, arc_distance, "objective not finite")):
            with pytest.raises(GeometryError, match=reason):
                circle_check(f, circle_samples(10), distance=distance)

    def test_non_finite_base_value_refused(self):
        # at a NaN f(p) every comparison is false, so nothing would be checked
        base = circle_point(0.3)
        for value in (math.nan, math.inf):
            def f(coords, value=value):
                return np.where(np.all(coords == base.coords, axis=1), value, 1.0)

            with pytest.raises(GeometryError, match="f must be finite at the base point"):
                circle_check(f, circle_samples(10))

    def test_base_value_taken_once(self):
        # f(p) is one 1-row call, then f scores the whole stack in one call
        penalty, samples = circle_penalty(0.5), circle_samples(3)
        calls = []

        def f(coords):
            calls.append(coords.copy())
            return penalty(coords)

        circle_check(f, samples, alpha=0.5)
        assert [len(c) for c in calls] == [1, 3]
        assert calls[0].tobytes() == circle_point(0.3).coords.tobytes()
        assert calls[1].tobytes() == samples.tobytes()


def estimated_modulus(f, samples, distance=arc_distance):
    return circle_check(f, samples, distance=distance).estimated_modulus


class TestEstimatedModulus:
    def test_scaled_distance(self):
        f = fx.arc_fixture().dist_fn
        est = estimated_modulus(lambda u: 2.0 * f(u), circle_samples(500))
        assert est == pytest.approx(2.0, abs=1e-9)

    def test_square_penalty_vanishes(self):
        # near the arc ends the ratio d^2/d collapses; sample close to them
        thetas = -(10.0 ** np.random.default_rng(0).uniform(-4, -1, size=200))
        est = estimated_modulus(circle_penalty(2.0), circle_coords(thetas))
        assert est <= 5e-3

    def test_sqrt_penalty_bounded_below(self):
        # oracle: dense-grid minimum of sum(sqrt(neg)) / chordal distance
        def chordal(u):
            return arc_chordal_distance(math.atan2(float(u[1]), float(u[0])))

        def chordal_distance(coords):
            return np.array([chordal(u) for u in coords])

        grid = circle_coords(np.linspace(-math.pi, math.pi, 2000, endpoint=False))
        f = circle_penalty(0.5)
        oracle = min(f(u[None])[0] / chordal(u) for u in grid if chordal(u) > 0)
        assert oracle >= 0.70

        est = estimated_modulus(f, circle_samples(1000), distance=chordal_distance)
        assert est >= 0.70
        assert est >= oracle - 1e-9

    def test_all_inside_is_inf(self):
        # no sample outside the set bounds the modulus: every entry of the
        # trace is inf
        verdict = circle_check(circle_penalty(0.5), circle_coords([0.3] * 5))
        assert verdict.modulus_trace == ((1, math.inf), (2, math.inf), (5, math.inf))

    def test_rounding_level_distance_counts_as_inside(self):
        # a point on the set whose computed distance is an ulp above zero must
        # be skipped, not read as a zero modulus
        inside, outside = circle_point(0.3), circle_point(-0.5)

        def distance(coords):
            return np.where(np.all(coords == inside.coords, axis=1), 1e-16, 0.5)

        est = estimated_modulus(circle_penalty(1.0), np.stack([inside.coords, outside.coords]),
                                distance=distance)
        assert est == pytest.approx(2.0 * math.sin(0.5), abs=1e-15)
        assert 0.0 < INSIDE_TOL <= 1e-12

    def test_penalty_study_on_octant_keeps_positive_modulus(self):
        # random unit vectors in R^3 land on St+(3, 1) with probability 1/8,
        # where the exact distance is rounding-level, not 0
        study = wsm_penalty_check(3, 1, 0.5, n_samples=20)
        assert [c for c, _ in study.wsm.modulus_trace] == [5, 10, 20]
        assert all(est > 0 for _, est in study.wsm.modulus_trace)


def ref_wsm_scan(f, coords, f0, distances, alpha):
    """(witness, modulus) of a sample scan, one sample at a time."""
    witness, modulus = None, math.inf
    for u, fu, d in zip(coords, f(coords).tolist(), distances.tolist()):
        gain = fu - f0
        if d > INSIDE_TOL and math.isfinite(d):
            modulus = min(modulus, gain / d)
        if witness is None and gain < alpha * d - VIOLATION_TOL:
            witness = (np.array(u), fu, d)
    return witness, modulus


class TestScanEdgeRows:
    """Distances that are NaN, infinite or rounding-level give the scan's
    modulus bits and first witness of a one-sample-at-a-time loop, in every
    order of the rows."""

    THETAS = [-0.5, -1.0, 2.0, 0.3, -2.5, -0.1, 1.0, -3.0]
    # NaN, inf and two inside values (1e-16, 1e-13, both at f = 0, which
    # would give a zero modulus); the rows at 0.9, inf, 0.4 and 2.0 break
    # the inequality at alpha = 0.8, the row at 1.5 does not
    DISTANCES = [0.9, math.nan, math.inf, 1e-16, 1.5, 0.4, 1e-13, 2.0]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_sample_loop(self, seed):
        order = np.random.default_rng(seed).permutation(len(self.THETAS))
        coords = circle_coords(np.array(self.THETAS)[order])
        distances = np.array(self.DISTANCES)[order]

        def distance(stack):
            assert stack.tobytes() == coords.tobytes()
            return distances

        f, base, alpha = circle_penalty(1.0), circle_point(0.3), 0.8
        witness, modulus = ref_wsm_scan(f, coords, f(base.coords[None])[0], distances, alpha)
        got = circle_check(f, coords, alpha=alpha, distance=distance)
        assert got.status == "violated" and witness is not None
        assert np.float64(got.estimated_modulus).tobytes() == np.float64(modulus).tobytes()
        assert got.witness[0].tobytes() == witness[0].tobytes()
        assert np.array(got.witness[1:]).tobytes() == np.array(witness[1:]).tobytes()
        assert all(type(x) is float for x in (got.estimated_modulus, *got.witness[1:]))


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


def _ref_values(f, points):
    return f(np.stack([u.coords for u in points])).tolist() if points else []


def ref_verify(f, sampler, point, alpha, n_samples, seed):
    """(status, witness, modulus), one Point and one full-table distance per
    sample."""
    tol = 1e-9
    f0 = _ref_values(f, [point])[0]
    rng = np.random.default_rng(seed)
    samples = sampler(n_samples, rng)
    witness, modulus = None, math.inf
    for u, fu in zip(samples, _ref_values(f, samples)):
        d = ref_slice_distance(u.coords)[0]
        gain = fu - f0
        if d > INSIDE_TOL and math.isfinite(d):
            modulus = min(modulus, gain / d)
        if witness is None and gain < alpha * d - tol:
            witness = (np.array(u.coords), fu, d)
    status = "violated" if witness is not None else "pass_strong"
    return status, witness, modulus


def ref_estimate(f, sampler, n_samples, seed):
    outside, ds = [], []
    for u in sampler(n_samples, np.random.default_rng(seed)):
        d = ref_slice_distance(u.coords)[0]
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
    status, witness, modulus = want
    assert got.status == status
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
        want = ref_verify(_penalty(beta), ref_feasible_sampler(n, k), point, 1.0, 60, 3)
        _same_wsm_verdict(penalty_check(n, k, beta, 60, seed=3), want)
        est = penalty_check(n, k, beta, 60, seed=8).estimated_modulus
        want = ref_estimate(_penalty(beta), ref_feasible_sampler(n, k), 60, 8)
        assert np.float64(est).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("n,k", WSM_GRID)
    def test_penalty_study_samplers(self, n, k):
        beta, samples, seed = 0.5, 40, 2
        study = wsm_penalty_check(n, k, beta, n_samples=samples, seed=seed)
        point = Point(stiefel(n, k), np.eye(n, k))
        want = ref_verify(_penalty(beta), ref_feasible_sampler(n, k), point, 1.0, samples, seed)
        _same_wsm_verdict(study.wsm, want)
        counts = (samples // 4, samples // 2, samples)
        assert [c for c, _ in study.wsm.modulus_trace] == list(counts)
        for count, est in study.wsm.modulus_trace:
            # each entry is the scan of a prefix: a draw of that many frames
            want = ref_estimate(_penalty(beta), ref_feasible_sampler(n, k), count, seed)
            assert np.float64(est).tobytes() == np.float64(want).tobytes()


def penalty_check(n, k, beta, count, seed):
    """The penalty study's sampled check at alpha = 1 on count frames drawn
    from ``default_rng(seed)``."""
    return verify_wsm_sampled(_penalty(beta), lambda stack: slice_distances(stack)[0],
                              Point(stiefel(n, k), np.eye(n, k)),
                              random_stiefel(n, k, np.random.default_rng(seed), count), 1.0)


class TestModulusTrace:
    """The trace is the running infimum over nested prefixes of the check's
    one sample: it never increases, it ends at ``estimated_modulus``, and
    each entry is bitwise the estimate of a check that draws only that many
    samples at the same seed, since the frames of a draw are prefix-stable."""

    @pytest.mark.parametrize("n,k", WSM_GRID)
    @pytest.mark.parametrize("beta", [0.5, 2.0])
    @pytest.mark.parametrize("samples,seed", [(100, 0), (100, 9), (7, 3)])
    def test_prefix_estimates(self, n, k, beta, samples, seed):
        study = wsm_penalty_check(n, k, beta, n_samples=samples, seed=seed)
        trace = study.wsm.modulus_trace
        estimates = [est for _, est in trace]
        assert [c for c, _ in trace] == [samples // 4, samples // 2, samples]
        assert all(a >= b for a, b in zip(estimates, estimates[1:]))
        assert np.float64(estimates[-1]).tobytes() == \
            np.float64(study.wsm.estimated_modulus).tobytes()
        first = wsm_penalty_check(n, k, beta, n_samples=samples // 4, seed=seed)
        assert np.float64(estimates[0]).tobytes() == \
            np.float64(first.wsm.estimated_modulus).tobytes()
        for count, est in trace:
            alone = penalty_check(n, k, beta, count, seed).estimated_modulus
            assert np.float64(est).tobytes() == np.float64(alone).tobytes()

    @pytest.mark.parametrize("samples,counts", [(1, [1]), (2, [1, 2]), (3, [1, 3]),
                                                (4, [1, 2, 4]), (9, [2, 4, 9])])
    def test_budgets_below_one_are_skipped(self, samples, counts):
        verdict = penalty_check(2, 1, 0.5, samples, seed=1)
        assert [c for c, _ in verdict.modulus_trace] == counts
        assert all(type(c) is int and type(est) is float for c, est in verdict.modulus_trace)

    def test_counts_the_rows_of_the_given_stack(self):
        # the trace and the estimate cover every row of the stack
        rows = circle_coords([0.2, -0.5, 1.0, -2.0, 0.4, -1.0, 2.5, -0.1])
        trace = circle_check(circle_penalty(1.0), rows).modulus_trace
        _, want = ref_wsm_scan(circle_penalty(1.0), rows, 0.0, arc_distance(rows), 1.0)
        assert [c for c, _ in trace] == [2, 4, 8]
        assert trace[-1][1] == want
