"""Geometry tests: chart maps, distances, retractions, and the local
distance comparison with exact sphere formulas as the oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sharpmin.manifolds as manifolds_module
from sharpmin.manifolds import (
    INJECTIVITY_GUARD,
    LEMMA_RADII,
    STACK_BYTES,
    BudgetExceededError,
    GeometryError,
    Point,
    Tangent,
    curvature_norm,
    euclidean,
    geodesic_sphere_sampler,
    log_coords,
    pairwise_distances,
    exp_coords,
    require_tangent,
    sphere,
    stiefel,
    tangent_project,
    verify_local_distance_lemma,
)
from sharpmin.stiefel import (FrameError, _rank_deficient, _sign_fixed_qr, frame_residual,
                              qr_retract)

INVERSION_TOL = 1e-8  # exp/log round-trip allowance


def sphere_point(*coords):
    c = np.array(coords, dtype=float)
    return Point(sphere(len(c)), c)


class TestDescriptors:
    def test_dimensions(self):
        assert euclidean(5).intrinsic_dim == 5
        assert sphere(3).intrinsic_dim == 2
        assert stiefel(5, 2).intrinsic_dim == 5 * 2 - 3
        assert math.prod(stiefel(5, 2).ambient_shape) == 10

    def test_invalid(self):
        with pytest.raises(GeometryError):
            sphere(1)
        with pytest.raises(GeometryError):
            stiefel(2, 3)

    def test_point_feasibility_enforced(self):
        with pytest.raises(GeometryError):
            Point(sphere(2), np.array([1.0, 1.0]))
        with pytest.raises(GeometryError):
            Point(stiefel(2, 2), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_tangent_invariant_enforced(self):
        p = sphere_point(1.0, 0.0)
        with pytest.raises(GeometryError):
            Tangent(p, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("m,coords", [
        (stiefel(2, 1), [[np.nan], [np.nan]]),
        (euclidean(2), [np.inf, 0.0]),
        (euclidean(2), [0.0, np.nan]),
        (sphere(2), [np.nan, 0.0]),
    ])
    def test_point_refuses_non_finite(self, m, coords):
        with pytest.raises(GeometryError, match="non-finite"):
            Point(m, np.array(coords))

    @pytest.mark.parametrize("p,vec", [
        (Point(euclidean(2), np.zeros(2)), [np.nan, 0.0]),
        (Point(euclidean(2), np.zeros(2)), [np.inf, 1.0]),
        (sphere_point(1.0, 0.0), [0.0, np.inf]),
        (Point(stiefel(2, 1), np.array([[1.0], [0.0]])), [[0.0], [np.nan]]),
    ])
    def test_tangent_refuses_non_finite(self, p, vec):
        with pytest.raises(GeometryError, match="non-finite"):
            Tangent(p, np.array(vec))

    def test_tangency_check_reports_first_bad_row(self):
        p = sphere_point(1.0, 0.0)
        stack = np.array([[0.0, 1.0], [0.5, 1.0], [3.0, 1.0]])
        with pytest.raises(GeometryError, match=r"residual 5\.000e-01 vs norm 1\.118e\+00"):
            require_tangent(p, stack)
        require_tangent(p, stack[:1])


def exp_point(p, vec):
    """exp_p(v) of one tangent vector, validated as a point."""
    return Point(p.manifold, exp_coords(p, Tangent(p, np.asarray(vec, dtype=float)).vec[None])[0])


def log_vec(p, q):
    """log_p(q) of one point."""
    return log_coords(p, q.coords[None])[0]


class TestExpLog:
    def test_antipodal_half_turn(self):
        p = sphere_point(1.0, 0.0, 0.0)
        q = exp_point(p, [0.0, math.pi, 0.0])
        assert np.allclose(q.coords, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_zero_vector_identity(self):
        p = sphere_point(1.0, 0.0, 0.0)
        assert np.array_equal(exp_point(p, np.zeros(3)).coords, p.coords)
        pe = Point(euclidean(4), np.arange(4.0))
        assert np.array_equal(exp_point(pe, np.zeros(4)).coords, pe.coords)

    def test_quarter_arc(self):
        p = sphere_point(1.0, 0.0, 0.0)
        q = exp_point(p, [0.0, math.pi / 2, 0.0])
        assert np.allclose(q.coords, [0.0, 1.0, 0.0], atol=1e-12)
        back = log_vec(p, q)
        assert np.allclose(back, [0.0, math.pi / 2, 0.0], atol=1e-12)

    def test_euclidean_log(self):
        p = Point(euclidean(3), np.zeros(3))
        q = Point(euclidean(3), np.array([1.0, -2.0, 3.0]))
        assert np.array_equal(log_vec(p, q), q.coords)

    def test_log_at_base_is_zero(self):
        p = sphere_point(0.0, 0.0, 1.0)
        assert np.linalg.norm(log_vec(p, p)) == 0.0

    def test_antipodal_log_refused(self):
        p = sphere_point(1.0, 0.0)
        q = sphere_point(-1.0, 0.0)
        with pytest.raises(GeometryError):
            log_vec(p, q)

    def test_exp_log_inversion_1000_seeded(self):
        # ||log(exp(v)) - v|| <= 1e-8 (1 + ||v||) below 0.9 * injectivity
        rng = np.random.default_rng(0)
        m = sphere(4)
        for _ in range(1000):
            z = rng.standard_normal(4)
            p = Point(m, z / np.linalg.norm(z))
            w = Tangent(p, tangent_project(m, p.coords, rng.standard_normal(4)))
            if float(np.linalg.norm(w.vec)) < 1e-9:
                continue
            scale = rng.uniform(1e-3, 0.9) * math.pi
            v = Tangent(p, scale * w.vec / float(np.linalg.norm(w.vec)))
            back = log_vec(p, exp_point(p, v.vec))
            assert np.linalg.norm(back - v.vec) <= \
                INVERSION_TOL * (1 + float(np.linalg.norm(v.vec)))

    def test_stiefel_exp_refused(self):
        p = Point(stiefel(2, 1), np.array([[1.0], [0.0]]))
        with pytest.raises(GeometryError):
            exp_point(p, [[0.0], [1.0]])


class TestDistance:
    def test_quarter_distance(self):
        assert set_distance(sphere_point(1, 0, 0), [sphere_point(0, 1, 0)]) == pytest.approx(
            math.pi / 2, abs=1e-12
        )

    def test_euclidean_distance(self):
        p = Point(euclidean(2), np.array([1.0, 2.0]))
        q = Point(euclidean(2), np.array([4.0, 6.0]))
        assert set_distance(p, [q]) == 5.0

    def test_antipodal_distance_is_pi(self):
        m = sphere(3)
        p = Point(m, np.array([1.0, 0.0, 0.0]))
        q = Point(m, np.array([-1.0, 0.0, 0.0]))
        assert set_distance(p, [q]) == pytest.approx(math.pi, abs=1e-12)

    def test_axioms_on_samples(self):
        rng = np.random.default_rng(1)
        m = sphere(3)
        pts = []
        for _ in range(30):
            z = rng.standard_normal(3)
            pts.append(Point(m, z / np.linalg.norm(z)))
        for _ in range(200):
            a, b, c = rng.choice(len(pts), size=3, replace=False)
            dab = set_distance(pts[a], [pts[b]])
            dba = set_distance(pts[b], [pts[a]])
            assert abs(dab - dba) <= 1e-12
            assert dab <= set_distance(pts[a], [pts[c]]) + set_distance(pts[c], [pts[b]]) + 1e-10
        assert set_distance(pts[0], [pts[0]]) == 0.0


class TestTangentProject:
    def test_sphere_example(self):
        p = sphere_point(1.0, 0.0, 0.0)
        t = tangent_project(p.manifold, p.coords, np.array([5.0, 1.0, 0.0]))
        assert np.allclose(t, [0.0, 1.0, 0.0], atol=1e-12)

    def test_stiefel_kills_radial(self):
        p = Point(stiefel(2, 1), np.array([[1.0], [0.0]]))
        t = tangent_project(p.manifold, p.coords, np.array([[3.0], [2.0]]))
        assert np.allclose(t, [[0.0], [2.0]], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        p = sphere_point(0.0, 0.6, 0.8)
        z = rng.standard_normal(3)
        once = tangent_project(p.manifold, p.coords, z)
        twice = tangent_project(p.manifold, p.coords, once)
        assert np.allclose(once, twice, atol=1e-14)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_after_projection(self, seed):
        rng = np.random.default_rng(seed)
        m = stiefel(4, 2)
        from sharpmin.stiefel import random_stiefel

        p = Point(m, random_stiefel(4, 2, rng))
        z = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal((4, 2))
        t = Tangent(p, tangent_project(m, p.coords, z))  # the constructor re-checks the invariant
        assert t.base is p


class TestRetract:
    def test_zero_step(self):
        p = np.eye(3)[:, :2]
        r = qr_retract(p, np.zeros((3, 2)))
        assert np.allclose(r, p, atol=1e-12)

    def test_sphere_first_order(self):
        # oracle: the radial projection (p + v) / |p + v| is a retraction of
        # the unit circle; |exp - projection| = t^3/3 + O(t^4) <= t^2
        p = sphere_point(1.0, 0.0)
        for t in (1e-1, 1e-2, 1e-3, 1e-4):
            e = exp_coords(p, np.array([[0.0, t]]))[0]
            expected = np.array([1.0, t]) / math.sqrt(1 + t * t)
            dev = np.linalg.norm(expected - e)
            assert dev <= t * t
            assert dev / t**2 <= 0.5  # bounded ratio across the grid

    def test_stiefel_feasibility(self):
        x = np.array([[0.0, 0.01], [-0.01, 0.0]])
        r = qr_retract(np.eye(2), x)
        assert np.linalg.norm(r.T @ r - np.eye(2)) <= 1e-12

    def test_huge_full_rank_step(self):
        # ||P + X||_F^2 overflows once entries pass 1e154; the rank test must
        # still see a full-rank step
        x = 1e160 * np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0], [2.0, 2.0]])
        r = qr_retract(np.eye(4)[:, :2], x)
        assert np.linalg.norm(r.T @ r - np.eye(2)) <= 1e-12
        a = np.eye(4)[:, :2] + x
        assert np.allclose(r @ (r.T @ a), a, rtol=1e-12, atol=0.0)  # same column space

    @pytest.mark.parametrize("size", [1.0, 1e160])
    def test_rank_deficient_step_refused(self, size):
        p = np.eye(3)[:, :2]
        x = size * np.array([[1.0, 2.0], [3.0, 6.0], [0.5, 1.0]]) - p  # P + X has rank 1
        with pytest.raises(FrameError, match="rank-deficient"):
            qr_retract(p, x)
        with pytest.raises(FrameError, match="rank-deficient"):
            qr_retract(np.stack([p, p]), np.stack([np.ones((3, 2)), x]))

    def test_post_retraction_feasibility_seeded(self):
        rng = np.random.default_rng(3)
        from sharpmin.stiefel import random_stiefel

        m = stiefel(5, 3)
        for _ in range(50):
            p = Point(m, random_stiefel(5, 3, rng))
            t = Tangent(p, tangent_project(m, p.coords, rng.standard_normal((5, 3))))
            r = Point(m, qr_retract(p.coords, 0.3 * t.vec))
            assert frame_residual(r.coords) <= 1e-10



def _numpy_sign_fixed_qr(a):
    """(Q, R) from ``np.linalg.qr`` with Q's columns flipped to give R a
    positive diagonal, R left as numpy returns it."""
    q, r = np.linalg.qr(a)
    signs = np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)
    return q * signs[..., None, :], r


class TestSignFixedQr:
    """``_sign_fixed_qr`` calls the private LAPACK gufuncs behind
    ``np.linalg.qr``; these pins hold it to the public function's bits on
    every numpy the test matrix installs, the numpy 2.0 floor included."""

    @pytest.mark.parametrize("shape", [
        (20, 11, 2), (20, 10, 3), (4, 80, 3), (4, 200, 4),  # the solver's stacks
        (6, 5, 1), (4, 4), (7, 3), (2, 3, 6, 2),
    ], ids=["solver-11x2", "solver-10x3", "solver-80x3", "solver-200x4",
            "k1", "square", "single", "4d-stack"])
    def test_bits_of_numpy_qr(self, shape):
        a = np.random.default_rng(sum(shape)).standard_normal(shape)
        before = a.tobytes()
        q, head = _sign_fixed_qr(a)
        want_q, want_r = _numpy_sign_fixed_qr(a)
        assert a.tobytes() == before  # LAPACK overwrote a copy
        assert q.tobytes() == want_q.tobytes()
        assert head.shape == want_r.shape
        assert np.triu(head).tobytes() == want_r.tobytes()

    @pytest.mark.parametrize("zero_column", [False, True], ids=["full-rank", "zero-column"])
    def test_rank_check_reads_only_the_triangle(self, zero_column):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((30, 6, 3))
        if zero_column:
            a[::3, :, 1] = 0.0
        _, head = _sign_fixed_qr(a)
        want = _rank_deficient(np.triu(head))
        assert np.array_equal(want, zero_column & (np.arange(30) % 3 == 0))
        assert np.array_equal(_rank_deficient(head), want)
        # entries near 1e300 below the diagonal would make every norm huge
        # and every factor deficient if the check read them
        planted = head.copy()
        below = np.tril(np.ones((3, 3), dtype=bool), -1)
        planted[:, below] = 1e300 * rng.choice([-1.0, 1.0], size=(30, int(below.sum())))
        assert np.array_equal(_rank_deficient(planted), want)


class TestCurvature:
    def test_values(self):
        assert curvature_norm(euclidean(5)) == 0.0
        # constant-curvature identity: max of R over unit frames is 1 on the unit sphere
        assert curvature_norm(sphere(3)) == 1.0

    def test_stiefel_refused(self):
        with pytest.raises(GeometryError):
            curvature_norm(stiefel(3, 2))


def set_distance(q, points):
    """Distance from the point q to a finite set of points."""
    return float(pairwise_distances(q.manifold, q.coords[None],
                                    np.stack([s.coords for s in points])).min())


class TestPairwiseDistances:
    def test_member_gives_zero(self):
        p = sphere_point(1, 0, 0)
        assert set_distance(p, [p, sphere_point(0, 1, 0)]) == 0.0

    def test_min_over_set(self):
        q = sphere_point(1, 0, 0)
        s = [sphere_point(0, 1, 0), sphere_point(0, 0, 1)]
        assert set_distance(q, s) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_euclidean(self):
        m = euclidean(1)
        q = Point(m, np.array([0.0]))
        s = [Point(m, np.array([-1.0])), Point(m, np.array([2.0]))]
        assert set_distance(q, s) == 1.0

    def test_empty_set(self):
        # an empty set has no distance: the lemma refuses an empty sample
        p = Point(euclidean(2), np.zeros(2))
        assert pairwise_distances(p.manifold, p.coords[None], np.zeros((0, 2))).shape == (1, 0)
        with pytest.raises(GeometryError, match="no points"):
            verify_local_distance_lemma(p, lambda r, rng: np.zeros((0, 2)), seed=0)


class TestLocalDistanceLemma:
    def test_radii_fit_an_order_inside_the_guard(self):
        # three radii at least for the log-log fit, strictly decreasing, the
        # largest inside the log map's guard on the unit sphere
        assert len(LEMMA_RADII) >= 3
        assert all(b < a for a, b in zip(LEMMA_RADII, LEMMA_RADII[1:]))
        assert LEMMA_RADII[0] < INJECTIVITY_GUARD * math.pi

    def test_euclidean_control_exact(self):
        p = Point(euclidean(3), np.zeros(3))
        rep = verify_local_distance_lemma(p, geodesic_sphere_sampler(p),
                                          samples_per_radius=100, seed=0)
        assert max(rep.worst_ratio_deviation) <= 1e-12
        assert rep.coefficient_ok

    def test_sphere_order_two(self):
        p = Point(sphere(3), np.array([0.0, 0.0, 1.0]))
        rep = verify_local_distance_lemma(p, geodesic_sphere_sampler(p),
                                          samples_per_radius=200, seed=0)
        assert abs(rep.fitted_order - 2.0) <= 0.3
        assert rep.fitted_coefficient <= (1.0 / 6.0) * 1.25
        assert rep.coefficient_ok
        # deviations shrink monotonically with r and stay below the exact
        # metric-distortion envelope 1 - sin(r)/r of the unit sphere
        for r, d in zip(rep.radii, rep.worst_ratio_deviation):
            assert d <= (1 - math.sin(r) / r) * (1 + 1e-9)
        devs = rep.worst_ratio_deviation
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_table_past_the_cap_refused_before_the_test_points(self, monkeypatch):
        # the table holds the differences of each test point to each of the 16
        # set points in the plane; at the cap the test points are drawn
        class Drawn(Exception):
            pass

        def draw(*args):
            raise Drawn
        monkeypatch.setattr(manifolds_module, "chart_ball_points", draw)
        p = Point(euclidean(2), np.zeros(2))
        unit = 8 * 16 * 2
        with pytest.raises(Drawn):
            verify_local_distance_lemma(p, geodesic_sphere_sampler(p),
                                        samples_per_radius=STACK_BYTES // unit, seed=0)
        count = STACK_BYTES // unit + 1
        with pytest.raises(BudgetExceededError) as info:
            verify_local_distance_lemma(p, geodesic_sphere_sampler(p),
                                        samples_per_radius=count, seed=0)
        assert str(info.value) == (f"the lemma's test-to-set distance table needs "
                                   f"{unit * count} bytes, cap is {STACK_BYTES}")

    def test_sampler_outside_ball_refused(self):
        p = Point(euclidean(2), np.zeros(2))

        def bad_sampler(r, rng):
            return np.array([[2 * r, 0.0]])

        with pytest.raises(GeometryError):
            verify_local_distance_lemma(p, bad_sampler, seed=0)


# ---------------------------------------------------------------------------
# Reference: the one-Point-per-sample lemma loop that the stack contract
# replaced
# ---------------------------------------------------------------------------


def _ref_project(p, w):
    if p.manifold.kind == "euclidean":
        return w
    return w - np.dot(w, p.coords) * p.coords


def ref_random_tangent(p, rng, norm=1.0):
    for _ in range(64):
        z = rng.standard_normal(p.manifold.ambient_shape)
        t = Tangent(p, _ref_project(p, _ref_project(p, z)))
        if float(np.linalg.norm(t.vec)) > 1e-12:
            return Tangent(p, (norm / float(np.linalg.norm(t.vec))) * t.vec)
    raise GeometryError("failed to sample a nondegenerate tangent direction")


def ref_exp(p, vec):
    m = p.manifold
    if m.kind == "euclidean":
        return Point(m, p.coords + vec)
    nv = float(np.linalg.norm(vec))
    if nv == 0.0:
        return Point(m, p.coords)
    coords = math.cos(nv) * p.coords + (math.sin(nv) / nv) * vec
    return Point(m, coords * (1.0 / np.linalg.norm(coords)))


def ref_log(p, q):
    m = p.manifold
    if m.kind == "euclidean":
        return q.coords - p.coords
    cos_t = float(np.dot(p.coords, q.coords))
    w = q.coords - float(np.dot(q.coords, p.coords)) * p.coords
    nw = float(np.linalg.norm(w))
    theta = math.atan2(nw, cos_t)
    return np.zeros_like(p.coords) if nw == 0.0 else (theta / nw) * w


def ref_distance(p, q):
    m = p.manifold
    if m.kind == "euclidean":
        return float(np.linalg.norm(q.coords - p.coords))
    cos_t = float(np.dot(p.coords, q.coords))
    w = q.coords - float(np.dot(q.coords, p.coords)) * p.coords
    return math.atan2(float(np.linalg.norm(w)), cos_t)


def ref_sphere_sampler(p, n_points=16):
    def sampler(r, rng):
        u = ref_random_tangent(p, rng).vec
        for _ in range(64):
            w = ref_random_tangent(p, rng).vec
            w = w - np.dot(w, u) * u
            if float(np.linalg.norm(w)) > 1e-8:
                w = w / float(np.linalg.norm(w))
                break
        angles = np.linspace(0.0, 2.0 * math.pi, n_points, endpoint=False)
        angles = angles + rng.uniform(0.0, 2.0 * math.pi / n_points)
        return [ref_exp(p, Tangent(p, r * (math.cos(a) * u + math.sin(a) * w)).vec)
                for a in angles]

    return sampler


def ref_lemma_deviations(p, radii, samples, seed):
    """Worst deviation per radius, one chart-ball draw, exp, log and set
    distance per sample."""
    sampler = ref_sphere_sampler(p)
    d = p.manifold.intrinsic_dim
    deviations = []
    for r, ss in zip(radii, np.random.SeedSequence(seed).spawn(len(radii))):
        rng = np.random.default_rng(ss)
        omega = sampler(r, rng)
        chart_set = [ref_log(p, s) for s in omega]
        worst = 0.0
        for _ in range(samples):
            radius = r * float(rng.uniform()) ** (1.0 / max(d, 1))
            u = ref_exp(p, ref_random_tangent(p, rng, norm=radius).vec) if radius else p
            chart_u = ref_log(p, u)
            chart_dist = min(float(np.linalg.norm(chart_u - w)) for w in chart_set)
            if chart_dist < 1e-14:
                continue
            manifold_dist = min(ref_distance(u, s) for s in omega)
            worst = max(worst, abs(manifold_dist / chart_dist - 1.0))
        deviations.append(worst)
    return deviations


LEMMA_POINTS = [
    Point(sphere(3), np.array([0.0, 0.0, 1.0])),
    Point(euclidean(3), np.zeros(3)),
    Point(sphere(4), np.array([0.0, 0.6, 0.0, -0.8])),
    Point(euclidean(2), np.array([0.5, -1.0])),
]


class TestLemmaMatchesPerSampleReference:
    """The lemma draws per sample and measures all distances of a radius as
    one array; its deviations and the sampler's stacks must be bitwise those
    of the one-Point-per-sample loop."""

    @pytest.mark.parametrize("p", LEMMA_POINTS, ids=["sphere", "flat", "sphere-4d", "plane"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_deviations(self, p, seed):
        rep = verify_local_distance_lemma(p, geodesic_sphere_sampler(p),
                                          samples_per_radius=60, seed=seed)
        want = ref_lemma_deviations(p, LEMMA_RADII, 60, seed)
        assert np.array(rep.worst_ratio_deviation).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("p", LEMMA_POINTS, ids=["sphere", "flat", "sphere-4d", "plane"])
    def test_sphere_sampler_stack(self, p):
        for r, seed in ((0.4, 0), (0.05, 3)):
            got = geodesic_sphere_sampler(p)(r, np.random.default_rng(seed))
            want = ref_sphere_sampler(p)(r, np.random.default_rng(seed))
            assert got.tobytes() == np.stack([u.coords for u in want]).tobytes()

    def test_pairwise_distances_match_pairs(self):
        for p in LEMMA_POINTS:
            sampler = geodesic_sphere_sampler(p)
            a = sampler(0.3, np.random.default_rng(1))
            b = sampler(0.2, np.random.default_rng(2))[:5]
            got = pairwise_distances(p.manifold, a, b)
            want = [[ref_distance(Point(p.manifold, x), Point(p.manifold, y)) for y in b]
                    for x in a]
            assert got.tobytes() == np.array(want).tobytes()
