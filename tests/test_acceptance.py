"""Acceptance suite.

One test per criterion, each printing a single PASS line on success (run
with ``pytest tests/test_acceptance.py -v -s`` to see them).  Tolerances are
pinned here and nowhere else; timed criteria assert their wall-clock budget.
"""

import json
import math
import time

import numpy as np
import pytest

import sharpmin as sm
import sharpmin.fixtures as fx
from sharpmin.cli import EXIT_OK, run
from sharpmin.manifolds import Point, euclidean, geodesic_sphere_sampler, sphere, stiefel


def _report(line):
    print(line)


LEMMA_RADII = (0.4, 0.2, 0.1, 0.05)


def test_criterion_1_local_distance_lemma():
    start = time.monotonic()
    p = Point(sphere(3, 1.0), np.array([0.0, 0.0, 1.0]))
    rep = sm.verify_local_distance_lemma(p, geodesic_sphere_sampler(p), LEMMA_RADII,
                                         samples_per_radius=300, seed=0)
    assert abs(rep.fitted_order - 2.0) <= 0.3, rep
    assert rep.fitted_coefficient <= (1.0 / 6.0) * 1.25, rep

    flat = Point(euclidean(3), np.zeros(3))
    control = sm.verify_local_distance_lemma(flat, geodesic_sphere_sampler(flat),
                                             LEMMA_RADII, samples_per_radius=300, seed=0)
    assert max(control.worst_ratio_deviation) <= 1e-12, control

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(f"ACCEPTANCE 1 local-distance-lemma: PASS "
            f"(order={rep.fitted_order:.3f}, coeff={rep.fitted_coefficient:.4f}, "
            f"{elapsed:.1f}s)")


def test_criterion_2_dist_subdiff_identity():
    start = time.monotonic()
    for fixture in fx.identity_fixtures():
        rep = sm.check_dist_subdiff_identity(fixture, n_covectors=50, seed=0)
        assert rep.inside_checked >= 50 and rep.outside_checked >= 50
        assert rep.passed, (fixture.name, rep.inside_failures, rep.outside_failures)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.1f}s"
    _report(f"ACCEPTANCE 2 dist-subdifferential-identity: PASS (3 fixtures, {elapsed:.1f}s)")


def test_criterion_3_dirderiv_identity():
    schedule = sm.Schedule.geometric()  # floor 0.1 * 0.5^10 < 1e-4
    assert schedule.scales[-1] <= 1e-4
    worst = 0.0
    for fixture in fx.dirderiv_fixtures():
        rep = sm.check_dirderiv_identity(fixture, schedule=schedule, seed=0)
        assert rep.passed and rep.max_residual <= 5e-2, (fixture.name, rep.rows)
        worst = max(worst, rep.max_residual)
    _report(f"ACCEPTANCE 3 directional-derivative-identity: PASS (max residual {worst:.2e})")


def test_criterion_4_wsm_necessary_condition_split():
    base = Point(stiefel(2, 1), np.array([[1.0], [0.0]]))
    cone = sm.stiefel_plus_normal_cone(base.coords)

    def penalty(beta):
        def f(u):
            return np.sum((np.maximum(-u, 0.0) ** beta).reshape(len(u), -1), axis=-1)

        return f

    smooth = sm.check_dual_nc(penalty(2.0), cone, base, alpha=1.0, seed=0)
    assert not smooth.passed
    assert np.allclose(smooth.witness.covector, [[0.0], [-1.0]], atol=1e-12)

    sharp = sm.check_dual_nc(penalty(0.5), cone, base, alpha=1.0, seed=0)
    assert sharp.passed, sharp.failures

    arc = fx.arc_fixture()
    directions = [np.array([0.0, -1.0]), np.array([0.0, 1.0])]
    primal_smooth = sm.check_primal_nc(fx.circle_penalty(2.0), arc.omega_sampler,
                                       arc.point, 1.0, directions)
    primal_sharp = sm.check_primal_nc(fx.circle_penalty(0.5), arc.omega_sampler,
                                      arc.point, 1.0, directions)
    assert not primal_smooth.passed
    assert primal_sharp.passed
    _report("ACCEPTANCE 4 sharpness-condition-split: PASS "
            "(beta=2 refuted with witness (0,-1); beta=1/2 consistent at alpha=1; "
            "primal split matches)")


def test_criterion_5_pattern_cross_validation():
    rep = sm.cross_validate_pattern_cone(n_frames=100, seed=0)
    assert rep.frames_checked == 100
    assert rep.passed, rep.disagreements
    _report(f"ACCEPTANCE 5 cone-pattern-cross-validation: PASS "
            f"({rep.members_checked} members, {rep.violators_checked} violators, "
            f"0 disagreements)")


K2 = "p 2 1\ne 1 2"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4"
TWO_EDGES = "p 4 2\ne 1 2\ne 3 4"


def _random_graph(n, p_edge, rng):
    edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if rng.uniform() < p_edge)
    return sm.Graph(n=n, edges=edges if edges else ((1, 2),))


def test_criterion_6_cheeger_pipeline():
    start = time.monotonic()
    for text in (K2, C4, TWO_EDGES):
        value, _ = sm.exact_cheeger(sm.load_graph(text), 1)
        assert value == 0.0
    named = [(K2, 2, 2.0), (C4, 2, 2 * math.sqrt(2)), (TWO_EDGES, 2, 0.0)]
    cfg = sm.SolverConfig(restarts=20, max_iters=300, seed=0)
    for text, k, expected in named:
        graph = sm.load_graph(text)
        value, _ = sm.exact_cheeger(graph, k)
        assert value == pytest.approx(expected, abs=1e-12)
        rep = sm.solve_relaxation(graph, k, cfg)
        assert abs(rep.rounded_value - rep.oracle_value) <= 1e-12, (text, rep.rounded_value)

    rng = np.random.default_rng(12345)
    matches = 0
    for i in range(10):
        n = int(rng.integers(5, 9))
        k = int(rng.integers(2, 4))
        graph = _random_graph(n, 0.4, rng)
        rep = sm.solve_relaxation(graph, k, sm.SolverConfig(restarts=20, max_iters=300, seed=i))
        assert rep.rounded_value >= rep.oracle_value - 1e-9  # oracle dominance, always
        if abs(rep.rounded_value - rep.oracle_value) <= 1e-12:
            matches += 1
    assert matches >= 8, f"best-found matched the oracle on only {matches}/10 instances"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _report(f"ACCEPTANCE 6 cheeger-pipeline: PASS "
            f"(4 named exact, {matches}/10 random matched, {elapsed:.1f}s)")


def test_criterion_7_indicator_identity():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, 4))
        graph = _random_graph(n, 0.4, rng)
        assignment = rng.integers(0, k + 1, size=n)
        groups = [frozenset(int(i) + 1 for i in np.flatnonzero(assignment == j))
                  for j in range(1, k + 1)]
        groups = [g for g in groups if g]
        if not groups:
            continue
        parts = sm.SubPartition(tuple(groups))
        u = sm.indicator_frame(graph, parts)
        assert abs(sm.grad_norm_l1(graph, u) - sm.cheeger_objective(graph, parts)) <= 1e-12
        checked += 1
    _report("ACCEPTANCE 7 indicator-identity: PASS (200 sub-partitions, tol 1e-12)")


def test_criterion_8_lipschitz_certificate():
    from sharpmin.stiefel import random_stiefel

    rng = np.random.default_rng(8)
    violations = 0
    for text, k in ((C4, 2), (K2, 1), (TWO_EDGES, 2)):
        graph = sm.load_graph(text)
        bound = sm.lipschitz_bound(graph, k)
        for _ in range(1000):
            u = random_stiefel(graph.n, k, rng)
            v = random_stiefel(graph.n, k, rng)
            gap = abs(sm.grad_norm_l1(graph, u) - sm.grad_norm_l1(graph, v))
            if gap > bound * np.linalg.norm(u - v) + 1e-12:
                violations += 1
    assert violations == 0
    _report("ACCEPTANCE 8 lipschitz-certificate: PASS (3000 pairs, 0 violations)")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    graph_file = tmp_path / "c4.txt"
    graph_file.write_text(C4 + "\n")
    outputs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = run(["relax", "--graph", str(graph_file), "--k", "2", "--seed", "11",
                    "--restarts", "6", "--max-iters", "120", "--out", str(out_dir)])
        capsys.readouterr()
        assert code == EXIT_OK
        outputs.append((
            (out_dir / "report.json").read_bytes(),
            (out_dir / "relax_trace.csv").read_bytes(),
        ))
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0][0])
    assert report["gap"] is not None and report["gap"] >= 0.0
    _report("ACCEPTANCE 9 cli-determinism: PASS (byte-identical report and trace)")
