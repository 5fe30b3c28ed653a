"""Ledger of known-wrong verdicts.

Each entry is a strict ``xfail`` that asserts the right verdict, beside a
plain test of its witness (a closed form, a brute force or a re-run), and
names the ROADMAP item whose fix should flip it.  A fix flips exactly its own
entries: the ``xfail`` then passes, strict mode fails it, and the entry moves
to the plain tests at the end.  An entry leaves the ledger only when its
verdict is right, never by a change of flags, seeds or tolerances.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from sharpmin.cheeger import penalty_h, wsm_penalty_check
from sharpmin.cli import EXIT_OK, EXIT_VIOLATION, run
from sharpmin.cones import stiefel_plus_normal_cone
from sharpmin.manifolds import stiefel, tangent_project
from sharpmin.stiefel import qr_retract, random_stiefel_plus, slice_distances
from slice_reference import ref_assignment_table, ref_slice_frame


def run_quiet(argv):
    """(exit code, JSON report) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, json.loads(out.getvalue())


def ray_quotient(x, p, direction, beta, t):
    """(h_beta(U) - <x, U - P>) / |U - P| at U = R_P(t direction)."""
    u = qr_retract(p, t * direction[None])
    chord = u[0] - p
    return (penalty_h(u, beta)[0] - float(np.sum(x * chord))) / float(np.linalg.norm(chord))


# ---------------------------------------------------------------------------
# Item 1: the local modulus is 0 for 1/2 < beta <= 1 and n > k >= 2
# ---------------------------------------------------------------------------

LOCAL_ZERO = ["verify-wsm", "--n", "8", "--k", "3", "--beta", "0.75", "--alpha", "0.5"]


def test_local_zero_modulus_witness():
    # U(t) = R_P(tV), V zero but for row k+1 = (0.6, 0.8, 0): dist = 0.6 t,
    # and the one negative entry is about -0.48 t^2
    p = np.eye(8, 3)
    v = np.zeros((8, 3))
    v[3, :2] = (0.6, 0.8)
    quotients = []
    for t in (1e-3, 1e-4):
        u = qr_retract(p, t * v[None])
        d = slice_distances(u)[0][0]
        assert d == pytest.approx(0.6 * t, rel=1e-6)
        quotients.append(penalty_h(u, 0.75)[0] / d)
    assert quotients == pytest.approx([0.030, 0.0096], abs=5e-4)
    assert max(quotients) < 0.5  # below the alpha of the entry


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the growth check samples St(8, 3) globally and misses the "
    "curves R_P(tV) along which h_0.75 / dist falls like t^0.5"))
def test_local_zero_modulus_is_violated():
    code, report = run_quiet(LOCAL_ZERO)
    assert report["wsm_status"] == "violated"
    assert code == EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Item 2: the sampled dual refuter is wrong both ways on h_beta
# ---------------------------------------------------------------------------

FALSE_REFUTATION = ["verify-wsm", "--n", "4", "--k", "2", "--beta", "0.75", "--alpha", "2"]


def test_false_refutation_witness():
    # the refuted covector lies in N(P), and for beta < 1 every normal is a
    # Frechet subgradient of h_beta: along the refuting sample's ray the
    # quotient, -0.369 at the refuting scale, grows like t^(beta - 1)
    study = wsm_penalty_check(4, 2, 0.75, alpha=2.0)
    witness = next(c for c in study.dual if not c.passed).witness
    p = np.eye(4, 2)
    assert stiefel_plus_normal_cone(p).contains(witness.covector)
    assert (witness.scale, witness.quotient) == pytest.approx((0.05, -0.369), abs=1e-3)
    direction = tangent_project(stiefel(4, 2), p, witness.point_coords - p)
    direction /= np.linalg.norm(direction)
    quotients = [ray_quotient(witness.covector, p, direction, 0.75, t)
                 for t in (1e-2, 1e-4, 1e-6)]
    assert 0.0 < quotients[0] < quotients[1] < quotients[2]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: h_beta is not locally Lipschitz at St+ for beta < 1, so a "
    "sampled quotient below -REFUTE_TOL at two coarse scales is no refutation"))
def test_false_refutation_is_consistent():
    code, report = run_quiet(FALSE_REFUTATION)
    assert report["dual_consistent"] is True


MISSED_REFUTATION = ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2", "--alpha", "1e-3"]


def test_missed_refutation_witness():
    # for beta > 1 the Frechet subdifferential of h_beta at St+ is {0}, so the
    # nonzero normal x = 1e-3 (0, -1) at P = (1, 0) is a witness: along x the
    # quotient is about t - 1e-3
    p = np.array([[1.0], [0.0]])
    x = np.array([[0.0], [-1e-3]])
    assert stiefel_plus_normal_cone(p).contains(x)
    direction = x / np.linalg.norm(x)
    for t in (1e-4, 1e-6):
        assert ray_quotient(x, p, direction, 2.0, t) == pytest.approx(t - 1e-3, abs=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the refuter needs a quotient below the absolute -REFUTE_TOL = "
    "-1e-3 and misses covectors of norm about 1e-3"))
def test_missed_refutation_is_refuted():
    code, report = run_quiet(MISSED_REFUTATION)
    assert report["dual_consistent"] is False
    assert code == EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Item 12: verify-lemma exits 1 on sampling noise
# ---------------------------------------------------------------------------

NOISY_LEMMA = ["verify-lemma", "--samples", "40", "--seed", "197"]


def test_noisy_lemma_witness():
    # only the two-sided order fit fails, at 1.607; the coefficient bound
    # holds, and the same seed at the default 300 samples passes
    code, report = run_quiet(NOISY_LEMMA)
    assert report["violations"] == ["sphere deviation order 1.607 not 2 +/- 0.3"]
    assert report["sphere"]["coefficient_ok"] is True
    assert run_quiet(["verify-lemma", "--seed", "197"])[0] == EXIT_OK


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 12: the order check is two-sided, so a sample too small to fit "
    "the order exits 1 with no failed lemma"))
def test_noisy_lemma_passes():
    code, _ = run_quiet(NOISY_LEMMA)
    assert code == EXIT_OK


# ---------------------------------------------------------------------------
# Item 5(a): near-ties of the St+ distance at tiny distances
# ---------------------------------------------------------------------------


def near_tie_frame():
    """R_P(1e-8 V) at a seeded St+ frame P of St(3, 2) and a seeded tangent V."""
    rng = np.random.default_rng(6)
    p = random_stiefel_plus(3, 2, rng)
    v = tangent_project(stiefel(3, 2), p, rng.standard_normal((3, 2)))
    return qr_retract(p, 1e-8 * v[None])[0]


def brute_force_distance(mat):
    """The least ||U - F|| over the closest frames F of every covering
    row-to-column assignment."""
    table = ref_assignment_table(*mat.shape)
    return min(float(np.linalg.norm(mat - ref_slice_frame(mat, table[:, c])))
               for c in range(table.shape[1]))


def test_near_tie_witness():
    # the brute force finds an St+ frame closer than slice_distances' distance
    u = near_tie_frame()
    table = ref_assignment_table(3, 2)
    frames = [ref_slice_frame(u, table[:, c]) for c in range(table.shape[1])]
    best = min(frames, key=lambda f: float(np.linalg.norm(u - f)))
    assert np.all(best >= 0.0) and np.allclose(best.T @ best, np.eye(2), atol=1e-15)
    assert slice_distances(u[None])[0][0] > 1.2 * float(np.linalg.norm(u - best))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 5(a): near St+ the float scores tie or misorder assignments, and "
    "slice_distances keeps a frame up to 1.26 times farther than the brute force's"))
def test_near_tie_distance_is_exact():
    u = near_tie_frame()
    assert slice_distances(u[None])[0][0] <= brute_force_distance(u) * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# Fixed: item 11(a), the probe frames P with one column negated
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3)])
def test_probe_frame_breaks_sharpness_at_alpha_one(n, k):
    # the benchmark's (6, 2) and (8, 3) jobs at beta 0.5: h_0.5(Q) = 1 and
    # dist(Q, St+) = sqrt(2), below alpha = 1
    code, report = run_quiet(["verify-wsm", "--n", str(n), "--k", str(k), "--beta", "0.5",
                              "--alpha", "1"])
    assert code == EXIT_VIOLATION
    assert report["wsm_status"] == "violated"
    assert report["probe_modulus"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    assert "probed sharpness check violated for beta=0.5" in report["violations"]
