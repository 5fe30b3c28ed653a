"""Graph pipeline tests: parsing, enumeration oracle, relaxation objective,
penalty, subgradient, solver, rounding, and the penalty exponent study."""

import importlib
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpmin.cheeger import (
    CALIBRATION_FRAMES,
    BudgetExceededError,
    Graph,
    GraphFormatError,
    SolverConfig,
    SubPartition,
    _over_budget,
    _stiefel_distance,
    calibrate_penalty_weight,
    cheeger_objective,
    cut_boundary,
    exact_cheeger,
    grad_norm_l1,
    lipschitz_bound,
    load_graph,
    penalty_h,
    round_solution,
    solve_relaxation,
    wsm_penalty_check,
)
from sharpmin.manifolds import GeometryError, stiefel, tangent_project
from sharpmin.stiefel import (
    EXACT_ASSIGNMENTS,
    FrameError,
    _assignment_keys,
    _lemma_survivors,
    _local_search,
    frame_residual,
    qr_retract,
    random_stiefel,
    random_stiefel_plus,
    slice_distances,
)
from helpers import indicator_frame, subgradient
from slice_reference import (
    ref_assignment_table,
    ref_slice_distance,
    ref_stiefel_distance,
    ref_table_scores,
)

# the package exports the manifold constructor ``stiefel`` under the module's name
stiefel_module = importlib.import_module("sharpmin.stiefel")

K2 = "p 2 1\ne 1 2"
P3 = "p 3 2\ne 1 2\ne 2 3"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4"
TWO_EDGES = "p 4 2\ne 1 2\ne 3 4"


def parts(*sets):
    return SubPartition(tuple(frozenset(s) for s in sets))


def slice_distance_by_loop(u):
    """Reference for the exact distance to St+: the disjoint-support formula
    evaluated one assignment of rows to columns at a time."""
    n, k = u.shape
    best = -math.inf
    for owner in product(range(k), repeat=n):
        if len(set(owner)) < k:
            continue
        total = 0.0
        for j in range(k):
            col = [u[i, j] for i in range(n) if owner[i] == j]
            pos = math.sqrt(sum(max(x, 0.0) ** 2 for x in col))
            total += pos if pos > 0.0 else max(col)
        best = max(best, total)
    return math.sqrt(max(0.0, float(np.sum(u * u)) + k - 2.0 * best))


class TestLoadGraph:
    def test_k2(self):
        g = load_graph(K2)
        assert g.n == 2 and g.edges == ((1, 2),)

    def test_p3(self):
        g = load_graph(P3)
        assert g.n == 3 and g.edges == ((1, 2), (2, 3))

    def test_self_loop(self):
        with pytest.raises(GraphFormatError):
            load_graph("e 1 1")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            load_graph("p 3 1\ne 1 two")

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            load_graph("p 2 1\ne 1 3")

    def test_vertex_count_beyond_array_index(self):
        # a graph with more vertices than an array can index would fail later
        # in numpy, with an OverflowError
        biggest = int(np.iinfo(np.intp).max)
        for text in (f"p {biggest + 1} 0", "p 99999999999999999999 0", f"1 {biggest + 1}"):
            with pytest.raises(GraphFormatError, match="largest array index"):
                load_graph(text)
        assert load_graph(f"p {biggest} 0").n == biggest

    def test_bare_lines_without_header(self):
        g = load_graph("1 2\n2 3")
        assert g.n == 3 and g.m == 2

    def test_comments_skipped(self):
        g = load_graph("c a comment\np 2 1\ne 1 2")
        assert g.m == 1

    def test_duplicates_collapse_with_warning(self):
        with pytest.warns(UserWarning):
            g = load_graph("p 2 1\ne 1 2\ne 2 1")
        assert g.m == 1

    def test_file_path(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(C4)
        assert load_graph(f).m == 4


class TestCutBoundary:
    def test_p3_middle(self):
        assert cut_boundary(load_graph(P3), {2}) == 2

    def test_full_set(self):
        assert cut_boundary(load_graph(P3), {1, 2, 3}) == 0

    def test_k2_single(self):
        assert cut_boundary(load_graph(K2), {1}) == 1

    def test_out_of_range(self):
        with pytest.raises(GraphFormatError):
            cut_boundary(load_graph(K2), {5})

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_complement_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                      if rng.uniform() < 0.5)
        g = Graph(n=n, edges=edges)
        a = {int(v) for v in range(1, n + 1) if rng.uniform() < 0.5}
        comp = set(range(1, n + 1)) - a
        assert cut_boundary(g, a) == cut_boundary(g, comp)


class TestObjective:
    def test_zero_cut(self):
        g = load_graph(TWO_EDGES)
        assert cheeger_objective(g, parts({1, 2}, {3, 4})) == 0.0

    def test_k2_split(self):
        assert cheeger_objective(load_graph(K2), parts({1}, {2})) == 2.0

    def test_c4_opposite_halves(self):
        got = cheeger_objective(load_graph(C4), parts({1, 2}, {3, 4}))
        assert got == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_invalid_partitions(self):
        with pytest.raises(GraphFormatError):
            parts({1, 2}, {2, 3})
        with pytest.raises(GraphFormatError):
            parts(set())


class TestExactCheeger:
    def test_k1_always_zero(self):
        for text in (K2, P3, C4, TWO_EDGES):
            value, _ = exact_cheeger(load_graph(text), 1)
            assert value == 0.0

    def test_k2_value(self):
        value, argmin = exact_cheeger(load_graph(K2), 2)
        assert value == 2.0
        assert sorted(map(sorted, argmin.parts)) == [[1], [2]]

    def test_c4_value(self):
        value, argmin = exact_cheeger(load_graph(C4), 2)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert sorted(map(sorted, argmin.parts)) in ([[1, 2], [3, 4]], [[1, 4], [2, 3]])

    def test_two_edges(self):
        value, argmin = exact_cheeger(load_graph(TWO_EDGES), 2)
        assert value == 0.0

    def test_budget_refused(self):
        with pytest.raises(BudgetExceededError):
            exact_cheeger(load_graph(C4), 2, budget=10)
        # the gate is exact at the boundary (k+1)^n == budget
        assert exact_cheeger(load_graph(C4), 2, budget=3**4)[0] == pytest.approx(2 * math.sqrt(2))
        with pytest.raises(BudgetExceededError):
            exact_cheeger(load_graph(C4), 2, budget=3**4 - 1)
        for n, k, budget in product(range(1, 9), range(1, 4), (-1, 0, 1, 2, 80, 81, 4096, 10**6)):
            assert _over_budget(n, k, budget) == ((k + 1) ** n > budget)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        g = load_graph(C4)
        base, _ = exact_cheeger(g, 2)
        for _ in range(5):
            perm = rng.permutation(g.n) + 1
            edges = tuple(sorted(tuple(sorted((int(perm[u - 1]), int(perm[v - 1]))))
                                 for u, v in g.edges))
            relabeled = Graph(n=g.n, edges=edges)
            value, _ = exact_cheeger(relabeled, 2)
            assert value == pytest.approx(base, abs=1e-12)


class TestRelaxationObjective:
    def test_p3_single_indicator(self):
        g = load_graph(P3)
        u = np.array([[1.0], [0.0], [0.0]])
        assert grad_norm_l1(g, u) == 1.0

    def test_p3_indicator_identity_example(self):
        g = load_graph(P3)
        u = np.array([[1.0], [1.0], [0.0]]) / math.sqrt(2)
        expected = cut_boundary(g, {1, 2}) / math.sqrt(2)
        assert grad_norm_l1(g, u) == pytest.approx(expected, abs=1e-15)

    def test_constant_column_on_component(self):
        g = load_graph(TWO_EDGES)
        u = np.array([[0.5], [0.5], [0.5], [0.5]])  # constant per component
        assert grad_norm_l1(g, u) == 0.0

    def test_indicator_identity_200_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, 4))
            edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.uniform() < 0.4)
            g = Graph(n=n, edges=edges)
            assignment = rng.integers(0, k + 1, size=n)
            groups = [frozenset(int(i) + 1 for i in np.flatnonzero(assignment == j))
                      for j in range(1, k + 1)]
            groups = [s for s in groups if s]
            if not groups:
                continue
            sp = SubPartition(tuple(groups))
            u = indicator_frame(g, sp)
            assert penalty_h(u, 1.0) == 0.0  # indicators live on the slice
            assert abs(grad_norm_l1(g, u) - cheeger_objective(g, sp)) <= 1e-12


class TestPenalty:
    def test_nonnegative_zero(self):
        assert penalty_h(np.eye(3)[:, :2], 0.5) == 0.0

    def test_single_unit_entry(self):
        assert penalty_h(np.array([[0.0], [-1.0]]), 0.5) == 1.0

    def test_negative_part_sum(self):
        assert penalty_h(np.array([[-0.6], [0.8]]), 1.0) == pytest.approx(0.6, abs=1e-15)

    def test_bad_exponent(self):
        with pytest.raises(GeometryError):
            penalty_h(np.eye(2), 0.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 0.7])
    def test_stack_gives_one_frame_bits(self, beta):
        rng = np.random.default_rng(3)
        frames = np.stack([random_stiefel(6, 3, rng) for _ in range(5)])
        one_by_one = [penalty_h(u, beta) for u in frames]
        assert penalty_h(frames, beta).tobytes() == np.array(one_by_one).tobytes()

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_zero_iff_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        u = random_stiefel(4, 2, rng)
        assert (penalty_h(u, 1.0) == 0.0) == bool(np.all(u >= 0.0))


class TestLipschitz:
    def test_examples(self):
        assert lipschitz_bound(load_graph(K2), 1) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert lipschitz_bound(load_graph(P3), 1) == pytest.approx(math.sqrt(6), abs=1e-15)
        assert lipschitz_bound(Graph(n=3, edges=()), 2) == 0.0

    def test_certificate_1000_pairs(self):
        rng = np.random.default_rng(8)
        for text, k in ((C4, 2), (P3, 1)):
            g = load_graph(text)
            bound = lipschitz_bound(g, k)
            for _ in range(500):
                u = random_stiefel(g.n, k, rng)
                v = random_stiefel(g.n, k, rng)
                lhs = abs(grad_norm_l1(g, u) - grad_norm_l1(g, v))
                assert lhs <= bound * np.linalg.norm(u - v) + 1e-12


def one_slice_distance(u):
    """(distance, frame) of one matrix from a one-row ``slice_distances``."""
    d, frames = slice_distances(u[None])
    return float(d[0]), frames[0]


class TestSliceDistance:
    def test_already_feasible(self):
        u = np.eye(3)[:, :2]
        d, v = one_slice_distance(u)
        assert d == 0.0
        assert np.array_equal(v, u)

    def test_hard_case_all_negative_column(self):
        # oracle: 1-d grid over the feasible arc gives exact distance sqrt(2)
        u = np.array([[0.0], [-1.0]])
        grid = np.linspace(0.0, math.pi / 2, 2001)
        exact = min(float(np.linalg.norm(u.ravel() - np.array([math.cos(t), math.sin(t)])))
                    for t in grid)
        assert exact == pytest.approx(math.sqrt(2), abs=1e-6)
        d, v = one_slice_distance(u)
        assert d == pytest.approx(math.sqrt(2), abs=1e-12)
        assert np.all(v >= 0.0)

    def test_nonpositive_column_takes_its_largest_entry(self):
        # column 2 has no positive entry: it must take row 2 (entry 0), not row 3
        u = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, -1.0]])
        d, v = one_slice_distance(u)
        assert d == pytest.approx(math.sqrt(2), abs=1e-12)
        assert d == pytest.approx(slice_distance_by_loop(u), abs=1e-12)
        assert np.array_equal(v, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))

    def test_perturbation_sweep(self):
        rng = np.random.default_rng(9)
        base = np.abs(random_stiefel(5, 2, rng))
        base = one_slice_distance(base)[1]
        for eps in (1e-3, 1e-2):
            u = qr_retract(base, eps * rng.standard_normal((5, 2)))
            d, _ = one_slice_distance(u)
            # base lies on the slice, so it bounds the distance of u
            assert d <= float(np.linalg.norm(u - base)) + 1e-12

    def test_frames_nonnegative_random(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            u = random_stiefel(4, 2, rng)
            d, v = one_slice_distance(u)
            assert np.all(v >= 0.0)
            assert d == float(np.linalg.norm(u - v))

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (6, 2), (6, 3), (8, 3)])
    def test_exact_against_seeded_slice_frames(self, n, k):
        rng = np.random.default_rng(100 * n + k)
        for _ in range(5):
            u = random_stiefel(n, k, rng)
            exact, v = one_slice_distance(u)
            assert exact == pytest.approx(slice_distance_by_loop(u), abs=1e-9)
            assert np.all(v >= 0.0)
            assert np.linalg.norm(v.T @ v - np.eye(k)) <= 1e-12
            assert exact == pytest.approx(float(np.linalg.norm(u - v)), abs=1e-12)
            for _ in range(200):
                w = random_stiefel_plus(n, k, rng)
                assert exact <= float(np.linalg.norm(u - w)) + 1e-12
            # the local search of larger sizes: a feasible frame, no closer
            # than the exact distance
            local = _local_search(u)
            assert np.all(local >= 0.0) and frame_residual(local) <= 1e-10
            assert exact <= float(np.linalg.norm(u - local)) + 1e-12


SLICE_SIZES = [(3, 1), (4, 2), (6, 2), (6, 3), (8, 3), (11, 2), (12, 2)]
# the rounded example of ROADMAP item 5: row 3 is positive only in column 1,
# yet the optimum puts it alone in column 2
COUNTEREXAMPLE = np.array([[0.9, 0.1], [0.5, -0.3], [0.2, -0.05]])


def adversarial_frames(n, k, rng):
    """Seeded frames with the structure random frames never have: zero rows,
    all-nonpositive columns and frames, rounded ties, an all-zero matrix."""
    out = []
    for _ in range(6):
        u = random_stiefel(n, k, rng)
        zero_rows = u.copy()
        zero_rows[rng.random(n) < 0.4] = 0.0
        negative_column = u.copy()
        negative_column[:, rng.integers(k)] = -np.abs(negative_column[:, rng.integers(k)])
        rounded_zero_rows = np.round(u, 1)
        rounded_zero_rows[rng.random(n) < 0.3] = 0.0
        out += [zero_rows, negative_column, -np.abs(u), np.round(u, 1), rounded_zero_rows,
                0.5 * np.round(rng.standard_normal((n, k)))]
    out.append(np.zeros((n, k)))
    return np.array(out)


def assert_matches_full_table(frames):
    d, got = slice_distances(frames)
    assert d.shape == (len(frames),) and got.shape == frames.shape
    for u, du, v in zip(frames, d, got):
        want_d, want_v = ref_slice_distance(u)
        assert du.tobytes() == np.float64(want_d).tobytes()
        assert v.tobytes() == want_v.tobytes()


class TestExactSliceDistances:
    """At desk scale the stack scorer keeps the assignments the lemma of
    slice_distances allows and scores them from subset tables; distances
    and frames must be bitwise those of scoring the full table one frame at
    a time (tests/slice_reference.py)."""

    @pytest.mark.parametrize("n,k", SLICE_SIZES)
    def test_seeded_frames_match_full_table(self, n, k):
        frames = random_stiefel(n, k, np.random.default_rng(10 * n + k), 40)
        assert_matches_full_table(frames)
        for u in frames[:8]:
            d, v = one_slice_distance(u)
            want_d, want_v = ref_slice_distance(u)
            assert np.float64(d).tobytes() == np.float64(want_d).tobytes()
            assert v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("n,k", SLICE_SIZES + [(2, 2), (3, 3), (4, 4), (5, 5)])
    def test_adversarial_frames_match_full_table(self, n, k):
        assert_matches_full_table(adversarial_frames(n, k, np.random.default_rng(n + 7 * k)))

    def test_counterexample_to_positive_columns(self):
        d, frames = slice_distances(COUNTEREXAMPLE[None])
        assert d[0] == 1.1150668014978296
        assert frames[0][2].tolist() == [0.0, 1.0]
        assert_matches_full_table(COUNTEREXAMPLE[None])

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3), (8, 3), (11, 2), (5, 5)])
    def test_lemma_keeps_every_full_table_optimum(self, n, k):
        rng = np.random.default_rng(3 * n + k)
        frames = np.concatenate([random_stiefel(n, k, rng, 20), adversarial_frames(n, k, rng)])
        if (n, k) == (4, 2):
            frames = np.concatenate([frames, np.pad(COUNTEREXAMPLE, ((0, 1), (0, 0)))[None]])
        keys = _assignment_keys(n, k)
        assert keys.shape == (k, ref_assignment_table(n, k).shape[1])
        dropped = 0
        for lo in range(0, len(frames), 64):
            block = frames[lo:lo + 64]
            frame, assignment = _lemma_survivors(block, keys)
            assert np.all(np.diff(frame) >= 0)
            for f, u in enumerate(block):
                kept = assignment[frame == f]
                assert np.all(np.diff(kept) > 0)  # table order
                score = ref_table_scores(u)
                assert set(np.flatnonzero(score == score.max())) <= set(kept.tolist())
                dropped += keys.shape[1] - len(kept)
        # with k == n every covering map is a permutation: one row per column
        assert (dropped > 0) == (n > k)

    def test_assignment_keys_past_the_enumeration_cap(self):
        # 3^11 map indices overflow int16: the table must not depend on the cap
        n, k = 11, 3
        maps = np.array(list(product(range(k), repeat=n)))
        maps = maps[np.all(np.any(maps[:, :, None] == np.arange(k), axis=1), axis=1)]
        want = (maps[None] == np.arange(k)[:, None, None]) @ (1 << np.arange(n))
        want += np.arange(k)[:, None] << n
        got = _assignment_keys.__wrapped__(n, k)
        assert got.shape == (k, 171006)
        assert np.array_equal(got, want)

    def test_block_size_does_not_change_results(self, monkeypatch):
        frames = np.concatenate([random_stiefel(8, 3, np.random.default_rng(4), 70),
                                 adversarial_frames(8, 3, np.random.default_rng(5))])
        d, got = slice_distances(frames)
        for cap in (1, 3 * 2**8 * 5, 1 << 20):
            monkeypatch.setattr(stiefel_module, "SLICE_TABLE_ENTRIES", cap)
            d_cap, got_cap = slice_distances(frames)
            assert d_cap.tobytes() == d.tobytes() and got_cap.tobytes() == got.tobytes()

    @pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (8, 3), (3, 3)])
    def test_empty_stack(self, n, k):
        d, frames = slice_distances(np.zeros((0, n, k)))
        assert d.shape == (0,) and frames.shape == (0, n, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_square_frames(self, k):
        rng = np.random.default_rng(k)
        perm = np.eye(k)[rng.permutation(k)]
        d, frames = slice_distances(np.stack([perm, -perm, random_stiefel(k, k, rng)]))
        assert d[0] == 0.0 and np.array_equal(frames[0], perm)
        assert_matches_full_table(np.stack([perm, -perm, random_stiefel(k, k, rng)]))

    def test_refusals(self):
        with pytest.raises(FrameError, match="finite"):
            slice_distances(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))
        with pytest.raises(FrameError, match="finite"):
            slice_distances(np.array([[[-np.inf], [1.0]]]))
        with pytest.raises(FrameError, match="empty"):
            slice_distances(np.zeros((1, 2, 3)))
        with pytest.raises(FrameError, match="stack"):
            slice_distances(np.zeros((4, 2)))
        # past the enumeration cap a matrix takes the local search's frame
        assert 3**9 > EXACT_ASSIGNMENTS
        d, frames = slice_distances(np.zeros((1, 9, 3)))
        assert np.array_equal(frames[0], _local_search(np.zeros((9, 3))))
        assert d[0] == float(np.linalg.norm(frames[0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_past_the_enumeration_cap(self, value):
        u = random_stiefel(10, 3, np.random.default_rng(1))
        u[4, 1] = value
        with pytest.raises(FrameError, match="finite"):
            slice_distances(u[None])

    @pytest.mark.parametrize("n,k", [(9, 3), (10, 3), (17, 2), (40, 4)])
    def test_local_search_stack_matches_one_matrix_at_a_time(self, n, k):
        frames = random_stiefel(n, k, np.random.default_rng(n + k), 6)
        d, got = slice_distances(frames)
        for u, du, v in zip(frames, d, got):
            want = _local_search(u)
            assert v.tobytes() == want.tobytes()
            assert du.tobytes() == np.float64(np.linalg.norm(u - want)).tobytes()

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (4, 2), (8, 3)])
    def test_stiefel_distance_matches_per_frame_reference(self, n, k):
        frames = random_stiefel(n, k, np.random.default_rng(n * k), 30)
        want = np.array([ref_stiefel_distance(u) for u in frames])
        assert _stiefel_distance(frames).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n,k", [(11, 2), (10, 3), (6, 1), (5, 5), (80, 3)])
    def test_calibration_matches_frame_by_frame_loop(self, n, k):
        rng = np.random.default_rng(n + k)
        edges = tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                      if rng.random() < 0.3)
        graph = Graph(n=n, edges=edges)
        # the loop the stacked calibration replaced, one seeded frame at a time
        frame_rng = np.random.default_rng(9)
        num = den = 0.0
        for _ in range(CALIBRATION_FRAMES):
            u = random_stiefel(n, k, frame_rng)
            mass = float(np.sum(np.maximum(-u, 0.0)))
            if mass < 1e-9:
                continue
            ub = ref_slice_distance(u)[0] if k**n <= EXACT_ASSIGNMENTS \
                else float(np.linalg.norm(u - _local_search(u)))
            num += ub * mass
            den += mass * mass
        c, c_hat = calibrate_penalty_weight(graph, k, seed=9)
        assert np.float64(c_hat).tobytes() == np.float64(num / den).tobytes()
        want_c = 2.0 * max(lipschitz_bound(graph, k), 1.0) * max(num / den, 0.25)
        assert np.float64(c).tobytes() == np.float64(want_c).tobytes()

    @pytest.mark.parametrize("n,k,want", [
        (10, 3, (11.897773939208285, 0.3747446547429814)),
        (80, 3, (188.403821617291, 0.13488414090995252)),
    ])
    def test_calibration_bits_past_the_enumeration_cap(self, n, k, want):
        # (C, c_hat) with the bits of the per-matrix local search, scored one
        # frame at a time; scoring the frames as one stack must keep them
        rng = np.random.default_rng(n + k)
        edges = tuple((a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                      if rng.random() < 0.3)
        assert k**n > EXACT_ASSIGNMENTS
        got = calibrate_penalty_weight(Graph(n=n, edges=edges), k, seed=9)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n,k", [(4, 2), (8, 3)])
    def test_no_penalty_weight_dominates_the_distance(self, n, k):
        # U(t) = R_P(tV), P = [I_k; 0], V zero but row k + 1 = (0.6, 0.8, 0, ...):
        # dist(U, St+) = 0.6 t and h_1(U) = 0.48 t^2, so h_1 / dist = 0.8 t and no
        # finite C makes C h_1 dominate the distance as t -> 0
        v = np.zeros((n, k))
        v[k, :2] = 0.6, 0.8
        t = 1e-4
        u = qr_retract(np.eye(n, k), t * v)
        d = slice_distances(u[None])[0][0]
        assert d / t == pytest.approx(0.6000000011, rel=1e-10)
        assert penalty_h(u, 1.0) / d == pytest.approx(0.8 * t, rel=1e-7)


class TestSubgradient:
    def test_edgeless_tie_is_zero(self):
        g = Graph(n=2, edges=())
        u = np.array([[1.0], [0.0]])
        assert np.allclose(subgradient(g, u, 2.0), 0.0)

    def test_hand_case(self):
        # K2, U = (0, -1): ambient gradient (1, -3) projects to (1, 0) on the
        # tangent line {(x, 0)}; descent along -subgradient decreases the
        # penalized value
        g = load_graph(K2)
        u = np.array([[0.0], [-1.0]])
        got = subgradient(g, u, 2.0)
        assert np.allclose(got, [[1.0], [0.0]], atol=1e-12)

    def test_matches_finite_differences_at_smooth_points(self):
        # oracle: central differences along retraction curves where no edge
        # difference or entry sits at a kink
        from sharpmin.stiefel import qr_retract

        g = load_graph(C4)
        rng = np.random.default_rng(12)
        c = 3.0
        checked = 0
        while checked < 10:
            u = random_stiefel(4, 2, rng)
            diffs = u[g.edge_array()[:, 0], :] - u[g.edge_array()[:, 1], :]
            if np.min(np.abs(diffs)) < 1e-3 or np.min(np.abs(u)) < 1e-3:
                continue
            checked += 1
            grad = subgradient(g, u, c)
            w = tangent_project(stiefel(4, 2), u, rng.standard_normal((4, 2)))
            w /= np.linalg.norm(w)
            h = 1e-6

            def val(t):
                x = qr_retract(u, t * w)
                return grad_norm_l1(g, x) + c * penalty_h(x, 1.0)

            fd = (val(h) - val(-h)) / (2 * h)
            assert fd == pytest.approx(float(np.sum(grad * w)), abs=1e-4)


class TestRounding:
    def test_indicator_recovery(self):
        g = load_graph(TWO_EDGES)
        sp = parts({1, 2}, {3, 4})
        got = round_solution(g, indicator_frame(g, sp))
        assert sorted(map(sorted, got.parts)) == sorted(map(sorted, sp.parts))

    def test_c4_near_indicator(self):
        g = load_graph(C4)
        sp = parts({1, 2}, {3, 4})
        u = indicator_frame(g, sp) + 0.05 * np.random.default_rng(13).standard_normal((4, 2))
        got = round_solution(g, u)
        assert sorted(map(sorted, got.parts)) == sorted(map(sorted, sp.parts))

    def test_k1_uniform_column_gives_full_set(self):
        g = load_graph(P3)
        u = np.full((3, 1), 1.0 / math.sqrt(3))
        got = round_solution(g, u)
        assert sorted(map(sorted, got.parts)) == [[1, 2, 3]]

    def test_all_zero_refused(self):
        g = load_graph(K2)
        with pytest.raises(GeometryError):
            round_solution(g, np.zeros((2, 1)))

    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_parts_always_disjoint_and_supported(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, min(3, n) + 1))
        edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                      if rng.uniform() < 0.4)
        g = Graph(n=n, edges=edges)
        u = random_stiefel(n, k, rng)
        got = round_solution(g, u)  # SubPartition enforces disjoint nonempty
        assert 1 <= len(got.parts) <= k
        magnitudes = np.abs(u)
        for j, part in enumerate(got.parts):
            for v in part:
                assert magnitudes[v - 1].max() > 1e-12  # support restriction


class TestSolver:
    CFG = SolverConfig(restarts=20, max_iters=300, seed=0)

    @pytest.mark.parametrize("text,k,expected", [
        (TWO_EDGES, 2, 0.0),
        (K2, 2, 2.0),
        (C4, 2, 2 * math.sqrt(2)),
    ])
    def test_named_instances_match_oracle(self, text, k, expected):
        rep = solve_relaxation(load_graph(text), k, self.CFG)
        assert rep.oracle_value == pytest.approx(expected, abs=1e-12)
        assert abs(rep.rounded_value - rep.oracle_value) <= 1e-12
        assert rep.gap == pytest.approx(0.0, abs=1e-12)

    def test_feasibility_and_trace(self):
        rep = solve_relaxation(load_graph(C4), 2, self.CFG)
        assert rep.max_feasibility_residual <= 1e-10
        running = math.inf
        for _, val, pen, res in rep.trace:
            running = min(running, val)
            assert res <= 1e-10
        # best-iterate tracking also considers the initial frame, so the best
        # value never exceeds the running minimum of the per-step trace
        assert rep.best_penalty_value <= running + 1e-12

    def test_determinism(self):
        a = solve_relaxation(load_graph(C4), 2, self.CFG)
        b = solve_relaxation(load_graph(C4), 2, self.CFG)
        assert a.rounded_value == b.rounded_value
        assert a.trace == b.trace

    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_non_finite_or_nonpositive_weight_refused(self, value):
        with pytest.raises(GeometryError, match="penalty weight"):
            SolverConfig(penalty_c=value)

    def test_calibration_logged(self):
        rep = solve_relaxation(load_graph(C4), 2, self.CFG)
        assert rep.penalty_c > lipschitz_bound(load_graph(C4), 2)
        assert math.isfinite(rep.calibration_c_hat)

    def test_k1_connected_graph_rounds_to_zero(self):
        rep = solve_relaxation(load_graph(C4), 1, SolverConfig(restarts=5, max_iters=80, seed=0))
        assert rep.rounded_value == 0.0
        assert rep.oracle_value == 0.0

    def test_explicit_penalty_weight(self):
        g = load_graph(K2)
        cfg = SolverConfig(penalty_c=5.0, restarts=5, max_iters=80, seed=0)
        rep = solve_relaxation(g, 2, cfg)
        assert rep.penalty_c == 5.0
        assert math.isnan(rep.calibration_c_hat)  # no calibration ran
        assert rep.rounded_value == rep.oracle_value == 2.0


class TestPenaltyStudy:
    def test_square_penalty_fails_with_witness(self):
        study = wsm_penalty_check(2, 1, 2.0, n_samples=200, seed=0)
        assert not study.dual_consistent
        witness = next(v.witness for v in study.dual if not v.passed)
        assert np.allclose(witness.covector, [[0.0], [-1.0]], atol=1e-12)

    def test_sqrt_penalty_consistent(self):
        study = wsm_penalty_check(2, 1, 0.5, n_samples=200, seed=0)
        assert study.dual_consistent

    def test_sqrt_modulus_bounded_below(self):
        study = wsm_penalty_check(2, 1, 0.5, n_samples=400, seed=0)
        count, estimate = study.modulus_trace[-1]
        assert estimate >= 0.70

    def test_desk_scale_guard(self):
        with pytest.raises(GeometryError):
            wsm_penalty_check(20, 2, 0.5)
        for n, k in ((9, 1), (8, 4)):
            with pytest.raises(GeometryError, match="desk-scale"):
                wsm_penalty_check(n, k, 0.5)

    def test_admitted_sizes_have_exact_distances(self, monkeypatch):
        # every (n, k) the study admits (n <= 8, 1 <= k <= min(n, 3)) is
        # within the enumeration cap, so its distance to St+ is exact
        for n in range(1, 9):
            for k in range(1, min(n, 3) + 1):
                assert k**n <= EXACT_ASSIGNMENTS
        assert 3**8 == EXACT_ASSIGNMENTS

        def no_local_search(mat):
            raise AssertionError("the study took a local-search distance")

        monkeypatch.setattr(stiefel_module, "_local_search", no_local_search)
        study = wsm_penalty_check(8, 3, 0.5, n_samples=8, seed=1)
        assert study.wsm.n_samples == 8
