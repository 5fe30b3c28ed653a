"""The stacked solver, the block oracle and the incremental rounding sweep
against the one-frame loops they replaced.

Each reference below is the earlier loop, copied: the solver advanced one
restart at a time with per-frame objective and subgradient calls (its frames
drawn and retracted through its own ``np.linalg.qr``, sign fix and rank
check, not the ``stiefel`` helpers under test), the oracle
scored one ``itertools.product`` assignment at a time, and the rounding sweep
called ``cut_boundary`` once per prefix.  Values are compared bit for bit.
"""

import math
from itertools import product

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from sharpmin import cheeger
from sharpmin.cheeger import (
    Graph,
    ORACLE_BLOCK_BYTES,
    SolverConfig,
    SubPartition,
    _oracle_blocks,
    _scored_assignments,
    cut_boundary,
    exact_cheeger,
    grad_norm_l1,
    lipschitz_bound,
    load_graph,
    penalty_h,
    round_solution,
    solve_relaxation,
)
from sharpmin.manifolds import GeometryError, stiefel, tangent_project
from sharpmin.stiefel import ENTRY_ZERO_TOL, FrameError, frame_residual, random_stiefel
from helpers import subgradient

K2 = "p 2 1\ne 1 2"
P3 = "p 3 2\ne 1 2\ne 2 3"
C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4"
TWO_EDGES = "p 4 2\ne 1 2\ne 3 4"


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# References: the one-frame loops
# ---------------------------------------------------------------------------

def ref_grad_norm_l1(graph, u):
    ea = graph.edge_array()
    if ea.shape[0] == 0:
        return 0.0
    return float(np.sum(np.abs(u[ea[:, 0], :] - u[ea[:, 1], :])))


def ref_tangent_project(base, z):
    for _ in range(2):
        s = base.T @ z
        z = z - base @ ((s + s.T) / 2.0)
    return z


def ref_subgradient(graph, u, c):
    grad = np.zeros_like(u)
    ea = graph.edge_array()
    if ea.shape[0]:
        signs = np.sign(u[ea[:, 0], :] - u[ea[:, 1], :])
        np.add.at(grad, ea[:, 0], signs)
        np.add.at(grad, ea[:, 1], -signs)
    negative = u < 0.0
    if negative.any():
        # c * beta * (-u)^(beta - 1), the derivative of the exponent-beta penalty, at beta = 1
        grad[negative] -= c * 1.0 * np.maximum(-u[negative], 0.0) ** 0.0
    return ref_tangent_project(u, grad)


def ref_frame_residual(u):
    return float(np.linalg.norm(u.T @ u - np.eye(u.shape[1])))


def ref_sign_fixed_qr(a):
    """(Q, R) of ``np.linalg.qr(a)``, Q's columns flipped so that R's
    diagonal is positive."""
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0), r


def ref_qr_retract(u, step):
    q, r = ref_sign_fixed_qr(u + step)
    if np.any(np.abs(np.diag(r)) < 1e-12 * max(1.0, float(np.linalg.norm(r)))):
        raise FrameError("rank-deficient step: QR retraction undefined")
    return q


def ref_solve(graph, k, cfg):
    """(best value, best restart, trace, max residual, best frame, per-restart
    best values) from the restart-by-restart loop."""
    scale = max(lipschitz_bound(graph, k), 1.0)
    c = cheeger.PENALTY_C0 * scale if cfg.penalty_c is None else float(cfg.penalty_c)
    step0 = 1.0 / scale
    best_val, best_u, best_restart, best_trace = math.inf, None, -1, ()
    max_residual = 0.0
    restart_bests = []
    for r, ss in enumerate(SeedSequence(cfg.seed).spawn(cfg.restarts)):
        u = ref_sign_fixed_qr(default_rng(ss).standard_normal((graph.n, k)))[0]
        trace = []
        local_best = ref_grad_norm_l1(graph, u) + c * penalty_h(u, 1.0)
        local_u = u
        for t in range(1, cfg.max_iters + 1):
            g = ref_subgradient(graph, u, c)
            gamma = step0 / math.sqrt(t)
            u = ref_qr_retract(u, -gamma * g)
            val = ref_grad_norm_l1(graph, u) + c * penalty_h(u, 1.0)
            assert math.isfinite(val)
            res = ref_frame_residual(u)
            max_residual = max(max_residual, res)
            trace.append((t, val, c * penalty_h(u, 1.0), res))
            if val < local_best:
                local_best = val
                local_u = u
        restart_bests.append(local_best)
        if local_best < best_val - 1e-15:
            best_val, best_u, best_restart, best_trace = local_best, local_u, r, tuple(trace)
    return best_val, best_restart, best_trace, max_residual, best_u, restart_bests


def ref_round_solution(graph, u):
    magnitudes = np.abs(u)
    owner = np.argmax(magnitudes, axis=1)
    parts = []
    for j in range(u.shape[1]):
        pool = [v for v in range(graph.n)
                if owner[v] == j and magnitudes[v, j] > ENTRY_ZERO_TOL]
        if not pool:
            continue
        pool.sort(key=lambda v: (-magnitudes[v, j], v))
        best_ratio, best_prefix = math.inf, None
        chosen = set()
        for v in pool:
            chosen.add(v + 1)
            ratio = cut_boundary(graph, chosen) / math.sqrt(len(chosen))
            if ratio < best_ratio - 1e-15:
                best_ratio = ratio
                best_prefix = frozenset(chosen)
        parts.append(best_prefix)
    return SubPartition(tuple(parts))


def ref_canonical(assignment):
    top = 0
    for a in assignment:
        if a == 0:
            continue
        if a > top + 1:
            return False
        top = max(top, a)
    return True


def ref_scored(graph, k):
    """(assignment, value) for every assignment the scalar oracle scored."""
    for assignment in product(range(k + 1), repeat=graph.n):
        if not ref_canonical(assignment):
            continue
        sizes = [0] * (k + 1)
        for a in assignment:
            sizes[a] += 1
        if any(sizes[i] == 0 for i in range(1, k + 1)):
            continue
        boundary = [0] * (k + 1)
        for u, v in graph.edges:
            au, av = assignment[u - 1], assignment[v - 1]
            if au != av:
                if au:
                    boundary[au] += 1
                if av:
                    boundary[av] += 1
        yield assignment, sum(boundary[i] / math.sqrt(sizes[i]) for i in range(1, k + 1))


def _suffix_labels(masks, low):
    """(count, low) labels of an oracle block's suffixes, read off their k
    label masks: position b has label j when bit b of mask j is set, else 0."""
    bits = masks.astype(np.int64)[:, :, None] >> np.arange(low) & 1  # (k, count, low)
    return (bits * np.arange(1, len(masks) + 1)[:, None, None]).sum(axis=0)


def ref_exact_cheeger(graph, k):
    best_val, best_assignment = math.inf, None
    for assignment, val in ref_scored(graph, k):
        if val < best_val - 1e-15:
            best_val, best_assignment = val, assignment
    parts = [frozenset(i + 1 for i, a in enumerate(best_assignment) if a == j)
             for j in range(1, k + 1)]
    return best_val, SubPartition(tuple(parts))


# ---------------------------------------------------------------------------
# Seeded instances
# ---------------------------------------------------------------------------

def gnp(n, p, rng):
    """G(n, p) by the acceptance suite's rule (an edgeless draw becomes 1-2
    when there are two vertices)."""
    edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if rng.uniform() < p)
    return Graph(n=n, edges=edges if edges or n < 2 else ((1, 2),))


def planted(n, k, p_in, p_out, rng):
    block = rng.permutation(n) % k
    edges = tuple((u + 1, v + 1) for u in range(n) for v in range(u + 1, n)
                  if rng.uniform() < (p_in if block[u] == block[v] else p_out))
    return Graph(n=n, edges=edges if edges else ((1, 2),))


def cycle(n):
    return Graph(n=n, edges=tuple(sorted((min(i, i % n + 1), max(i, i % n + 1))
                                         for i in range(1, n + 1))))


def complete(n):
    return Graph(n=n, edges=tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)))


def matching(n):
    return Graph(n=n, edges=tuple((u, u + 1) for u in range(1, n, 2)))


# vertices 4 and 7 touch no edge, so their rows of B^T sign(B U) stay 0
ISOLATED = Graph(n=7, edges=((1, 2), (1, 3), (2, 3), (5, 6)))
# edges run from the smaller vertex (tail) to the larger (head): vertex 1 is
# only ever a tail, vertex 6 only ever a head, 2-4 are both
ONE_SIDED = Graph(n=6, edges=((1, 2), (1, 3), (1, 4), (2, 6), (3, 6), (4, 6), (5, 6)))


def _solver_cases():
    light = SolverConfig(restarts=6, max_iters=60, seed=0)
    full = SolverConfig(restarts=20, max_iters=300, seed=0)
    cases = [(f"named-{i}", load_graph(text), k, full)
             for i, (text, k) in enumerate(((K2, 2), (C4, 2), (TWO_EDGES, 2), (P3, 2),
                                            (C4, 1)))]
    cases.append(("explicit-c", load_graph(C4), 2,
                  SolverConfig(penalty_c=5.0, restarts=4, max_iters=50, seed=3)))
    cases.append(("edgeless", Graph(n=5, edges=()), 2, light))
    # one vertex: every start frame is +1 or -1 and stays put, so restarts tie
    cases.append(("single-vertex", Graph(n=1, edges=()), 1,
                  SolverConfig(restarts=6, max_iters=5, seed=0)))
    rng = default_rng(12345)  # the random instances of acceptance criterion 6
    for i in range(10):
        n, k = int(rng.integers(5, 9)), int(rng.integers(2, 4))
        cases.append((f"criterion6-{i}", gnp(n, 0.4, rng), k,
                      SolverConfig(restarts=6, max_iters=60, seed=i)))
    rng = default_rng(2024)
    for n, k in ((11, 2), (10, 3), (9, 2)):
        cases.append((f"gnp-{n}-{k}", gnp(n, 0.4, rng), k, light))
    for n, k in ((40, 3), (80, 3), (60, 4)):
        cases.append((f"planted-{n}-{k}", planted(n, k, 0.3, 0.02, rng), k,
                      SolverConfig(restarts=4, max_iters=40, seed=n)))
    cases.append(("isolated-vertices", ISOLATED, 2, light))
    cases.append(("tail-only-head-only", ONE_SIDED, 2, light))
    cases.append(("k1-one-restart", cycle(7), 1, SolverConfig(restarts=1, max_iters=60, seed=5)))
    return cases


SOLVER_CASES = _solver_cases()


def _oracle_graphs():
    """(name, graph, k): 160 seeded random graphs and 60 tie-heavy ones."""
    rng = default_rng(99)
    cases = []
    for i in range(160):
        n = int(rng.integers(1, 8))
        k = int(rng.integers(1, min(n, 2 if n > 5 else 3) + 1))
        cases.append((f"random-{i}", gnp(n, float(rng.uniform(0.1, 0.9)), rng), k))
    for n in range(1, 8):
        for k in range(1, min(n, 3) + 1):
            if (k + 1) ** n > 5000:
                continue
            cases.append((f"edgeless-{n}-{k}", Graph(n=n, edges=()), k))
            if n >= 2:
                cases.append((f"complete-{n}-{k}", complete(n), k))
                cases.append((f"matching-{n}-{k}", matching(n), k))
            if n >= 3:
                cases.append((f"cycle-{n}-{k}", cycle(n), k))
    return cases


ORACLE_GRAPHS = _oracle_graphs()


def assert_solver_matches_reference(graph, k, cfg):
    best_val, best_restart, trace, max_residual, best_u, restart_bests = \
        ref_solve(graph, k, cfg)
    rep = solve_relaxation(graph, k, cfg)
    assert _bits(rep.best_penalty_value) == _bits(best_val)
    assert rep.best_restart == best_restart
    assert [row[0] for row in rep.trace] == [row[0] for row in trace]
    assert _bits(rep.trace) == _bits(trace)
    assert _bits(rep.max_feasibility_residual) == _bits(max_residual)
    assert _bits(rep.restart_best_values) == _bits(restart_bests)
    assert _bits(rep.best_continuous_value) == _bits(ref_grad_norm_l1(graph, best_u))
    assert rep.rounded.parts == ref_round_solution(graph, best_u).parts


class TestBatchedPipelineMatchesLoopReference:
    @pytest.mark.parametrize("name,graph,k,cfg", SOLVER_CASES, ids=[c[0] for c in SOLVER_CASES])
    def test_solver(self, name, graph, k, cfg):
        assert_solver_matches_reference(graph, k, cfg)

    def test_solver_cases_cover_restart_choice(self):
        # the choice across restarts is exercised by a best restart other than
        # the first and by restarts that tie at the best value
        reports = [solve_relaxation(g, k, cfg) for _, g, k, cfg in SOLVER_CASES[:9]]
        assert {rep.best_restart for rep in reports} - {0}
        assert any(rep.restart_best_values.count(rep.best_penalty_value) > 1
                   for rep in reports)

    @pytest.mark.parametrize("n,k", [(2, 1), (4, 2), (7, 3), (11, 2), (40, 4)])
    def test_stacked_objective_and_subgradient(self, n, k):
        rng = default_rng(n * 10 + k)
        graph = gnp(n, 0.4, rng)
        stack = np.stack([random_stiefel(n, k, rng) for _ in range(5)])
        stack[0, 0, 0] = stack[0, 1, 0]  # a tie: sign 0 on that edge, if present
        c = 3.5
        values = grad_norm_l1(graph, stack)
        grads = subgradient(graph, stack, c)
        residuals = frame_residual(stack)
        for i, u in enumerate(stack):
            assert _bits(values[i]) == _bits(ref_grad_norm_l1(graph, u))
            assert _bits(grad_norm_l1(graph, u)) == _bits(values[i])
            assert _bits(grads[i]) == _bits(ref_subgradient(graph, u, c))
            assert _bits(subgradient(graph, u, c)) == _bits(grads[i])
            assert _bits(residuals[i]) == _bits(ref_frame_residual(u))

    # penalty weights from a small one, where edge terms dominate, to one
    # where the -C entries dominate the tangent projection
    @pytest.mark.parametrize("c", [0.5, 2.5, 1e3])
    @pytest.mark.parametrize("name", ["isolated", "one-sided", "edgeless", "gnp-9"])
    def test_stacked_subgradient_matches_add_at(self, name, c):
        graph = {"isolated": ISOLATED, "one-sided": ONE_SIDED,
                 "edgeless": Graph(n=5, edges=()),
                 "gnp-9": gnp(9, 0.4, default_rng(9))}[name]
        rng = default_rng(10 + graph.n)
        for k in (1, 2, 3):
            stack = np.stack([random_stiefel(graph.n, k, rng) for _ in range(4)])
            stack[0, 0, 0] = stack[0, 1, 0]  # a tie on the edge 1-2, where present
            stack[1, 2, :] = 0.0  # zero entries: neither negative nor penalized
            grads = subgradient(graph, stack, c)
            assert grads.dtype == np.float64
            for i, u in enumerate(stack):
                assert _bits(grads[i]) == _bits(ref_subgradient(graph, u, c))
                assert _bits(subgradient(graph, u, c)) == _bits(grads[i])

    @pytest.mark.parametrize("n,k", [(3, 1), (5, 2), (8, 3), (30, 4)])
    def test_stacked_base_tangent_project(self, n, k):
        rng = default_rng(n + k)
        bases = np.stack([random_stiefel(n, k, rng) for _ in range(6)])
        z = rng.standard_normal((6, n, k))
        got = tangent_project(stiefel(n, k), bases, z)
        for i in range(6):
            one = tangent_project(stiefel(n, k), bases[i], z[i])
            assert _bits(got[i]) == _bits(one)
            assert _bits(one) == _bits(ref_tangent_project(bases[i], z[i]))

    def test_oracle(self):
        assert len(ORACLE_GRAPHS) >= 200
        for name, graph, k in ORACLE_GRAPHS:
            value, parts = exact_cheeger(graph, k)
            ref_value, ref_parts = ref_exact_cheeger(graph, k)
            assert _bits(value) == _bits(ref_value), name
            assert parts.parts == ref_parts.parts, name

    @pytest.mark.parametrize("block_bytes", [1, 40, 2000, 1 << 18])
    def test_oracle_blocks_score_the_scan_in_order(self, monkeypatch, block_bytes):
        # small caps split the enumeration into many prefix blocks
        monkeypatch.setattr(cheeger, "ORACLE_BLOCK_BYTES", block_bytes)
        rng = default_rng(block_bytes)
        graphs = [(gnp(9, 0.4, rng), 2), (gnp(7, 0.5, rng), 3), (cycle(8), 2),
                  (complete(6), 3), (Graph(n=6, edges=()), 2), (matching(8), 1),
                  (cycle(10), 2)]
        kinds = set()
        for graph, k in graphs:
            ref = list(ref_scored(graph, k))
            blocks = list(_oracle_blocks(graph, k))
            assignments = [tuple(prefix.tolist()) + tuple(row)
                           for prefix, masks, _ in blocks
                           for row in _suffix_labels(masks, graph.n - prefix.size).tolist()]
            values = np.concatenate([v for _, _, v in blocks])
            assert assignments == [a for a, _ in ref]
            assert _bits(values) == _bits([v for _, v in ref])
            assert not np.isnan(values).any()
            assert len(ref) == _scored_assignments(graph.n, k)
            value, parts = exact_cheeger(graph, k)
            ref_value, ref_parts = ref_exact_cheeger(graph, k)
            assert _bits(value) == _bits(ref_value)
            assert parts.parts == ref_parts.parts
            if len(blocks) > 1:
                hi = blocks[0][0].size  # edges are prefix-prefix, prefix-suffix or suffix-suffix
                kinds |= {(u <= hi) + (v <= hi) for u, v in graph.edges}
        # from 2000 bytes on, cycle(10) splits into blocks with every edge kind
        assert kinds == ({0, 1, 2} if block_bytes >= 2000 else {2})

    @pytest.mark.parametrize("n,k,low", [(11, 2, 8), (10, 3, 6), (20, 1, 11), (13, 2, 8),
                                         (11, 3, 6), (3, 2, 3)])
    def test_oracle_block_tables_fit_the_cap(self, n, k, low):
        graph = gnp(n, 0.4, default_rng(n))
        blocks = 0
        for prefix, masks, values in _oracle_blocks(graph, k):
            assert prefix.size == n - low
            assert masks is cheeger._canonical_suffixes(low, k)[max(prefix.tolist(), default=0)]
            assert masks.shape == (k, values.size)
            assert masks.itemsize == (1 if low <= 8 else 2)
            # masks, values and one gather temporary; k subset tables and one
            # float row per suffix vertex
            held = masks.nbytes + 2 * values.nbytes + ((k + low) * 8 << low)
            assert held <= ORACLE_BLOCK_BYTES
            blocks += 1
        assert blocks >= 1

    @pytest.mark.parametrize("n,k,count", [(1, 1, 1), (4, 2, 25), (10, 3, 145750),
                                           (11, 2, 86526)])
    def test_scored_assignments_is_stirling(self, n, k, count):
        assert _scored_assignments(n, k) == count

    def test_rounding_sweep(self):
        rng = default_rng(7)
        checked = ties = 0
        for _ in range(300):
            n = int(rng.integers(2, 13))
            k = int(rng.integers(1, min(n, 4) + 1))
            graph = gnp(n, float(rng.uniform(0.2, 0.8)), rng)
            u = random_stiefel(n, k, rng)
            if rng.uniform() < 0.5:  # coarse levels make magnitude ties common
                u = np.round(u * 2.0) / 2.0
            if not np.any(np.abs(u) > ENTRY_ZERO_TOL):
                continue
            magnitudes = np.abs(u)[np.abs(u) > ENTRY_ZERO_TOL]
            ties += len(np.unique(magnitudes)) < len(magnitudes)
            assert round_solution(graph, u).parts == ref_round_solution(graph, u).parts
            checked += 1
        assert checked >= 250 and ties >= 100


# ---------------------------------------------------------------------------
# Block bookkeeping: boundaries and the order of refusals
# ---------------------------------------------------------------------------

BLOCK_CASES = [case for case in SOLVER_CASES
               if case[0] in ("named-1", "explicit-c", "single-vertex", "criterion6-0",
                              "gnp-11-2", "planted-40-3", "isolated-vertices", "k1-one-restart")]


def _block_bytes(graph, k, cfg, iterates):
    """A SOLVER_BLOCK_BYTES that gives blocks of this many iterates."""
    return iterates * 8 * cfg.restarts * graph.n * k


class TestSolverBlocks:
    @pytest.mark.parametrize("iterates", [1, 3, None])  # None: one block past max_iters
    @pytest.mark.parametrize("name,graph,k,cfg", BLOCK_CASES, ids=[c[0] for c in BLOCK_CASES])
    def test_block_length_keeps_the_bits(self, monkeypatch, name, graph, k, cfg, iterates):
        span = cfg.max_iters + 7 if iterates is None else iterates
        monkeypatch.setattr(cheeger, "SOLVER_BLOCK_BYTES", _block_bytes(graph, k, cfg, span))
        assert_solver_matches_reference(graph, k, cfg)

    def test_best_iterate_in_a_later_block(self):
        # the cases above include a best restart whose best iterate lies past
        # the first block of three, so a later block's update is what keeps it
        late = 0
        for _, graph, k, cfg in BLOCK_CASES:
            best_val, _, trace, *_ = ref_solve(graph, k, cfg)
            values = [row[1] for row in trace]
            if best_val in values and values.index(best_val) >= 3:
                late += 1
        assert late >= 3


POISON_GRAPH = load_graph(C4)
POISON_CFG = SolverConfig(penalty_c=5.0, restarts=5, max_iters=12, seed=4)


def _poison_values(monkeypatch, at):
    """Make the solver's penalty inf at each (iteration, restart) of ``at``,
    however its blocks are cut."""
    real = cheeger.penalty_h
    done = [0]  # iterations whose penalties the solver has taken

    def poisoned(u, beta):
        out = real(u, beta)
        if np.ndim(out) == 2:  # a block: one row per iteration
            for t, r in at:
                if done[0] < t <= done[0] + len(out):
                    out[t - done[0] - 1, r] = np.inf
            done[0] += len(out)
        return out

    monkeypatch.setattr(cheeger, "penalty_h", poisoned)


def _lose_rank(monkeypatch, t, r):
    """Zero the first R diagonal entry of restart r at iteration t."""
    real = cheeger._sign_fixed_qr
    calls = [0]

    def deficient(a):
        q, f = real(a)
        calls[0] += 1
        if calls[0] == t:
            f = f.copy()
            f[r, 0, 0] = 0.0
        return q, f

    monkeypatch.setattr(cheeger, "_sign_fixed_qr", deficient)


class TestSolverRefusalOrder:
    """The block raises what the step-by-step loop raised first: at the
    first failing iteration, a rank loss before a non-finite value, and the
    first non-finite restart."""

    @pytest.fixture(params=[1, 3, None], ids=["block-1", "block-3", "one-block"])
    def blocks(self, request, monkeypatch):
        span = POISON_CFG.max_iters + 7 if request.param is None else request.param
        monkeypatch.setattr(cheeger, "SOLVER_BLOCK_BYTES",
                            _block_bytes(POISON_GRAPH, 2, POISON_CFG, span))

    def test_non_finite_mid_block(self, monkeypatch, blocks):
        # iteration 5 is the middle of the second block of three
        _poison_values(monkeypatch, [(8, 0), (5, 3), (5, 1)])
        with pytest.raises(GeometryError, match=r"^non-finite objective at restart 1, iter 5$"):
            solve_relaxation(POISON_GRAPH, 2, POISON_CFG)

    def test_earlier_rank_loss_wins(self, monkeypatch, blocks):
        _lose_rank(monkeypatch, 4, 2)
        _poison_values(monkeypatch, [(5, 0)])
        with pytest.raises(FrameError, match="rank-deficient step: QR retraction undefined"):
            solve_relaxation(POISON_GRAPH, 2, POISON_CFG)

    def test_rank_loss_wins_within_an_iteration(self, monkeypatch, blocks):
        _lose_rank(monkeypatch, 5, 4)
        _poison_values(monkeypatch, [(5, 1)])
        with pytest.raises(FrameError, match="rank-deficient"):
            solve_relaxation(POISON_GRAPH, 2, POISON_CFG)

    def test_earlier_non_finite_wins(self, monkeypatch, blocks):
        _lose_rank(monkeypatch, 6, 1)
        _poison_values(monkeypatch, [(4, 0)])
        with pytest.raises(GeometryError, match=r"^non-finite objective at restart 0, iter 4$"):
            solve_relaxation(POISON_GRAPH, 2, POISON_CFG)
