"""Workload definitions: seeded input graphs, fixed job lists and the
correctness check applied to every job's report.

The benchmark seed decides the graph edges and each job's ``--seed``; the
sizes and flags of a workload are fixed, so every seed asks for the same
amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("cluster-small", "cluster-large", "verify")

# (n, k) per relax job; cluster-small keeps (k+1)^n <= 1.1M so the oracle runs.
SIZES = {"cluster-small": ((11, 2), (10, 3)), "cluster-large": ((80, 3), (200, 4))}
FLAGS = {
    "cluster-large": ("--restarts", "4"),
    "verify-lemma": ("--samples", "300"),
    "verify-cones": ("--covectors", "20", "--frames", "20"),
    "verify-wsm": ("--samples", "100"),
}
VERIFY_WSM_GRID = ((2, 1), (4, 2), (6, 2), (8, 3))
VERIFY_BETAS = (0.5, 2.0)

# Job lists for the self-test: the same commands at the smallest sizes.
SMOKE_SIZES = {"cluster-small": ((8, 2),), "cluster-large": ((60, 3),)}
SMOKE_FLAGS = {
    "cluster-large": ("--restarts", "1", "--max-iters", "20"),
    "verify-lemma": ("--samples", "40"),
    "verify-cones": ("--covectors", "4", "--frames", "4"),
    "verify-wsm": ("--samples", "20"),
}
SMOKE_WSM_GRID = ((2, 1),)

ORACLE_MATCH_TOL = 1e-12
DOMINANCE_TOL = 1e-9
VALUE_TOL = 1e-9


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # ((u, v), ...) with 1 <= u < v <= n, sorted


def erdos_renyi(n: int, p_edge: float, rng: np.random.Generator) -> Graph:
    """G(n, p) by the rule of the acceptance suite's ``_random_graph``: one
    uniform draw per vertex pair in lexicographic order; an edgeless draw
    becomes the single edge (1, 2)."""
    edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                  if rng.uniform() < p_edge)
    return Graph(n, edges if edges else ((1, 2),))


def planted_partition(n: int, k: int, p_in: float, p_out: float,
                      rng: np.random.Generator) -> Graph:
    """k hidden blocks of near-equal size over a random vertex order; a pair
    is an edge with probability p_in inside a block and p_out across."""
    block = np.empty(n, dtype=int)
    block[rng.permutation(n)] = np.arange(n) % k
    iu, iv = np.triu_indices(n, 1)
    prob = np.where(block[iu] == block[iv], p_in, p_out)
    keep = rng.uniform(size=prob.shape) < prob
    edges = tuple((int(u) + 1, int(v) + 1) for u, v in zip(iu[keep], iv[keep]))
    return Graph(n, edges if edges else ((1, 2),))


def graph_text(g: Graph) -> str:
    return f"p {g.n} {len(g.edges)}\n" + "".join(f"e {u} {v}\n" for u, v in g.edges)


def objective(g: Graph, parts) -> float:
    """Sum over parts of |boundary| / sqrt(|part|), computed here so the
    check does not rely on the code it checks."""
    total = 0.0
    for part in parts:
        members = set(part)
        cut = sum(1 for u, v in g.edges if (u in members) != (v in members))
        total += cut / math.sqrt(len(members))
    return total


@dataclass
class Job:
    argv: list  # CLI arguments without --out; argv[0] is the subcommand
    graph: Graph | None = None
    beta: float | None = None
    oracle: bool = False


def build(name: str, seed: int, graph_dir: Path, smoke: bool = False) -> list:
    """Make the workload's job list from the seed and write its graph files
    under ``graph_dir``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng(seed)

    def cli_seed() -> str:
        return str(int(rng.integers(0, 2**31 - 1)))

    flags = SMOKE_FLAGS if smoke else FLAGS
    job_list = []
    if name == "verify":
        for command in ("verify-lemma", "verify-cones"):
            job_list.append(Job([command, *flags[command], "--seed", cli_seed()]))
        for n, k in SMOKE_WSM_GRID if smoke else VERIFY_WSM_GRID:
            for beta in VERIFY_BETAS:
                job_list.append(Job(["verify-wsm", "--n", str(n), "--k", str(k),
                                     "--beta", str(beta), *flags["verify-wsm"],
                                     "--seed", cli_seed()], beta=beta))
        return job_list

    graph_dir.mkdir(parents=True, exist_ok=True)
    small = name == "cluster-small"
    for i, (n, k) in enumerate((SMOKE_SIZES if smoke else SIZES)[name]):
        if small:
            g = erdos_renyi(n, 0.4, rng)
            extra = ()
        else:
            g = planted_partition(n, k, 0.3, 0.02, rng)
            extra = ("--no-oracle", *flags[name])
        fname = f"{name}-{i}-n{n}-k{k}.txt"
        (graph_dir / fname).write_text(graph_text(g))
        job_list.append(Job(["relax", "--graph", str(graph_dir / fname), "--k", str(k),
                             *extra, "--seed", cli_seed()], graph=g, oracle=small))
    return job_list


def check(job: Job, code: int, report: dict | None) -> list:
    """Problems with one job's outcome; an empty list means it passed."""
    if code not in (0, 1, 2, 3):
        return [f"exit code {code} outside the contract"]
    if report is None:
        return ["no report.json written"]
    if code != 0 and not report.get("reason"):
        return [f"exit {code} without a reason"]
    command = job.argv[0]
    if command == "relax":
        return _check_relax(job, code, report)
    if command == "verify-wsm":
        problems = []
        if code not in (0, 1):
            problems.append(f"verify-wsm exited {code}")
        if (code == 1) != bool(report.get("violations")):
            problems.append("exit code disagrees with the violations list")
        if report.get("dual_consistent") != (job.beta < 1.0):
            problems.append(f"dual_consistent={report.get('dual_consistent')} "
                            f"at beta={job.beta}")
        return problems
    if code != 0 or report.get("violations"):
        return [f"{command} exited {code} with violations {report.get('violations')}"]
    return []


def _check_relax(job: Job, code: int, report: dict) -> list:
    if code != 0:
        return [f"relax exited {code}: {report.get('reason')}"]
    g = job.graph
    k = int(job.argv[job.argv.index("--k") + 1])
    parts = report["rounded_parts"]
    flat = [v for part in parts for v in part]
    if not parts or len(parts) > k or any(not part for part in parts):
        return [f"rounded_parts {parts} is not a sub-partition into at most {k} parts"]
    if len(set(flat)) != len(flat) or not all(1 <= v <= g.n for v in flat):
        return [f"rounded_parts {parts} overlap or leave 1..{g.n}"]
    problems = []
    value = objective(g, parts)
    if abs(value - report["rounded_value"]) > VALUE_TOL * max(1.0, value):
        problems.append(f"rounded_value {report['rounded_value']} != recomputed {value}")
    oracle = report.get("oracle_value")
    if job.oracle:
        if oracle is None:
            problems.append("oracle did not run")
        elif report["rounded_value"] < oracle - DOMINANCE_TOL:
            problems.append(f"rounded_value {report['rounded_value']} beats oracle {oracle}")
    elif oracle is not None:
        problems.append("oracle ran under --no-oracle")
    return problems


def oracle_match(report: dict | None) -> bool:
    return (report is not None and report.get("oracle_value") is not None
            and abs(report["rounded_value"] - report["oracle_value"]) <= ORACLE_MATCH_TOL)
