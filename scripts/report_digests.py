#!/usr/bin/env python3
"""Print a sha256 digest of every output of the benchmark jobs.

For each seed, builds the job lists of the three benchmark workloads with
``perfbench/jobs.build`` (the 14 jobs the benchmark runs), adds
``report --graph C4 --k 2``, ``exact`` on each ``cluster-small`` graph and
on a seeded G(13, 0.4) at k = 2 (``exact_jobs``), the ``REFUSALS`` jobs
(refusals and a violation, in JSON and CSV) and the ``WIDE_SEED_JOBS`` at the
five-word seed 2**128 + seed, runs every job in-process through
``sharpmin.cli.run`` with ``--out`` set to a scratch directory, and prints
one line per output file and per captured stdout:

    <sha256>  seed<seed>/<job label>/<file name or "stdout">

Two trees produce byte-identical outputs exactly when their digest lists are
equal, so comparing them is a ``diff`` of two runs:

    python3 scripts/report_digests.py --seeds 1 301 > after.txt

``sharpmin`` is imported from the ``src/`` directory next to this script.
``--smoke`` builds the benchmark's self-test job lists instead and leaves out
the ``report``, ``exact``, ``REFUSALS`` and ``WIDE_SEED_JOBS`` jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import numpy as np  # noqa: E402
from sharpmin.cli import run  # noqa: E402

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"
OUT_OF_RANGE = "p 2 1\ne 1 3\n"

# Jobs that end in a nonzero exit code, each run in JSON and in CSV: every
# row of the command line's refusal table that a flag reaches (no flag
# reaches a FrameError), each sample budget past the stack cap, and a
# refuted dual condition.  No reason holds a temporary path.  "c4.txt" and
# "out_of_range.txt" name the graph files written next to the jobs.
REFUSALS = (
    ["verify-wsm", "--n", "2", "--k", "1"],  # parse: --beta is required
    ["verify-lemma", "--seed", "-1"],  # parse: negative seed
    ["verify-lemma", "--samples", "0"],  # usage: an empty budget
    ["exact", "--graph", "missing.txt", "--k", "2"],  # usage: no graph file
    ["exact", "--graph", "c4.txt", "--k", "2", "--budget", "10"],
    ["relax", "--graph", "c4.txt", "--k", "2", "--restarts", "100000000"],
    ["relax", "--graph", "c4.txt", "--k", "2", "--max-iters", "100000000"],
    ["verify-lemma", "--samples", "1000000"],
    ["verify-cones", "--covectors", "100000"],
    ["verify-wsm", "--n", "8", "--k", "3", "--beta", "0.5", "--samples", "10000000"],
    ["exact", "--graph", "out_of_range.txt", "--k", "1"],  # graph format
    ["relax", "--graph", "c4.txt", "--k", "0"],  # graph format: k out of range
    ["verify-wsm", "--n", "9", "--k", "1", "--beta", "0.5"],  # geometry: not desk-scale
    ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5", "--alpha", "1e300"],  # geometry
    ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2", "--samples", "20"],  # violation
)

# Jobs run at the seed 2**128 + seed, five uint32 words where every other
# job's seed has one: a seed wider than SeedSequence's pool of four words
# shifts the hash constants of the spawn key in every substream.  "c4.txt"
# names the graph file written next to the jobs.
WIDE_SEED_JOBS = (
    ["verify-wsm", "--n", "4", "--k", "2", "--beta", "0.5", "--samples", "20"],
    ["verify-lemma", "--samples", "20"],
    ["relax", "--graph", "c4.txt", "--k", "2"],
)


def job_lists(seed: int, scratch: Path, smoke: bool) -> list:
    """(label, argv) for every job of one seed."""
    out = []
    graphs = scratch / "graphs"
    for name in jobs.WORKLOADS:
        for i, job in enumerate(jobs.build(name, seed, graphs, smoke=smoke)):
            out.append((f"{name}/{i}-{job.argv[0]}", job.argv))
    if not smoke:
        (graphs / "c4.txt").write_text(C4)
        (graphs / "out_of_range.txt").write_text(OUT_OF_RANGE)
        out.append(("report-c4", ["report", "--graph", str(graphs / "c4.txt"), "--k", "2",
                                  "--seed", str(seed)]))
        out += exact_jobs(seed, graphs)
        out += refusal_jobs(seed, graphs)
        wide = str(2**128 + seed)
        out += [(f"wide-seed/{i}-{job[0]}", [*_in_graphs(job, graphs), "--seed", wide])
                for i, job in enumerate(WIDE_SEED_JOBS)]
    return out


def exact_jobs(seed: int, graphs: Path) -> list:
    """(label, argv) running ``exact`` on each ``cluster-small`` graph of the
    seed and on a seeded G(13, 0.4) at k = 2: enumerations split into several
    oracle blocks, the last with a five-vertex prefix, so that its edges are
    prefix-prefix, prefix-suffix and suffix-suffix."""
    cases = [(f"{i}-cluster-small", *(job.argv[job.argv.index(flag) + 1]
                                     for flag in ("--graph", "--k")))
             for i, job in enumerate(jobs.build("cluster-small", seed, graphs))]
    path = graphs / "exact-n13-k2.txt"
    path.write_text(jobs.graph_text(jobs.erdos_renyi(13, 0.4, np.random.default_rng(seed))))
    cases.append((f"{len(cases)}-n13-k2", str(path), "2"))
    return [(f"exact/{name}", ["exact", "--graph", graph, "--k", k, "--seed", str(seed)])
            for name, graph, k in cases]


def refusal_jobs(seed: int, graphs: Path) -> list:
    """(label, argv) for each of the REFUSALS jobs of one seed in JSON, then
    in CSV, reading its graph files from ``graphs``."""
    out = []
    for i, (job, fmt) in enumerate((j, f) for j in REFUSALS for f in ("json", "csv")):
        argv = [job[0], "--seed", str(seed), "--format", fmt, *job[1:]]
        out.append((f"refusal/{i}-{job[0]}", _in_graphs(argv, graphs)))
    return out


def _in_graphs(argv: list, graphs: Path) -> list:
    """argv with the graph file names "c4.txt" and "out_of_range.txt" made
    paths in ``graphs``."""
    return [str(graphs / a) if a in ("c4.txt", "out_of_range.txt") else a for a in argv]


def digests(seed: int, scratch: Path, smoke: bool = False) -> list:
    """(digest, label) lines for every output of one seed's jobs, in job order
    and, within a job, by file name with stdout last."""
    lines = []
    for label, argv in job_lists(seed, scratch, smoke):
        out_dir = scratch / "out" / label
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            run([*argv, "--out", str(out_dir)])
        files = sorted(out_dir.iterdir()) if out_dir.exists() else []
        for path in files:
            lines.append((hashlib.sha256(path.read_bytes()).hexdigest(),
                          f"seed{seed}/{label}/{path.name}"))
        lines.append((hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
                      f"seed{seed}/{label}/stdout"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 301])
    ap.add_argument("--smoke", action="store_true",
                    help="the benchmark's self-test job lists, without the report job")
    args = ap.parse_args(argv)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for digest, label in digests(seed, Path(tmp), args.smoke):
                print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
