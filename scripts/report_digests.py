#!/usr/bin/env python3
"""Print a sha256 digest of every output of the benchmark jobs.

For each seed, builds the job lists of the three benchmark workloads with
``perfbench/jobs.build`` (the 14 jobs the benchmark runs), adds
``report --graph C4 --k 2``, runs every job in-process through
``sharpmin.cli.run`` with ``--out`` set to a scratch directory, and prints
one line per output file and per captured stdout:

    <sha256>  seed<seed>/<job label>/<file name or "stdout">

Two trees produce byte-identical outputs exactly when their digest lists are
equal, so comparing them is a ``diff`` of two runs:

    python3 scripts/report_digests.py --seeds 1 301 > after.txt

``sharpmin`` is imported from the ``src/`` directory next to this script.
``--smoke`` builds the benchmark's self-test job lists instead and leaves out
the ``report`` job.
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
from sharpmin.cli import run  # noqa: E402

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 4 1\n"


def job_lists(seed: int, scratch: Path, smoke: bool) -> list:
    """(label, argv) for every job of one seed."""
    out = []
    for name in jobs.WORKLOADS:
        for i, job in enumerate(jobs.build(name, seed, scratch / "graphs", smoke=smoke)):
            out.append((f"{name}/{i}-{job.argv[0]}", job.argv))
    if not smoke:
        c4 = scratch / "graphs" / "c4.txt"
        c4.write_text(C4)
        out.append(("report-c4", ["report", "--graph", str(c4), "--k", "2",
                                  "--seed", str(seed)]))
    return out


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
