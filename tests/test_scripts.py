"""Smoke tests of the scripts under ``scripts/``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^[0-9a-f]{64}  seed(\d+)/([\w-]+/\d+-[\w-]+)/([\w.]+)$")


def _script(name, *args):
    """Run scripts/<name> with ``sharpmin`` importable from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=300, env=env)


def test_report_digests_smoke():
    # seed 1 runs again after seed 2 in the same process: no cached table or
    # sampler state may carry from one job to the next
    out = _script("report_digests.py", "--smoke", "--seeds", "1", "2", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    parsed = [LINE.match(line) for line in lines]
    assert all(parsed), [line for line, m in zip(lines, parsed) if not m]
    blocks = [[line for line, m in zip(lines, parsed) if m[1] == seed] for seed in ("1", "2")]
    first, again = blocks[0][:len(blocks[0]) // 2], blocks[0][len(blocks[0]) // 2:]
    assert first == again
    lines = first + blocks[1]
    parsed = [LINE.match(line) for line in lines]
    digest = {(m[1], m[2], m[3]): line[:64] for line, m in zip(lines, parsed)}
    jobs = sorted({(seed, job) for seed, job, _ in digest})
    # the smoke lists: one relax job per cluster workload, lemma, cones, two wsm
    assert [job for seed, job in jobs if seed == "1"] == [
        "cluster-large/0-relax", "cluster-small/0-relax", "verify/0-verify-lemma",
        "verify/1-verify-cones", "verify/2-verify-wsm", "verify/3-verify-wsm"]
    for seed, job in jobs:
        assert (seed, job, "report.json") in digest
        if job.startswith("verify/"):  # JSON stdout is the report itself
            assert digest[seed, job, "stdout"] == digest[seed, job, "report.json"]
    assert digest["1", "verify/0-verify-lemma", "report.json"] != \
        digest["2", "verify/0-verify-lemma", "report.json"]


def test_report_digests_refusal_jobs(tmp_path):
    # each refusal job of the digest check ends as listed, and no reason holds
    # the scratch directory's path
    probe = (
        "import contextlib, io, json, runpy, sys\n"
        "from pathlib import Path\n"
        "script = runpy.run_path(sys.argv[1])\n"
        "graphs = Path(sys.argv[2])\n"
        "(graphs / 'c4.txt').write_text(script['C4'])\n"
        "(graphs / 'out_of_range.txt').write_text(script['OUT_OF_RANGE'])\n"
        "for label, argv in script['refusal_jobs'](1, graphs):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = script['run'](argv)\n"
        "    print(json.dumps([label, code, out.getvalue()]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "scripts" / "report_digests.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=300,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    # parse x 2, usage x 2, budget x 6, graph format x 2, geometry x 7, violation
    codes = [2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 2, 2, *[2] * 7, 1]
    assert [code for _, code, _ in rows] == [c for c in codes for _ in ("json", "csv")]
    for i, (label, code, stdout) in enumerate(rows):
        assert label.startswith(f"refusal/{i}-")
        assert str(tmp_path) not in stdout
        if i % 2 == 0 or i < 4:  # JSON, and every parse refusal: the report itself
            assert json.loads(stdout)["exit_code"] == code
        else:  # CSV: the reason table closes stdout
            assert stdout.splitlines()[-2] == "exit_code,reason"


def test_report_digests_exact_jobs(tmp_path):
    # the exact jobs of the digest check succeed, each enumeration splits into
    # several oracle blocks, and at n = 13 the edges are of all three kinds
    probe = (
        "import contextlib, io, json, runpy, sys\n"
        "from pathlib import Path\n"
        "from sharpmin.cheeger import _oracle_blocks, load_graph\n"
        "script = runpy.run_path(sys.argv[1])\n"
        "for label, argv in script['exact_jobs'](1, Path(sys.argv[2])):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = script['run'](argv)\n"
        "    graph = load_graph(Path(argv[argv.index('--graph') + 1]).read_text())\n"
        "    k = int(argv[argv.index('--k') + 1])\n"
        "    hi = next(_oracle_blocks(graph, k))[0].size\n"
        "    kinds = sorted({(u <= hi) + (v <= hi) for u, v in graph.edges})\n"
        "    print(json.dumps([label, code, graph.n, k, hi, kinds]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe, str(ROOT / "scripts" / "report_digests.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=300,
                          env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [row[:4] for row in rows] == [["exact/0-cluster-small", 0, 11, 2],
                                         ["exact/1-cluster-small", 0, 10, 3],
                                         ["exact/2-n13-k2", 0, 13, 2]]
    assert [row[4] for row in rows] == [3, 4, 5]
    assert rows[2][5] == [0, 1, 2]
