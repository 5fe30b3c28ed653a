"""Smoke tests of the scripts under ``scripts/``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LINE = re.compile(r"^[0-9a-f]{64}  seed(\d+)/([\w-]+/\d+-[\w-]+)/([\w.]+)$")


def test_report_digests_smoke():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digests.py"), "--smoke",
         "--seeds", "1", "2"],
        capture_output=True, text=True, check=True, timeout=300)
    lines = out.stdout.splitlines()
    parsed = [LINE.match(line) for line in lines]
    assert all(parsed), [line for line, m in zip(lines, parsed) if not m]
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
