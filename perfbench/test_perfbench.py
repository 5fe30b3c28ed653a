"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q

The smoke runs execute every workload with its tiny job list, untraced and
traced, and take about two minutes.
"""

import json
import math
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import jobs
import run
from tracer import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_generators_are_deterministic_under_a_seed():
    for make in (lambda rng: jobs.erdos_renyi(10, 0.4, rng),
                 lambda rng: jobs.planted_partition(120, 4, 0.3, 0.02, rng)):
        a = make(np.random.default_rng(5))
        b = make(np.random.default_rng(5))
        c = make(np.random.default_rng(6))
        assert a == b
        assert a != c
        assert all(1 <= u < v <= a.n for u, v in a.edges)
        assert list(a.edges) == sorted(set(a.edges))


def test_erdos_renyi_matches_the_acceptance_rule():
    g = jobs.erdos_renyi(9, 0.4, np.random.default_rng(12345))
    ref = np.random.default_rng(12345)
    edges = tuple((u, v) for u in range(1, 10) for v in range(u + 1, 10)
                  if ref.uniform() < 0.4)
    assert g.edges == (edges or ((1, 2),))


def test_build_writes_the_same_files_for_the_same_seed(tmp_path):
    for name in ("cluster-small", "cluster-large"):
        a = jobs.build(name, 3, tmp_path / "a")
        b = jobs.build(name, 3, tmp_path / "b")
        assert [j.argv[3:] for j in a] == [j.argv[3:] for j in b]
        for ja, jb in zip(a, b):
            assert Path(ja.argv[2]).read_bytes() == Path(jb.argv[2]).read_bytes()
    v1, v2 = jobs.build("verify", 3, tmp_path), jobs.build("verify", 3, tmp_path)
    assert [j.argv for j in v1] == [j.argv for j in v2]
    assert len(v1) == 2 + 8


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] with children [1, 4] and [5, 9]; the second has a child [6, 8]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    parents = [-1, 0, 0, 2]
    assert self_times(starts, ends, parents).tolist() == [3.0, 3.0, 2.0, 2.0]


def test_self_time_of_a_traced_nested_call():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    inner = tracer.span("m.inner", inner)

    def outer():
        return inner() + inner()

    outer = tracer.span("m.outer", outer)
    outer()
    stats = tracer.layer_stats()
    assert stats["m.outer"]["calls"] == 1 and stats["m.inner"]["calls"] == 2
    assert list(tracer.parent) == [-1, 0, 0]
    total = tracer.end[0] - tracer.start[0]
    inner_total = sum(tracer.end[i] - tracer.start[i] for i in (1, 2))
    assert stats["m.outer"]["self_s"] == pytest.approx(total - inner_total, abs=1e-12)
    assert stats["m.inner"]["self_s"] == pytest.approx(inner_total, abs=1e-12)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct, beyond = run.tail_percentile(list(range(40)))
    assert (value, pct, beyond) == (29, 75.0, 10)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_per_job_figures_ignore_how_often_each_job_ran():
    rows = [{"job": 0}, {"job": 1}, {"job": 0}, {"job": 0}]
    once = run.per_job(rows[:2], [2.0, 8.0], statistics.median)
    assert once == pytest.approx(4.0)
    assert run.per_job(rows, [2.0, 8.0, 2.0, 2.0], statistics.median) == pytest.approx(once)
    assert run.per_job(rows, [2.0, 8.0, 3.0, 2.0], max) == pytest.approx(math.sqrt(24.0))


def test_speed_sampler_collects_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent < 0.3
    assert sampler.reference_s() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_declared_metrics_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)


def _run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_emits_every_metric(trace):
    proc = _run_bench("--workload", "all", "--smoke", "--seconds", "1", "--seed", "0",
                      "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = run.END_TO_END if trace == "0" else run.PER_LAYER
    expected = {f"{w}.{m}" for w in jobs.WORKLOADS for m in names}
    assert set(result["metrics"]) == expected
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if trace == "0":
            assert entry["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench("--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0",
                      cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
