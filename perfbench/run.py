"""sharpmin benchmark: CLI job latency, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload cluster-small --seed 1 --seconds 36 --trace 0

It imports ``sharpmin.cli`` from ``src/``, writes the workload's seeded graph
files, and runs the workload's job list as in-process ``sharpmin.cli.run``
calls, each with ``--out`` set to a scratch directory, checking every
report.  The first pass over the job list always runs whole; after it, jobs
repeat in list order while the next one is expected to end within
``--seconds``.  While each job runs, a fixed reference kernel that calls no
sharpmin code is timed every 50 ms, and the job's wall time is reported in
units of the kernel's median time, which cancels most of the drift in the
speed of a shared machine; set-up time is scaled the same way by a fresh
interpreter that imports only sharpmin's dependencies.  ``--trace 1`` instead
runs one pass in which every job runs untraced and then traced, checks that
both write the same bytes, and reports per-layer call counts and self times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every value is also
printed above it by name with its unit; a results file with the machine facts
and per-job rows goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_ROOT = Path(".perfbench_out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# setup_s is set-up time on a clock where the start-up reference below takes
# this long, about its median on the 2-vCPU machine of perfbench/README.md.
SETUP_REF_NOMINAL_S = 0.4

SAMPLE_INTERVAL_S = 0.05  # how often the speed sampler times the reference kernel
REF_LOOP = 1500

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "peak_rss_mb": "MB",
}
# Printed and written to the results file, not declared: raw wall-clock
# figures that follow the machine's drift.
RAW_TIMINGS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "ref_ms": "ms",
               "setup_raw_s": "s", "setup_ref_s": "s"}


def _layer(fns, *stats: str) -> list:
    fns = (fns,) if isinstance(fns, str) else fns
    return [f"{fn}.{s}" for fn in fns for s in stats]


PER_LAYER_NAMES = (
    _layer("cheeger.wsm_penalty_check", "calls", "self_s")
    + _layer(("wsm.verify_wsm_sampled", "wsm.estimate_modulus", "wsm.check_dual_nc"),
             "calls", "self_s")
    + _layer("wsm.verify_wsm_sampled", "pass_strong", "pass_weak", "violated")
    + _layer("cheeger.dist_upper_estimate", "calls", "self_s", "alternation_errors",
             "bracket_gap_median")
    + _layer(("stiefel.polar_factor", "cheeger.calibrate_penalty_weight"), "calls", "self_s")
    + _layer("cheeger.exact_cheeger", "calls", "self_s", "assignments")
    + _layer("cheeger.solve_relaxation", "self_s", "oracle_matches")
    + _layer(("cheeger.riemannian_subgradient", "cheeger.grad_norm_l1", "cheeger.penalty_h",
              "stiefel.qr_retract", "stiefel.frame_residual", "cheeger.round_solution",
              "cheeger.cut_boundary"), "calls", "self_s")
    + _layer(("cones.frechet_subdiff_refute", "cones.frechet_normal_refute"),
             "calls", "self_s", "refuted")
    + _layer("cones.frechet_subdiff_refute", "skipped_samples")
    + _layer(("cones.contingent_derivative", "cones.contingent_cone_distance",
              "cones.stiefel_plus_normal_cone"), "calls", "self_s")
    + _layer(("cones.cross_validate_pattern_cone",), "self_s")
    + ["manifolds.Point.validations", "manifolds.Tangent.validations"]
    + _layer(("manifolds.exp_map", "manifolds.retract"), "calls", "self_s")
    + _layer(("manifolds.verify_local_distance_lemma", "cli.run", "cli.emit_report"), "self_s")
    + ["trace.overhead_ratio"]
)

_STAT_UNITS = {  # stat -> (unit, better); every other stat is a count where lower is better
    "self_s": ("s", "lower"),
    "bracket_gap_median": ("distance", "lower"),
    "overhead_ratio": ("ratio", "lower"),
    "oracle_matches": ("count", "higher"),
    "pass_strong": ("count", "higher"),
    "refuted": ("count", "higher"),
}
PER_LAYER = {name: _STAT_UNITS.get(name.rsplit(".", 1)[1], ("count", "lower"))
             for name in PER_LAYER_NAMES}


# ---------------------------------------------------------------------------
# machine facts


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS bundled with numpy, read as it is
    (never set); 'unknown' when numpy ships no OpenBLAS."""
    import numpy

    libs = sorted(Path(numpy.__file__).parent.parent.glob("numpy.libs/*openblas*.so*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# reference kernel


_REF_MATRIX = np.linspace(0.1, 1.9, 18).reshape(6, 3)


def reference_kernel() -> int:
    """Fixed work in the program's mix, an interpreter loop and one small QR,
    touching no sharpmin code and no random state."""
    s = 0
    for i in range(REF_LOOP):
        s += i * i % 7
    np.linalg.qr(_REF_MATRIX)
    return s


def _kernel_s() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``reference_kernel`` from a SIGALRM handler every
    SAMPLE_INTERVAL_S seconds while a job runs.

    The handler runs on the main thread between bytecodes, so each sample
    sees the machine speed the job sees at that moment; the median sample
    is the job's reference time.  ``spent`` is the handlers' total time, which
    the caller subtracts from the job's wall time.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_kernel_s())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, 0.001, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_s(self) -> float:
        """Median sample; a job that ended before the first tick gets one
        sample taken now."""
        return statistics.median(self.samples or [_kernel_s()])


# ---------------------------------------------------------------------------
# set-up


_SETUP_CHILD = """
import sys
sys.path[:0] = [sys.argv[1], 'src']
import sharpmin.cli
import jobs
from pathlib import Path
jobs.build(sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]), smoke=sys.argv[5] == '1')
sys.stdout.write('ready\\n')
sys.stdout.flush()
"""


# A fresh interpreter that only imports sharpmin's third-party dependencies:
# start-up work of the same kind as the set-up's, outside the program, timed
# next to each set-up as its reference.
_REF_SETUP_CHILD = """
import sys
import numpy
import scipy.linalg
sys.stdout.write('ready\\n')
sys.stdout.flush()
"""


def time_to_ready(argv: list) -> float:
    """Wall time from starting ``argv`` to its 'ready' line; the child is
    waited for, and killed if it outlives SETUP_TIMEOUT_S."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up child failed with exit code {code}")
    return ready


def timed_setups(workload: str, seed: int, run_dir: Path, smoke: bool) -> list:
    """SETUP_REPEATS pairs (set-up, reference): the wall time for a fresh
    interpreter to import sharpmin.cli and write the workload's graph files,
    and right after it the wall time of ``_REF_SETUP_CHILD``."""
    pairs = []
    for i in range(SETUP_REPEATS):
        setup = time_to_ready([sys.executable, "-c", _SETUP_CHILD, str(HERE), workload,
                               str(seed), str(run_dir / f"setup-graphs-{i}"),
                               "1" if smoke else "0"])
        pairs.append((setup, time_to_ready([sys.executable, "-c", _REF_SETUP_CHILD])))
    return pairs


# ---------------------------------------------------------------------------
# jobs


class JobRunner:
    def __init__(self, cli, scratch: Path):
        self.cli = cli
        self.scratch = scratch
        self.rows: list = []  # one dict per cli.run call

    def run(self, index: int, job: jobs.Job, tag: str, sampler=None) -> dict:
        """One timed ``cli.run`` call: output capture, report read and check
        are inside the timing.  With a ``SpeedSampler`` the row also gets the
        job's reference time, and the sampler's own time is left out of the
        job's."""
        out = self.scratch / f"{index}-{tag}"
        if out.exists():
            shutil.rmtree(out)
        sink = io.StringIO()
        problems, report, code = [], None, None
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.run([*job.argv, "--out", str(out)])
                report_path = out / "report.json"
                if report_path.exists():
                    report = json.loads(report_path.read_text())
                problems = jobs.check(job, code, report)
            except Exception:  # a job that raises is a failed job, never a crash
                problems = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
            wall = time.perf_counter() - t0
        row = {"job": index, "tag": tag, "argv": job.argv, "exit_code": code,
               "wall_s": wall, "failed": bool(problems), "problems": problems,
               "oracle_match": jobs.oracle_match(report),
               "wsm_status": (report or {}).get("wsm_status"), "out": out}
        if sampler is not None:
            row["wall_s"] = wall - sampler.spent
            row["ref_s"] = sampler.reference_s()
            row["ref_samples"] = len(sampler.samples)
            row["sampler_s"] = sampler.spent
        self.rows.append(row)
        return row


def outputs_identical(a: Path, b: Path) -> bool:
    files_a = sorted(p.name for p in a.iterdir()) if a.exists() else []
    files_b = sorted(p.name for p in b.iterdir()) if b.exists() else []
    return files_a == files_b and all(
        (a / f).read_bytes() == (b / f).read_bytes() for f in files_a)


def per_job(rows: list, values: list, stat) -> float:
    """Geometric mean over the job list of ``stat`` (median or max) of each
    job's values, so that the figure does not depend on how many times each
    job fitted in the window."""
    by_job = {}
    for row, value in zip(rows, values):
        by_job.setdefault(row["job"], []).append(value)
    logs = [math.log(stat(v)) for v in by_job.values()]
    return math.exp(sum(logs) / len(logs))


def tail_percentile(times: list) -> tuple:
    """(value, percentile, beyond): the highest nearest-rank percentile with at
    least ten samples above it; with fewer than 11 samples no percentile has
    ten beyond it, and the maximum is returned with the count beyond it (0)."""
    xs = sorted(times)
    n = len(xs)
    if n >= 11:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 out_root: Path) -> dict:
    run_dir = out_root / f"run-{os.getpid()}-{name}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        return _run_workload(name, seed, seconds, trace, smoke, out_root, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, smoke, out_root, run_dir) -> dict:
    import sharpmin.cli as cli

    graph_dir = run_dir / "graphs"
    job_list = jobs.build(name, seed, graph_dir, smoke=smoke)
    setups = timed_setups(name, seed, run_dir, smoke)
    runner = JobRunner(cli, run_dir / "out")
    tracer = Tracer() if trace else None
    overhead = None

    t_start = time.perf_counter()
    passes = 0
    if not trace:
        last_wall = {}  # job index -> wall time of its latest run
        sampler = SpeedSampler()
        for _ in range(20):  # warm-up
            reference_kernel()
        count = 0
        while True:
            i = count % len(job_list)
            if count >= len(job_list):  # the first pass always runs whole
                if time.perf_counter() - t_start + last_wall[i] > seconds:
                    break
            row = runner.run(i, job_list[i], "run", sampler)
            last_wall[i] = row["wall_s"] + row["sampler_s"]
            count += 1
        passes = count / len(job_list)
    else:
        plain_s = traced_s = 0.0
        for i, job in enumerate(job_list):
            plain = runner.run(i, job, "plain")
            tracer.job_id = i
            tracer.install()
            try:
                traced = runner.run(i, job, "traced")
            finally:
                tracer.uninstall()
            plain_s += plain["wall_s"]
            traced_s += traced["wall_s"]
            if not outputs_identical(plain["out"], traced["out"]):
                traced["failed"] = True
                traced["problems"].append("traced outputs differ from untraced outputs")
        passes = 1
        overhead = traced_s / plain_s
    timed_phase = time.perf_counter() - t_start

    rows = runner.rows
    attempted = len(rows)
    failed = sum(r["failed"] for r in rows)
    times = [r["wall_s"] for r in rows if r["tag"] != "traced"]
    tail, tail_pct, tail_beyond = tail_percentile(times)
    relax_rows = [r for r in rows if r["argv"][0] == "relax" and "--no-oracle" not in r["argv"]]
    status_counts = {}
    for r in rows:
        if r["wsm_status"] is not None:
            status_counts[r["wsm_status"]] = status_counts.get(r["wsm_status"], 0) + 1
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "passes": passes,
        "jobs_per_pass": len(job_list),
        "attempted": attempted,
        "failed": failed,
        "timed_phase_s": timed_phase,
        "setup_samples_s": [setup for setup, _ in setups],
        "setup_ref_samples_s": [ref for _, ref in setups],
        "job_samples": len(times),
        "tail_percentile": tail_pct,
        "tail_beyond": tail_beyond,
        "fail_frac": failed / attempted,
        "oracle_match_frac": (sum(r["oracle_match"] for r in relax_rows) / len(relax_rows)
                              if relax_rows else None),
        "oracle_compared": len(relax_rows),
        "wsm_status_counts": status_counts,
        "machine": machine_facts(),
        "rows": [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()}
                 for r in rows],
    }
    if not trace:
        rel = [r["wall_s"] / r["ref_s"] for r in rows]
        result["metrics"] = {
            "setup_s": SETUP_REF_NOMINAL_S * statistics.median(
                setup / ref for setup, ref in setups),
            "job_p50_ref": per_job(rows, rel, statistics.median),
            "job_tail_ref": per_job(rows, rel, max),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["raw"] = {
            "jobs_per_s": (attempted - failed) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": tail,
            "ref_ms": 1000.0 * statistics.median(r["ref_s"] for r in rows),
            "setup_raw_s": statistics.median(setup for setup, _ in setups),
            "setup_ref_s": statistics.median(ref for _, ref in setups),
        }
        result["sampler_overhead"] = sum(r["sampler_s"] for r in rows) / timed_phase
    else:
        stats = tracer.layer_stats()
        values = {}
        for metric in PER_LAYER:
            fn, stat = metric.rsplit(".", 1)
            if stat in ("calls", "self_s"):
                values[metric] = stats.get(fn, {}).get(stat, 0)
            elif stat == "bracket_gap_median":
                values[metric] = tracer.bracket_gap_median()
            elif metric == "trace.overhead_ratio":
                values[metric] = overhead
            elif metric == "cheeger.solve_relaxation.oracle_matches":
                values[metric] = sum(r["oracle_match"] for r in rows if r["tag"] == "traced")
            elif fn == "wsm.verify_wsm_sampled":
                values[metric] = tracer.counters.get(f"{fn}.status.{stat}", 0)
            else:
                values[metric] = tracer.counters.get(metric, 0)
        result["metrics"] = values
        spans_path = out_root / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path)
    return result


# ---------------------------------------------------------------------------
# output


def print_result(result: dict) -> None:
    m = result["metrics"]
    mach = result["machine"]
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}  "
          f"passes={result['passes']} x {result['jobs_per_pass']} jobs  "
          f"attempted={result['attempted']}  failed={result['failed']}")
    print(f"   machine: nproc={mach['nproc']} python={mach['python']} numpy={mach['numpy']} "
          f"blas_threads={mach['blas_threads']}")
    if not result["trace"]:
        n = result["job_samples"]
        tail_note = (f"  (p{result['tail_percentile']:.1f}, {result['tail_beyond']} beyond, "
                     f"n={n})")
        notes = {
            "setup_s": f"  (median of {len(result['setup_samples_s'])} fresh interpreters, "
                       f"scaled to a {SETUP_REF_NOMINAL_S} s start-up reference)",
            "setup_raw_s": "  (median, unscaled)",
            "setup_ref_s": "  (median of the numpy-only start-up reference)",
            "job_p50_ref": f"  (per-job medians, geometric mean over "
                           f"{result['jobs_per_pass']} jobs; n={n})",
            "job_tail_ref": f"  (per-job maxima, geometric mean over "
                            f"{result['jobs_per_pass']} jobs; n={n})",
            "job_p50_s": f"  (n={n})",
            "job_tail_s": tail_note,
            "ref_ms": f"  (reference kernel, median over the run; sampler took "
                      f"{100 * result.get('sampler_overhead', 0):.2f}% of the timed phase)",
        }
        shown = [(name, m[name], unit) for name, unit in END_TO_END.items()]
        shown += [(name, result["raw"][name], unit) for name, unit in RAW_TIMINGS.items()]
        for name, value, unit in shown:
            print(f"   {name:<20} {value:>12.6g} {unit}{notes.get(name, '')}")
    print(f"   {'fail_frac':<20} {result['fail_frac']:>12.6g} ratio  "
          f"({result['failed']}/{result['attempted']})")
    if result["oracle_match_frac"] is not None:
        print(f"   {'oracle_match_frac':<20} {result['oracle_match_frac']:>12.6g} ratio  "
              f"(of {result['oracle_compared']} relax jobs)")
    if result["wsm_status_counts"]:
        print(f"   wsm_status counts: {result['wsm_status_counts']}")
    if result["trace"]:
        for name, (unit, _) in PER_LAYER.items():
            print(f"   {name:<52} {m[name]:>14.6g} {unit}")
    for r in result["rows"]:
        if r["failed"]:
            print(f"   FAILED job {r['job']} ({r['tag']}): {' '.join(r['argv'])}: "
                  f"{'; '.join(r['problems'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*jobs.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny job lists (self-test only; not comparable)")
    args = ap.parse_args(argv)

    if not (Path("src") / "sharpmin" / "cli.py").is_file():
        print("error: run from the repository root (src/sharpmin/cli.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import sharpmin.cli  # noqa: F401  (import once, before any timing)

    OUT_ROOT.mkdir(exist_ok=True)
    names = jobs.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke,
                              OUT_ROOT)
        print_result(result)
        path = OUT_ROOT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        results.append(result)

    units = END_TO_END if not args.trace else {k: u for k, (u, _) in PER_LAYER.items()}
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for key, value in r["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": units[key]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
