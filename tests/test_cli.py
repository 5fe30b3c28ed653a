"""Command-line front end tests: exit codes, report schema, determinism."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sharpmin
import sharpmin.cheeger as cheeger
import sharpmin.cli as cli
import sharpmin.cones as cones
import sharpmin.fixtures as fixtures
from sharpmin.manifolds import STACK_BYTES
from sharpmin.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, build_parser, run
from sharpmin.stiefel import FrameError
from helpers import arc_chordal_distance

C4 = "p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n"


@pytest.fixture
def c4_file(tmp_path):
    f = tmp_path / "c4.txt"
    f.write_text(C4)
    return str(f)


def run_captured(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExact:
    def test_c4_prints_value(self, capsys, c4_file):
        code, out, _ = run_captured(capsys, ["exact", "--graph", c4_file, "--k", "2"])
        assert code == EXIT_OK
        assert out.startswith("2.8284271")

    def test_budget_refusal(self, capsys, c4_file):
        code, out, err = run_captured(
            capsys, ["exact", "--graph", c4_file, "--k", "2", "--budget", "10"])
        assert code == EXIT_BUDGET
        report = json.loads(out)
        assert report["exit_code"] == EXIT_BUDGET
        assert "budget" in report["reason"]


class TestUsageErrors:
    def test_missing_graph_file(self, capsys):
        code, out, err = run_captured(capsys, ["relax", "--graph", "missing.txt", "--k", "2"])
        assert code == EXIT_USAGE
        assert "not found" in json.loads(out)["reason"]

    def test_missing_required_flag(self, capsys, c4_file):
        code, out, _ = run_captured(capsys, ["exact", "--graph", c4_file])
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, out, _ = run_captured(capsys, ["frobnicate"])
        assert code == EXIT_USAGE

    def test_malformed_graph(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("e 1 1\n")
        code, out, _ = run_captured(capsys, ["exact", "--graph", str(f), "--k", "1"])
        assert code == EXIT_USAGE
        assert "self-loop" in json.loads(out)["reason"]

    def test_k_above_vertex_count(self, capsys, c4_file):
        code, out, err = run_captured(capsys, ["exact", "--graph", c4_file, "--k", "5"])
        assert code == EXIT_USAGE
        assert "k=5" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_budget_refusal_on_huge_vertex_count(self, capsys, tmp_path):
        # 2^20000 has more digits than Python converts to str by default
        f = tmp_path / "wide.txt"
        f.write_text("e 1 20000\n")
        code, out, err = run_captured(capsys, ["exact", "--graph", str(f), "--k", "1"])
        assert code == EXIT_BUDGET
        assert "2^20000" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_budget_gate_builds_no_power(self, tmp_path):
        # 2^(10^12) has about 3 * 10^11 digits: the refusal must not build it.
        # A subprocess under a 2 GiB address-space cap, so that a gate that
        # does build it fails fast instead of taking the machine's memory.
        f = tmp_path / "wide.txt"
        f.write_text("p 1000000000000 0\n")
        cap = 2 << 30
        env = dict(os.environ, PYTHONPATH=str(Path(sharpmin.__file__).resolve().parent.parent),
                   OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "sharpmin.cli", "exact", "--graph", str(f), "--k", "1"],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert out.returncode == EXIT_BUDGET, out.stderr
        assert "2^1000000000000 assignments" in json.loads(out.stdout)["reason"]

    def test_relax_refuses_oversized_frame_stack(self, tmp_path):
        # 20 restart frames of 10^12 x 1 need 160 TB: refused (exit 3)
        # before any array is built.  A subprocess under a 2 GiB address-space
        # cap, so that a regression fails fast with a MemoryError instead.
        f = tmp_path / "wide.txt"
        f.write_text("p 1000000000000 0\n")
        cap = 2 << 30
        env = dict(os.environ, PYTHONPATH=str(Path(sharpmin.__file__).resolve().parent.parent),
                   OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "sharpmin.cli", "relax", "--graph", str(f), "--k", "1"],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert out.returncode == EXIT_BUDGET, out.stderr
        assert json.loads(out.stdout)["reason"] == (
            "the solver's frame stack needs 160000000000000 bytes, cap is 67108864")

    def test_relax_refuses_oversized_traces(self, c4_file):
        # three traces of 10^12 iterations x 20 restarts need 480 TB: refused
        # (exit 3) before the solver runs, in a subprocess under a 2 GiB
        # address-space cap as above
        cap = 2 << 30
        env = dict(os.environ, PYTHONPATH=str(Path(sharpmin.__file__).resolve().parent.parent),
                   OPENBLAS_NUM_THREADS="1")
        out = subprocess.run(
            [sys.executable, "-m", "sharpmin.cli", "relax", "--graph", c4_file, "--k", "2",
             "--max-iters", "1000000000000"],
            capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert out.returncode == EXIT_BUDGET, out.stderr
        assert json.loads(out.stdout)["reason"] == (
            "the solver's traces need 480000000000000 bytes, cap is 67108864")

    def test_relax_frame_stack_refusal_comes_first(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--restarts", "10000000",
                     "--max-iters", "1000000000000"])
        assert code == EXIT_BUDGET
        assert json.loads(out)["reason"] == (
            "the solver's frame stack needs 640000000 bytes, cap is 67108864")

    def test_relax_refuses_oversized_restart_stack(self, capsys, c4_file):
        code, out, err = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--restarts", "10000000"])
        assert code == EXIT_BUDGET
        assert "640000000 bytes" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_relax_refuses_oversized_edge_differences(self, capsys, tmp_path):
        # K_50 has 1225 edges: B U of 4000 restarts at k = 2 needs 78,400,000
        # bytes, over the cap, while the frames (3.2 MB) and the traces
        # (28.8 MB) are under it; refused (exit 3) before any array is built
        f = tmp_path / "k50.txt"
        f.write_text("p 50 1225\n" + "".join(f"e {u} {v}\n" for u in range(1, 51)
                                             for v in range(u + 1, 51)))
        code, out, err = run_captured(capsys, ["relax", "--graph", str(f), "--k", "2",
                                               "--restarts", "4000", "--no-oracle"])
        assert code == EXIT_BUDGET, err
        assert json.loads(out)["reason"] == (
            "the solver's edge differences need 78400000 bytes, cap is 67108864")

    def test_vertex_count_beyond_array_index(self, capsys, tmp_path):
        f = tmp_path / "huge.txt"
        f.write_text("p 99999999999999999999 0\n")
        code, out, err = run_captured(capsys, ["relax", "--graph", str(f), "--k", "1"])
        assert code == EXIT_USAGE
        assert "largest array index" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_graph_path_is_a_directory(self, capsys, tmp_path):
        code, out, err = run_captured(capsys, ["relax", "--graph", str(tmp_path), "--k", "2"])
        assert code == EXIT_USAGE
        assert "cannot read graph file" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_graph_file_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "utf16.txt"
        f.write_bytes(b"\xff\xfep 2 1\n")
        code, out, err = run_captured(capsys, ["exact", "--graph", str(f), "--k", "1"])
        assert code == EXIT_USAGE
        assert "cannot read graph file" in json.loads(out)["reason"]
        assert "Traceback" not in err

    def test_lemma_without_samples(self, capsys):
        code, out, _ = run_captured(capsys, ["verify-lemma", "--samples", "0"])
        assert code == EXIT_USAGE
        assert "--samples" in json.loads(out)["reason"]

    def test_cones_without_frames_or_covectors(self, capsys):
        code, out, _ = run_captured(
            capsys, ["verify-cones", "--frames", "0", "--covectors", "0"])
        assert code == EXIT_USAGE
        assert "--covectors" in json.loads(out)["reason"]

    @pytest.mark.parametrize("flag,value", [("--alpha", "inf"), ("--alpha", "nan"),
                                            ("--beta", "inf")])
    def test_verify_wsm_non_finite_modulus_or_exponent(self, capsys, flag, value):
        flags = {"--beta": "2", "--alpha": "1", flag: value}
        code, out, err = run_captured(
            capsys, ["verify-wsm", "--n", "4", "--k", "2", "--samples", "20",
                     *[x for item in flags.items() for x in item]])
        assert code == EXIT_USAGE
        assert "finite" in json.loads(out)["reason"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags,reason", [
        (["--alpha", "0"], "modulus must be positive, got 0.0"),
        (["--samples", "0"], "need at least one sample"),
        (["--alpha", "0", "--samples", "0"], "modulus must be positive, got 0.0"),
        (["--beta", "0", "--samples", "0"], "need at least one sample"),
        (["--beta", "0"], "penalty exponent must be positive, got 0.0"),
    ], ids=["alpha", "samples", "alpha-before-samples", "samples-before-beta", "beta"])
    def test_verify_wsm_refusal_order(self, capsys, flags, reason):
        # alpha is refused first, then an empty sample, then beta
        code, out, err = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5", *flags])
        assert code == EXIT_USAGE
        assert json.loads(out)["reason"] == reason
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [["relax", "--k", "2"], ["verify-lemma"],
                                      ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2"]])
    def test_negative_seed_refused_at_parse(self, capsys, c4_file, tmp_path, argv):
        if argv[0] == "relax":
            argv = argv + ["--graph", c4_file]
        out_dir = tmp_path / "out"
        code, out, err = run_captured(capsys, argv + ["--seed", "-1", "--out", str(out_dir)])
        assert code == EXIT_USAGE
        assert "--seed" in json.loads(out)["reason"]
        assert not out_dir.exists()  # refused before any work or report
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,budget", [("exact", "-1"), ("relax", "-5"),
                                                ("report", "-5")])
    def test_negative_budget_refused_at_parse(self, capsys, c4_file, tmp_path, command, budget):
        # a negative budget is a usage error, not a skipped oracle (relax,
        # report) or an enumeration refusal (exact)
        out_dir = tmp_path / "out"
        code, out, err = run_captured(capsys, [command, "--graph", c4_file, "--k", "2",
                                               "--budget", budget, "--out", str(out_dir)])
        assert code == EXIT_USAGE
        assert json.loads(out)["reason"] == (
            f"argument --budget: must be a non-negative integer, got {budget}")
        assert not out_dir.exists()  # refused before any work or report
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_relax_non_finite_penalty_weight(self, capsys, c4_file, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the weight
            code, out, _ = run_captured(
                capsys, ["relax", "--graph", c4_file, "--k", "2", "--penalty-c", value])
        assert code == EXIT_USAGE
        assert "penalty weight must be positive and finite" in json.loads(out)["reason"]

    def test_relax_huge_penalty_weight(self, capsys, c4_file, tmp_path):
        # a weight of 1e200 makes steps with entries past 1e154, whose squared
        # norm overflows; the QR retraction takes them without a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_captured(
                capsys, ["relax", "--graph", c4_file, "--k", "2", "--penalty-c", "1e200",
                         "--restarts", "1", "--max-iters", "3", "--out", str(tmp_path)])
        assert code == EXIT_OK, err
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["C"] == 1e200 and report["max_feasibility_residual"] < 1e-12

    def test_relax_overflowing_penalty_weight_refused(self, capsys, c4_file, tmp_path):
        # C n k = 1.7e308 * 8 passes the largest float
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before numpy sees the weight
            code, out, err = run_captured(
                capsys, ["relax", "--graph", c4_file, "--k", "2", "--penalty-c", "1.7e308",
                         "--restarts", "2", "--max-iters", "5", "--out", str(tmp_path)])
        assert code == EXIT_USAGE, err
        reason = json.loads(out)["reason"]
        assert "penalty weight 1.7e+308 can overflow" in reason
        assert not (tmp_path / "relax_trace.csv").exists()

    def test_relax_largest_penalty_weight(self, capsys, c4_file, tmp_path):
        # n k (max degree + C) <= 2**-10 * max float, with n = 4, k = 2 and degree 2
        largest = 2.0**-10 * sys.float_info.max / 8 - 2.0
        argv = ["relax", "--graph", c4_file, "--k", "2", "--restarts", "3",
                "--max-iters", "40", "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_captured(capsys, argv + ["--penalty-c", repr(largest)])
            assert code == EXIT_OK, err
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["C"] == largest and report["max_feasibility_residual"] < 1e-12
            above = repr(math.nextafter(largest, math.inf))
            code, out, _ = run_captured(capsys, argv + ["--penalty-c", above])
        assert code == EXIT_USAGE
        assert "can overflow" in json.loads(out)["reason"]

    @pytest.mark.parametrize("n,k", [(2, 1), (8, 3)])
    def test_verify_wsm_largest_modulus(self, capsys, n, k):
        # n k alpha**2 <= 2**-10 * max float: the dual candidates' squared
        # norms and the sharpness products stay finite
        largest = math.sqrt(2.0**-10 * sys.float_info.max / (n * k))
        argv = ["verify-wsm", "--n", str(n), "--k", str(k), "--beta", "0.5", "--samples", "20"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_captured(capsys, argv + ["--alpha", repr(largest)])
            assert code in (EXIT_OK, EXIT_VIOLATION), err
            assert json.loads(out)["alpha"] == largest
            above = math.nextafter(largest, math.inf)
            code, out, _ = run_captured(capsys, argv + ["--alpha", repr(above)])
        assert code == EXIT_USAGE
        assert json.loads(out)["reason"] == (
            f"modulus {above} can overflow the dual check; "
            f"the largest at n={n}, k={k} is {largest}")

    def test_verify_wsm_refuses_zero_dimensional_stiefel(self, capsys, monkeypatch):
        # St(1, 1) = {1, -1} has no tangent direction: refused before any draw
        def study(*args, **kwargs):
            raise AssertionError("sampled")
        monkeypatch.setattr(cli.ch, "verify_wsm_sampled", study)
        code, out, err = run_captured(capsys, ["verify-wsm", "--n", "1", "--k", "1",
                                               "--beta", "2"])
        assert code == EXIT_USAGE
        reason = "stiefel(1, 1) is zero-dimensional: no tangent direction to sample"
        assert json.loads(out)["reason"] == reason
        assert err == f"error: {reason}\n"

    @pytest.mark.parametrize("argv,needs,unit", [
        # unit: the bytes of one sample, test point or covector; a covector of
        # verify-cones is scored on 11 scales x (2 probes + 32 directions),
        # and each identity check scores 2 x covectors of them in the plane
        (["verify-wsm", "--n", "8", "--k", "3", "--beta", "0.5", "--samples"],
         "the study's sample stack needs", 8 * 8 * 3),
        (["verify-lemma", "--samples"], "the lemma's test-to-set distance table needs", 8 * 16 * 3),
        (["verify-cones", "--covectors"], "scoring one identity check needs", 8 * 2 * 11 * 34 * 2),
    ], ids=["verify-wsm", "verify-lemma", "verify-cones"])
    def test_sample_budget_past_the_cap_refused(self, capsys, argv, needs, unit):
        count = STACK_BYTES // unit + 1  # one past the cap; refused before any draw
        code, out, err = run_captured(capsys, argv + [str(count)])
        assert code == EXIT_BUDGET, err
        assert json.loads(out)["reason"] == f"{needs} {unit * count} bytes, cap is {STACK_BYTES}"

    def test_relax_negative_iterations(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--max-iters", "-3"])
        assert code == EXIT_USAGE
        assert "max_iters=-3" in json.loads(out)["reason"]


class TestRelax:
    def test_report_schema(self, capsys, c4_file, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--restarts", "5",
                     "--max-iters", "100", "--out", str(out_dir)])
        assert code == EXIT_OK
        report = json.loads((out_dir / "report.json").read_text())
        for key in ("graph", "k", "beta", "C", "seed", "continuous_value",
                    "rounded_parts", "rounded_value", "oracle_value", "gap",
                    "restart_best_values", "oracle_assignments", "trace_csv_path"):
            assert key in report
        # the penalty studies belong to verify-wsm and report, not to relax
        assert "modulus_estimates" not in report and "nc_verdicts" not in report
        assert report["gap"] is not None and report["gap"] >= 0.0
        assert len(report["restart_best_values"]) == 5
        assert min(report["restart_best_values"]) == report["penalized_value"]
        assert report["oracle_assignments"] == 25  # S(5, 3) canonical splits of C4
        trace = (out_dir / "relax_trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,penalty,feasibility_residual"
        assert len(trace) > 1

    def test_beta_study_only(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--beta", "2"])
        assert code == EXIT_USAGE

    def test_csv_format_prints_trace(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--restarts", "3",
                     "--max-iters", "40", "--format", "csv"])
        assert code == EXIT_OK
        # rounded value first (human line), then the requested CSV
        lines = out.splitlines()
        assert lines[1] == "iter,objective,penalty,feasibility_residual"

    def test_no_oracle_is_a_zero_budget(self, capsys, c4_file, tmp_path):
        outputs = []
        for flags in (["--no-oracle"], ["--budget", "0"]):
            out_dir = tmp_path / flags[-1]
            code, _, _ = run_captured(
                capsys, ["relax", "--graph", c4_file, "--k", "2", "--restarts", "3",
                         "--max-iters", "40", "--out", str(out_dir), *flags])
            assert code == EXIT_OK
            outputs.append([(out_dir / name).read_bytes()
                            for name in ("report.json", "relax_trace.csv")])
        assert outputs[0] == outputs[1]
        report = json.loads(outputs[0][0])
        assert report["oracle_value"] is None and report["oracle_assignments"] is None

    def test_explicit_penalty_weight_serializes(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--penalty-c", "9.5",
                     "--restarts", "3", "--max-iters", "40"])
        assert code == EXIT_OK
        report = json.loads(out.split("\n", 1)[1])  # after the value line
        assert report["C"] == 9.5


class TestVerifyLemma:
    def test_pass_and_csv(self, capsys, tmp_path):
        out_dir = tmp_path / "lem"
        code, out, _ = run_captured(
            capsys, ["verify-lemma", "--samples", "150", "--out", str(out_dir)])
        assert code == EXIT_OK
        rows = (out_dir / "lemma_sphere.csv").read_text().splitlines()
        assert rows[0] == "r,worst_deviation"
        assert len(rows) == 5  # header + one row per radius


class TestVerifyWsm:
    def test_beta_two_exits_one_with_witness(self, capsys, tmp_path):
        out_dir = tmp_path / "wsm"
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2",
                     "--samples", "150", "--out", str(out_dir)])
        assert code == EXIT_VIOLATION
        report = json.loads((out_dir / "report.json").read_text())
        assert report["exit_code"] == EXIT_VIOLATION
        assert report["reason"]
        assert report["dual_witness"]["covector"] == [[0.0], [-1.0]]

    def test_smooth_penalty_refuted_just_past_the_refuter_tolerance(self, capsys):
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2", "--alpha", "2e-3"])
        assert code == EXIT_VIOLATION
        assert json.loads(out)["dual_consistent"] is False

    def test_violated_witness_schema(self, capsys):
        # the growth check is global: at (2, 1) it finds the frame
        # (-0.83, 0.56), far from St+, where h_0.5 = 0.910 < dist = 0.939
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5",
                     "--samples", "100", "--seed", "0"])
        assert code == EXIT_VIOLATION
        report = json.loads(out)
        assert report["wsm_status"] == "violated"
        coords, fu, lb, ub = report["wsm_witness"]  # [coords, f, lb, ub]
        (x,), (y,) = coords
        assert (x, y, fu) == pytest.approx((-0.8288, 0.5595, 0.9104), abs=1e-4)
        assert lb == ub == pytest.approx(arc_chordal_distance(math.atan2(y, x)), abs=1e-15)
        assert ub == pytest.approx(0.9386, abs=1e-4)

    @pytest.mark.parametrize("n,k,alpha,violated", [
        (3, 2, 0.70, False), (3, 2, 0.71, True), (3, 3, 0.49, False), (3, 3, 0.51, True)])
    def test_probe_verdict_flips_at_its_closed_form(self, capsys, n, k, alpha, violated):
        # the probes give h / dist = 1/sqrt(2) = 0.7071 when n > k and 1/2
        # when n = k; a large beta keeps every sample's quotient small, so the
        # probes decide whether their own violation is listed
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", str(n), "--k", str(k), "--beta", "2",
                     "--alpha", str(alpha), "--samples", "20"])
        report = json.loads(out)
        assert report["probe_modulus"] == pytest.approx(0.7071067811865476 if n > k else 0.5,
                                                        abs=1e-12)
        listed = "probed sharpness check violated for beta=2.0" in report["violations"]
        assert listed == violated
        assert (report["probe_witness"] is not None) == violated
        assert code == EXIT_VIOLATION  # the dual condition at beta 2 is refuted anyway

    def test_sqrt_with_matching_alpha_passes(self, capsys):
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5",
                     "--alpha", "0.5", "--samples", "150"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dual_consistent"] is True

    def test_small_budget_with_every_sample_inside_keeps_its_verdict(self, capsys):
        # seed 1 draws its one quarter-budget sample inside St+(2, 1): that
        # estimate is inf, and the dual refutation and both sharpness
        # violations are still reported
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2",
                     "--samples", "4", "--seed", "1"])
        assert code == EXIT_VIOLATION
        report = json.loads(out)
        assert report["violations"] == [
            "dual necessary condition refuted for beta=2.0 with alpha=1.0",
            "sampled sharpness check violated for beta=2.0",
            "probed sharpness check violated for beta=2.0"]
        assert report["modulus_trace"][0] == [1, "inf"]

    def test_single_sample_inside_gives_inf_modulus(self, capsys):
        # the one sample lies inside St+, so it breaks nothing; the probe
        # frame (-1, 0) does, at h / dist = 1 / sqrt(2) < alpha = 1
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5",
                     "--samples", "1", "--seed", "1"])
        assert code == EXIT_VIOLATION
        report = json.loads(out)
        assert report["modulus_trace"] == [[1, "inf"]]
        assert report["wsm_witness"] is None
        assert report["violations"] == ["probed sharpness check violated for beta=0.5"]
        assert report["probe_modulus"] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        coords, fu, lb, ub = report["probe_witness"]
        assert (coords, fu) == ([[-1.0], [0.0]], 1.0)
        assert lb == ub == pytest.approx(math.sqrt(2.0), abs=1e-15)


class TestVerifyConesFailures:
    def test_every_check_fails(self, capsys, monkeypatch, tmp_path):
        # each check made to fail through a tolerance or its fixtures:
        # every residual exceeds a negative tolerance, an infinite refutation
        # tolerance refutes nothing, and a zero covector lies in every distance
        # subdifferential
        standard = fixtures.identity_fixtures
        zero_out = [dataclasses.replace(f, cone_sample_out=lambda rng, margin,
                                        c=f.point.coords: np.zeros_like(c))
                    for f in standard()]
        monkeypatch.setattr(cones, "DIRDERIV_TOL", -1.0)
        monkeypatch.setattr(cones, "REFUTE_TOL", math.inf)
        monkeypatch.setattr(fixtures, "identity_fixtures", lambda: zero_out)
        out_dir = tmp_path / "cones"
        code, out, _ = run_captured(
            capsys, ["verify-cones", "--covectors", "2", "--frames", "2", "--format", "csv",
                     "--out", str(out_dir)])
        assert code == EXIT_VIOLATION
        report = json.loads((out_dir / "report.json").read_text())
        assert report["identity_checks"] == [
            {"fixture": name, "inside_checked": 2, "outside_checked": 2, "passed": False}
            for name in ("halfplane", "nonnegative-arc", "fullspace")]
        residuals = [(c["fixture"], c["max_residual"]) for c in report["dirderiv_checks"]]
        assert [name for name, _ in residuals] == ["axis-in-plane", "halfplane",
                                                   "nonnegative-arc"]
        assert all(0.0 <= r <= 5e-2 for _, r in residuals)
        assert [c["passed"] for c in report["dirderiv_checks"]] == [False] * 3
        assert report["pattern_cross_validation"] == {
            "frames_checked": 2, "members_checked": 10, "violators_checked": 5,
            "disagreements": 5}
        violations = [f"distance-subdifferential identity failed on {name}"
                      for name in ("halfplane", "nonnegative-arc", "fullspace")]
        violations += [f"directional-derivative identity residual {r:.3g} on {name}"
                       for name, r in residuals]
        violations.append("5 cone-pattern disagreement(s)")
        assert report["violations"] == violations
        assert (report["exit_code"], report["reason"]) == (EXIT_VIOLATION, "; ".join(violations))
        table = csv_text_rows(("fixture", "max_residual"), residuals)
        assert (out_dir / "dirderiv_residuals.csv").read_text() == table
        assert out == table + f"exit_code,reason\n1,{'; '.join(violations)}\n"


def csv_text_rows(header, rows):
    return "\n".join([",".join(header)] + [f"{a},{b!r}" for a, b in rows]) + "\n"


class TestReportCommand:
    def test_expectations_all_match(self, capsys):
        # the beta=2 refutation is the expected observation here, so the
        # reproduction bundle exits 0 when it is seen
        code, out, _ = run_captured(capsys, ["report"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["mismatches"] == []
        by_beta = report["penalty_threshold"]
        assert by_beta["0.5"]["observed_dual_consistent"] is True
        assert by_beta["2.0"]["observed_dual_consistent"] is False

    def test_subcommands_run_with_their_parser_defaults(self, capsys, c4_file, tmp_path,
                                                        monkeypatch):
        seen = {}
        # every field report reads off a sub-report
        stub = {"violations": [], "dual_consistent": True, "wsm_status": "pass",
                "modulus_trace": []}

        def recorder(command):
            def handler(args):
                seen.setdefault(command, []).append(vars(args))
                return dict(stub), {}
            return handler

        for command in ("verify-lemma", "verify-cones", "verify-wsm", "relax"):
            monkeypatch.setattr(cli, "_run_" + command.replace("-", "_"), recorder(command))
        common = ["--seed", "4", "--format", "csv", "--out", str(tmp_path)]
        graph = ["--graph", c4_file, "--k", "3", "--budget", "1234"]
        run_captured(capsys, ["report", *graph, *common])
        assert seen == {
            "verify-lemma": [vars(build_parser().parse_args(["verify-lemma", *common]))],
            "verify-cones": [vars(build_parser().parse_args(["verify-cones", *common]))],
            "verify-wsm": [vars(build_parser().parse_args(
                ["verify-wsm", "--n", "2", "--k", "1", "--beta", beta, "--samples", "300",
                 *common])) for beta in ("0.5", "2.0")],
            "relax": [vars(build_parser().parse_args(["relax", *graph, *common]))],
        }


class TestOracleDominance:
    @pytest.mark.parametrize("command", ["relax", "report"])
    def test_rounded_value_below_the_oracle_refused(self, capsys, monkeypatch, c4_file, command):
        # an oracle claiming 1e9 is beaten by every rounding; the run's report
        # refuses the pair before any command reads it
        monkeypatch.setattr(cheeger, "exact_cheeger", lambda *args: (1e9, None))
        code, out, err = run_captured(capsys, [command, "--graph", c4_file, "--k", "2"])
        reason = "rounded value beat the enumeration oracle; one of them is wrong"
        assert code == EXIT_USAGE
        assert json.loads(out) == {"exit_code": EXIT_USAGE, "reason": reason}
        assert err == f"error: {reason}\n"


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, c4_file, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run_captured(
                capsys, ["relax", "--graph", c4_file, "--k", "2", "--seed", "3",
                         "--restarts", "5", "--max-iters", "80", "--out", str(d)])
            assert code == EXIT_OK
        assert (dirs[0] / "report.json").read_bytes() == (dirs[1] / "report.json").read_bytes()
        assert (dirs[0] / "relax_trace.csv").read_bytes() == (dirs[1] / "relax_trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# Exit-code contract under random input
# ---------------------------------------------------------------------------

def _mostly(valid, anything):
    """Half the draws from a valid range, half from a wider one with invalid
    values, so that examples reach both the work and the usage checks."""
    return st.one_of(valid, anything)


_GRAPH_LINES = st.one_of(
    st.builds("e {} {}".format, st.integers(1, 4), st.integers(5, 6)),
    st.builds("{} {}".format, st.integers(1, 6), st.integers(1, 6)),
    st.builds("p {} {}".format, st.integers(-1, 7), st.integers(-1, 6)),
    st.builds("e {} {}".format, st.integers(-1, 8), st.integers(-1, 8)),
    st.just("c comment"),
    st.text(alphabet="pec -.x1", max_size=4),  # vertex numbers stay below 10^4
)
_NUMBERS = st.sampled_from(["-1", "0", "0.5", "1", "1e200", "2", "9.5", "nan", "inf", "x"])
_K = _mostly(st.integers(1, 2), st.integers(-1, 5))
# Work budgets are always drawn, small (or invalid), so every example stays
# quick; other flags are drawn or left at their defaults.  ``report`` runs the
# other commands at fixed full budgets, so it is left out.
_BUDGETS = {
    "exact": {"--budget": _mostly(st.integers(100, 5000), st.integers(-1, 5000))},
    "relax": {"--restarts": _mostly(st.just(1), st.integers(-1, 2)),
              "--max-iters": _mostly(st.integers(1, 4), st.integers(-1, 4)),
              "--budget": st.integers(-1, 5000)},
    "verify-lemma": {"--samples": _mostly(st.integers(1, 4), st.integers(-1, 4))},
    "verify-cones": {"--covectors": _mostly(st.just(1), st.integers(-1, 1)),
                     "--frames": _mostly(st.just(1), st.integers(-1, 1))},
    "verify-wsm": {"--samples": _mostly(st.integers(4, 8), st.integers(-1, 8))},
}
_OPTIONAL = {
    "relax": {"--penalty-c": _mostly(st.sampled_from(["2", "9.5"]), _NUMBERS),
              "--no-oracle": st.none()},
    "verify-wsm": {"--alpha": _NUMBERS},
}
_NEARLY_ALWAYS = st.sampled_from([True, True, True, False])
_REQUIRED = {  # drawn nearly always, omitted now and then
    "exact": {"--k": _K},
    "relax": {"--k": _K},
    "verify-wsm": {"--n": _mostly(st.integers(2, 4), st.integers(-1, 9)), "--k": _K,
                   "--beta": _mostly(st.sampled_from(["0.5", "2"]), _NUMBERS)},
}
_TAKES_GRAPH = ("exact", "relax")


@st.composite
def cli_inputs(draw):
    """(argv without --graph and --out, graph text or None for a missing file)."""
    command = draw(st.sampled_from(sorted(_BUDGETS) + ["bogus"]))
    argv = [command]
    for flag, values in _BUDGETS.get(command, {}).items():
        argv += [flag, str(draw(values))]
    for flag, values in _OPTIONAL.get(command, {}).items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    for flag, values in _REQUIRED.get(command, {}).items():
        if draw(_NEARLY_ALWAYS):
            argv += [flag, str(draw(values))]
    argv += ["--format", draw(st.sampled_from(["json", "csv"])), "--seed",
             str(draw(_mostly(st.integers(0, 3), st.integers(-3, 3))))]
    graph = None
    if command in _TAKES_GRAPH and draw(_NEARLY_ALWAYS):
        graph = "\n".join(draw(st.lists(_GRAPH_LINES, max_size=8)))
    return argv, graph


@given(cli_inputs())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_cli_keeps_exit_contract(inputs):
    """Any command line and graph text ends in exit 0-3 without a traceback,
    and every nonzero exit leaves a JSON reason: in report.json under --out,
    or on stdout when the flags did not parse."""
    argv, graph = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] in _TAKES_GRAPH:
            graph_file = tmp / "graph.txt"
            if graph is not None:
                graph_file.write_text(graph)
            argv = argv + ["--graph", str(graph_file)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. duplicate edges collapsed
            code = run(argv + ["--out", str(tmp / "out")])
        assert code in (EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_BUDGET)
        assert "Traceback" not in err.getvalue()
        report_path = tmp / "out" / "report.json"
        if report_path.exists():
            report = json.loads(report_path.read_text())
        else:
            assert code == EXIT_USAGE, "only a parse failure may skip report.json"
            report = json.loads(out.getvalue())
        assert report["exit_code"] == code
        if code != EXIT_OK:
            assert isinstance(report["reason"], str) and report["reason"]
        if "csv" in argv and code != EXIT_OK and report_path.exists():
            assert csv_reason_without_out(argv) == (code, report["reason"])


def csv_reason_without_out(argv):
    """(exit code, reason) read off stdout when argv runs without --out; in
    CSV a nonzero exit ends stdout with an ``exit_code,reason`` table."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run(argv)
    assert "Traceback" not in err.getvalue()
    header, row = out.getvalue().splitlines()[-2:]
    assert header == "exit_code,reason"
    exit_code, reason = next(csv.reader([row]))
    assert int(exit_code) == code
    return code, reason


class TestCsvReason:
    def test_violation_reason_on_stdout(self):
        code, reason = csv_reason_without_out(
            ["verify-wsm", "--n", "2", "--k", "1", "--beta", "2", "--samples", "20",
             "--format", "csv"])
        assert code == EXIT_VIOLATION
        assert reason.startswith("dual necessary condition refuted")

    def test_usage_reason_with_comma_on_stdout(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("p 2 1\ne 1 3\n")
        code, reason = csv_reason_without_out(
            ["exact", "--graph", str(f), "--k", "1", "--format", "csv"])
        assert code == EXIT_USAGE
        assert reason == "edge (1, 3) out of range for n=2 (need 1 <= u < v <= n)"


class TestExitCodeRule:
    """``run`` alone turns a handler's report or exception into the exit code."""

    @pytest.mark.parametrize("error,code,label", [
        (cli.UsageError, EXIT_USAGE, "usage error"),
        (sharpmin.BudgetExceededError, EXIT_BUDGET, "budget refusal"),
        (sharpmin.GraphFormatError, EXIT_USAGE, "error"),
        (sharpmin.GeometryError, EXIT_USAGE, "error"),
        (FrameError, EXIT_USAGE, "error"),
    ], ids=lambda x: getattr(x, "__name__", None))
    def test_refusal_table(self, capsys, monkeypatch, tmp_path, error, code, label):
        def handler(args):
            raise error("the reason, with a comma")
        monkeypatch.setitem(cli._HANDLERS, "verify-lemma", handler)
        out_dir = tmp_path / "out"
        got, out, err = run_captured(capsys, ["verify-lemma", "--out", str(out_dir)])
        assert got == code
        report = {"exit_code": code, "reason": "the reason, with a comma"}
        assert json.loads(out) == report
        assert json.loads((out_dir / "report.json").read_text()) == report
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]
        assert err == f"{label}: the reason, with a comma\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("report,code,reason", [
        ({"violations": ["a", "b"]}, EXIT_VIOLATION, "a; b"),
        ({"mismatches": ["c"]}, EXIT_VIOLATION, "c"),
        ({"violations": []}, EXIT_OK, None),
        ({"mismatches": []}, EXIT_OK, None),
        ({}, EXIT_OK, None),
    ])
    def test_code_follows_the_report_lists(self, capsys, monkeypatch, report, code, reason):
        monkeypatch.setitem(cli._HANDLERS, "verify-lemma", lambda args: (dict(report), {}))
        got, out, err = run_captured(capsys, ["verify-lemma"])
        assert got == code
        assert json.loads(out) == report | {"exit_code": code, "reason": reason}
        assert err == ("" if reason is None else f"violation: {reason}\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out_is_a_usage_refusal(self, capsys, tmp_path, fmt):
        # the work is done, then --out names a path under a regular file
        (tmp_path / "afile").write_text("")
        out_dir = tmp_path / "afile" / "sub"
        got, out, err = run_captured(capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta",
                                              "0.5", "--samples", "20", "--format", fmt,
                                              "--out", str(out_dir)])
        reason = f"cannot write --out {out_dir}: Not a directory"
        assert got == EXIT_USAGE
        if fmt == "json":
            report = json.loads(out)
            assert report["command"] == "verify-wsm"
            assert (report["exit_code"], report["reason"]) == (EXIT_USAGE, reason)
        else:
            assert out.endswith(f"exit_code,reason\n{EXIT_USAGE},{reason}\n")
        assert err == f"error: {reason}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("failing", ["write", "flush"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_stdout_is_a_usage_refusal(self, capsys, monkeypatch, failing, fmt):
        # a full disk refuses the report on write, or on flush when stdout buffers it
        class FullStdout(io.StringIO):
            def write(self, text):
                if failing == "write":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(text)

            def flush(self):
                if failing == "flush":
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(sys, "stdout", FullStdout())
        got = run(["verify-lemma", "--samples", "20", "--format", fmt])
        captured = capsys.readouterr()
        assert got == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == "error: cannot write stdout: No space left on device\n"

    def test_unwritable_stdout_keeps_the_checks_reason(self, capsys, monkeypatch, tmp_path):
        # the stdout failure sets the code; the check's reason follows it on
        # stderr, and the report already under --out keeps the check's code
        class FullStdout(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setitem(cli._HANDLERS, "verify-lemma",
                            lambda args: ({"violations": ["a", "b"]}, {}))
        monkeypatch.setattr(sys, "stdout", FullStdout())
        got = run(["verify-lemma", "--out", str(tmp_path)])
        assert got == EXIT_USAGE
        assert capsys.readouterr().err == ("error: cannot write stdout: No space left on device\n"
                                           "violation: a; b\n")
        assert json.loads((tmp_path / "report.json").read_text()) == {
            "violations": ["a", "b"], "exit_code": EXIT_VIOLATION, "reason": "a; b"}

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_full_device_on_stdout_exits_2(self, unbuffered):
        # the console entry point: a buffered stdout keeps the report after the
        # failed flush, and the interpreter's last flush must not change the code
        env = dict(os.environ, PYTHONPATH=str(Path(sharpmin.__file__).resolve().parent.parent),
                   PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "w") as full:
            out = subprocess.run(
                [sys.executable, "-m", "sharpmin.cli", "verify-lemma", "--samples", "20"],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=env)
        assert out.returncode == EXIT_USAGE
        assert out.stderr == "error: cannot write stdout: No space left on device\n"


def test_cli_import_loads_no_scipy():
    # scipy is a dev-only dependency: the command line must start without it
    src = Path(sharpmin.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sharpmin.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
