"""Command-line front end tests: exit codes, report schema, determinism."""

import json

import pytest

from sharpmin.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, run

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

    def test_lemma_without_samples(self, capsys):
        code, out, _ = run_captured(capsys, ["verify-lemma", "--samples", "0"])
        assert code == EXIT_USAGE
        assert "--samples" in json.loads(out)["reason"]

    def test_cones_without_frames_or_covectors(self, capsys):
        code, out, _ = run_captured(
            capsys, ["verify-cones", "--frames", "0", "--covectors", "0"])
        assert code == EXIT_USAGE
        assert "--covectors" in json.loads(out)["reason"]

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
                    "modulus_estimates", "nc_verdicts", "trace_csv_path"):
            assert key in report
        assert report["gap"] is not None and report["gap"] >= 0.0
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

    def test_explicit_penalty_weight_serializes(self, capsys, c4_file):
        code, out, _ = run_captured(
            capsys, ["relax", "--graph", c4_file, "--k", "2", "--penalty-c", "9.5",
                     "--restarts", "3", "--max-iters", "40"])
        assert code == EXIT_OK
        report = json.loads(out.split("\n", 1)[1])  # after the value line
        assert report["C"] == 9.5
        assert report["calibration_c_hat"] == "nan"  # no calibration ran


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

    def test_sqrt_with_matching_alpha_passes(self, capsys):
        code, out, _ = run_captured(
            capsys, ["verify-wsm", "--n", "2", "--k", "1", "--beta", "0.5",
                     "--alpha", "0.5", "--samples", "150"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["dual_consistent"] is True


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
