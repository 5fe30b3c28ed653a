"""Command-line front end.

Subcommands: ``exact`` (enumeration oracle), ``relax`` (penalized relaxation
solver + rounding), ``verify-lemma`` (local distance comparison),
``verify-cones`` (distance-subdifferential and directional-derivative
identities plus the cone-pattern cross-validation), ``verify-wsm`` (penalty
sharpness study at one exponent), and ``report`` (the full reproduction
bundle with expected-versus-observed bookkeeping).

Exit codes: 0 success / all checks pass; 1 a mathematical check was violated
or refuted (the report carries the witness); 2 usage error; 3 enumeration
budget refusal.  Every nonzero exit still emits a report with a
machine-readable ``reason`` field.  Identical flags (including --seed)
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import cheeger as ch
from . import cones, fixtures, manifolds
from .stiefel import FrameError
from .reporting import canonical_json, csv_text, write_csv, write_report

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep control
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="sharpmin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("exact", help="exact constant by enumeration")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--budget", type=int, default=20_000_000)
    common(p)

    p = sub.add_parser("relax", help="penalized relaxation solver")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--penalty-c", type=float, default=None)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--max-iters", type=int, default=300)
    p.add_argument("--budget", type=int, default=20_000_000)
    p.add_argument("--no-oracle", action="store_true")
    common(p)

    p = sub.add_parser("verify-lemma", help="local distance comparison")
    p.add_argument("--samples", type=int, default=300)
    common(p)

    p = sub.add_parser("verify-cones", help="cone and derivative identities")
    p.add_argument("--covectors", type=int, default=50)
    p.add_argument("--frames", type=int, default=40)
    common(p)

    p = sub.add_parser("verify-wsm", help="penalty sharpness study")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=400)
    common(p)

    p = sub.add_parser("report", help="full reproduction bundle")
    p.add_argument("--graph", type=str, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget", type=int, default=20_000_000)
    common(p)
    return parser


def _load_graph_arg(path_str: str) -> ch.Graph:
    path = Path(path_str)
    if not path.exists():
        raise UsageError(f"graph file not found: {path_str}")
    try:
        return ch.load_graph(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read graph file {path_str}: {exc}") from None


def _run_exact(args):
    graph = _load_graph_arg(args.graph)
    value, parts = ch.exact_cheeger(graph, args.k, budget=args.budget)
    report = {
        "command": "exact",
        "graph": {"n": graph.n, "m": graph.m},
        "k": args.k,
        "seed": args.seed,
        "value": value,
        "parts": [sorted(p) for p in parts.parts],
    }
    print(value)
    return EXIT_OK, report, {}


def _run_relax(args):
    graph = _load_graph_arg(args.graph)
    cfg = ch.SolverConfig(
        penalty_c=args.penalty_c,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        oracle_budget=args.budget,
        with_oracle=not args.no_oracle,
    )
    result = ch.solve_relaxation(graph, args.k, cfg)
    trace_rows = list(result.trace)
    report = {
        "command": "relax",
        "graph": {"n": graph.n, "m": graph.m},
        "k": args.k,
        "beta": 1.0,  # the solver's penalty exponent
        "C": result.penalty_c,
        "calibration_c_hat": result.calibration_c_hat,
        "seed": args.seed,
        "continuous_value": result.best_continuous_value,
        "penalized_value": result.best_penalty_value,
        "rounded_parts": [sorted(p) for p in result.rounded.parts],
        "rounded_value": result.rounded_value,
        "oracle_value": result.oracle_value,
        "gap": result.gap,
        "best_restart": result.best_restart,
        "max_feasibility_residual": result.max_feasibility_residual,
        "restart_best_values": list(result.restart_best_values),
        "oracle_assignments": result.oracle_assignments,
        "trace_csv_path": "relax_trace.csv" if args.out else None,
    }
    print(result.rounded_value)
    traces = {"relax_trace.csv": (("iter", "objective", "penalty", "feasibility_residual"),
                                  trace_rows)}
    return EXIT_OK, report, traces


_LEMMA_RADII = (0.4, 0.2, 0.1, 0.05)


def _run_verify_lemma(args):
    if args.samples < 1:  # a zero budget would pass vacuously
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    sphere_point = manifolds.Point(manifolds.sphere(3, 1.0), np.array([0.0, 0.0, 1.0]))
    # the differences of every test point to every set point of one radius
    ch.require_within_stack_cap(
        "the lemma's test-to-set distance table needs",
        8 * args.samples * manifolds.SPHERE_SAMPLER_POINTS * sphere_point.coords.size)
    sphere_sampler = manifolds.geodesic_sphere_sampler(sphere_point)
    sphere_report = manifolds.verify_local_distance_lemma(
        sphere_point, sphere_sampler, _LEMMA_RADII,
        samples_per_radius=args.samples, seed=args.seed)
    flat_point = manifolds.Point(manifolds.euclidean(3), np.zeros(3))
    flat_sampler = manifolds.geodesic_sphere_sampler(flat_point)
    flat_report = manifolds.verify_local_distance_lemma(
        flat_point, flat_sampler, _LEMMA_RADII,
        samples_per_radius=args.samples, seed=args.seed)

    order_ok = abs(sphere_report.fitted_order - 2.0) <= 0.3
    flat_ok = max(flat_report.worst_ratio_deviation) <= 1e-12
    violations = []
    if not order_ok:
        violations.append(f"sphere deviation order {sphere_report.fitted_order:.3f} not 2 +/- 0.3")
    if not sphere_report.coefficient_ok:
        violations.append(
            f"sphere coefficient {sphere_report.fitted_coefficient:.4f} exceeds "
            f"(1+slack) * {sphere_report.target_coefficient:.4f}")
    if not flat_ok:
        violations.append("flat control produced nonzero deviation")
    report = {
        "command": "verify-lemma",
        "seed": args.seed,
        "sphere": vars(sphere_report) | {},
        "euclidean_control": vars(flat_report) | {},
        "violations": violations,
    }
    rows = [(r, d) for r, d in zip(sphere_report.radii, sphere_report.worst_ratio_deviation)]
    traces = {
        "lemma_sphere.csv": (("r", "worst_deviation"), rows),
        "lemma_euclidean.csv": (
            ("r", "worst_deviation"),
            [(r, d) for r, d in zip(flat_report.radii, flat_report.worst_ratio_deviation)],
        ),
    }
    code = EXIT_OK if not violations else EXIT_VIOLATION
    return code, report, traces


def _run_verify_cones(args):
    if min(args.covectors, args.frames) < 1:  # a zero budget would pass vacuously
        raise UsageError("--covectors and --frames must be at least 1")
    schedule = cones.DEFAULT_SCHEDULE
    identity = fixtures.identity_fixtures()
    # each of the 2 x covectors covectors of a check is scored on the rows of
    # its whole schedule, two probes and samples_per_scale directions per scale
    rows = 2 * args.covectors * len(schedule.scales) * (2 + schedule.samples_per_scale)
    ch.require_within_stack_cap(
        "scoring one identity check needs",
        8 * rows * max(math.prod(fx.manifold.ambient_shape) for fx in identity))
    identity_reports = []
    violations = []
    for fx in identity:
        rep = cones.check_dist_subdiff_identity(fx, n_covectors=args.covectors,
                                                schedule=schedule, seed=args.seed)
        identity_reports.append({
            "fixture": rep.fixture,
            "inside_checked": rep.inside_checked,
            "outside_checked": rep.outside_checked,
            "passed": rep.passed,
        })
        if not rep.passed:
            violations.append(f"distance-subdifferential identity failed on {rep.fixture}")
    dirderiv_reports = []
    for fx in fixtures.dirderiv_fixtures():
        rep = cones.check_dirderiv_identity(fx, schedule=schedule, seed=args.seed)
        dirderiv_reports.append({
            "fixture": rep.fixture,
            "max_residual": rep.max_residual,
            "passed": rep.passed,
        })
        if not rep.passed:
            violations.append(
                f"directional-derivative identity residual {rep.max_residual:.3g} on {rep.fixture}")
    xval = cones.cross_validate_pattern_cone(n_frames=args.frames, seed=args.seed)
    if not xval.passed:
        violations.append(f"{len(xval.disagreements)} cone-pattern disagreement(s)")
    report = {
        "command": "verify-cones",
        "seed": args.seed,
        "identity_checks": identity_reports,
        "dirderiv_checks": dirderiv_reports,
        "pattern_cross_validation": {
            "frames_checked": xval.frames_checked,
            "members_checked": xval.members_checked,
            "violators_checked": xval.violators_checked,
            "disagreements": len(xval.disagreements),
        },
        "violations": violations,
    }
    rows = [(r["fixture"], r["max_residual"]) for r in dirderiv_reports]
    traces = {"dirderiv_residuals.csv": (("fixture", "max_residual"), rows)}
    code = EXIT_OK if not violations else EXIT_VIOLATION
    return code, report, traces


def _run_verify_wsm(args):
    study = ch.wsm_penalty_check(args.n, args.k, args.beta, n_samples=args.samples,
                                 seed=args.seed, alpha=args.alpha)
    violations = []
    witness = None
    w = study.wsm.witness
    if not study.dual_consistent:
        for v in study.dual:
            if not v.passed:
                witness = v.witness
                break
        violations.append(
            f"dual necessary condition refuted for beta={args.beta} with alpha={args.alpha}")
    if study.wsm.status == "violated":
        violations.append(f"sampled sharpness check violated for beta={args.beta}")
    report = {
        "command": "verify-wsm",
        "n": args.n,
        "k": args.k,
        "beta": args.beta,
        "alpha": args.alpha,
        "seed": args.seed,
        "wsm_status": study.wsm.status,
        # the witness keeps its schema [coords, f, lb, ub]: lb == ub == dist
        "wsm_witness": None if w is None else [*w, w[-1]],
        "estimated_modulus": study.wsm.estimated_modulus,
        "dual_consistent": study.dual_consistent,
        "dual_witness": None if witness is None else {
            "covector": witness.covector,
            "scale": witness.scale,
            "quotient": witness.quotient,
        },
        "modulus_trace": list(study.modulus_trace),
        "violations": violations,
    }
    rows = list(study.modulus_trace)
    traces = {"modulus_trace.csv": (("n_samples", "estimate"), rows)}
    code = EXIT_OK if not violations else EXIT_VIOLATION
    return code, report, traces


def _sub_args(args, command: str, *flags: str) -> argparse.Namespace:
    """The arguments of ``command`` with its parser's defaults, the given
    flags and the report's own --seed, --format and --out."""
    argv = [command, *flags, f"--seed={args.seed}", f"--format={args.format}"]
    if args.out is not None:
        argv.append(f"--out={args.out}")
    return build_parser().parse_args(argv)


def _run_report(args):
    """Reproduction bundle: each claim is checked against its expected
    verdict (the beta > 1 refutation is expected, so observing it passes)."""
    code_lemma, lemma_report, lemma_traces = _run_verify_lemma(_sub_args(args, "verify-lemma"))
    code_cones, cones_report, cones_traces = _run_verify_cones(_sub_args(args, "verify-cones"))
    mismatches = []
    if code_lemma != EXIT_OK:
        mismatches.append("local distance comparison failed")
    if code_cones != EXIT_OK:
        mismatches.append("cone identity checks failed")
    expectations = {0.5: True, 2.0: False}  # beta -> expected dual consistency
    wsm_summaries = {}
    for beta, expected in expectations.items():
        study = ch.wsm_penalty_check(2, 1, beta, n_samples=300, seed=args.seed)
        observed = study.dual_consistent
        wsm_summaries[str(beta)] = {
            "expected_dual_consistent": expected,
            "observed_dual_consistent": observed,
            "wsm_status": study.wsm.status,
            "modulus_trace": list(study.modulus_trace),
        }
        if observed != expected:
            mismatches.append(
                f"beta={beta}: expected dual_consistent={expected}, observed {observed}")
    graph_section = None
    traces = dict(lemma_traces)
    traces.update(cones_traces)
    if args.graph is not None:
        rcode, relax_report, relax_traces = _run_relax(_sub_args(
            args, "relax", f"--graph={args.graph}", f"--k={args.k}", f"--budget={args.budget}"))
        graph_section = relax_report
        traces.update(relax_traces)
        if relax_report.get("gap") is not None and relax_report["gap"] < -1e-9:
            mismatches.append("rounded value beat the oracle")
    report = {
        "command": "report",
        "seed": args.seed,
        "lemma": lemma_report,
        "cones": cones_report,
        "penalty_threshold": wsm_summaries,
        "relaxation": graph_section,
        "mismatches": mismatches,
    }
    code = EXIT_OK if not mismatches else EXIT_VIOLATION
    return code, report, traces


_HANDLERS = {
    "exact": _run_exact,
    "relax": _run_relax,
    "verify-lemma": _run_verify_lemma,
    "verify-cones": _run_verify_cones,
    "verify-wsm": _run_verify_wsm,
    "report": _run_report,
}


def emit_report(report: dict, traces: dict, args) -> None:
    """Write report.json and CSV traces under --out (byte-stable for equal
    flags) and print the requested format to stdout.  In CSV a nonzero exit
    ends with an ``exit_code,reason`` table, so the reason is on stdout too."""
    out = getattr(args, "out", None)
    if out is not None:
        out_dir = Path(out)
        write_report(report, out_dir / "report.json")
        for name, (header, rows) in traces.items():
            write_csv(header, rows, out_dir / name)
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        for name, (header, rows) in traces.items():
            sys.stdout.write(csv_text(header, rows))
        if report.get("exit_code", EXIT_OK) != EXIT_OK:
            sys.stdout.write(csv_text(("exit_code", "reason"),
                                      [(report["exit_code"], report["reason"])]))


def run(argv=None) -> int:
    """Parse flags, run the command, emit the report; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:  # numpy seeding would raise a bare ValueError later
            parser.error(f"argument --seed: must be a non-negative integer, got {args.seed}")
    except UsageError as exc:
        report = {"exit_code": EXIT_USAGE, "reason": str(exc)}
        sys.stdout.write(canonical_json(report))
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        code, report, traces = _HANDLERS[args.command](args)
    except UsageError as exc:
        report = {"exit_code": EXIT_USAGE, "reason": str(exc)}
        emit_report(report, {}, args)
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ch.BudgetExceededError as exc:
        report = {"exit_code": EXIT_BUDGET, "reason": str(exc)}
        emit_report(report, {}, args)
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ch.GraphFormatError, manifolds.GeometryError, FrameError) as exc:
        report = {"exit_code": EXIT_USAGE, "reason": str(exc)}
        emit_report(report, {}, args)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report["exit_code"] = code
    report["reason"] = None if code == EXIT_OK else "; ".join(
        report.get("violations", []) or report.get("mismatches", []) or ["violation"])
    emit_report(report, traces, args)
    if code != EXIT_OK:
        print(f"violation: {report['reason']}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
