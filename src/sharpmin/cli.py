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
machine-readable ``reason`` field, except when stdout itself cannot be
written: that exits 2 with the reason on stderr alone, followed there by
the check's own reason if it had one.  A report.json already written under
--out keeps the check's exit code and reason.  Identical flags (including
--seed) produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
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


class _Unwritable(Exception):
    """An --out path the report writers could not write."""


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
    return report, {}


def _run_relax(args):
    graph = _load_graph_arg(args.graph)
    cfg = ch.SolverConfig(
        penalty_c=args.penalty_c,
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        oracle_budget=0 if args.no_oracle else args.budget,  # a zero budget skips the oracle
    )
    result = ch.solve_relaxation(graph, args.k, cfg)
    trace_rows = list(result.trace)
    report = {
        "command": "relax",
        "graph": {"n": graph.n, "m": graph.m},
        "k": args.k,
        "beta": 1.0,  # the solver's penalty exponent
        "C": result.penalty_c,
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
    return report, traces


def _run_verify_lemma(args):
    if args.samples < 1:  # a zero budget would pass vacuously
        raise UsageError(f"--samples must be at least 1, got {args.samples}")
    sphere_point = manifolds.Point(manifolds.sphere(3), np.array([0.0, 0.0, 1.0]))
    sphere_sampler = manifolds.geodesic_sphere_sampler(sphere_point)
    sphere_report = manifolds.verify_local_distance_lemma(
        sphere_point, sphere_sampler, samples_per_radius=args.samples, seed=args.seed)
    flat_point = manifolds.Point(manifolds.euclidean(3), np.zeros(3))
    flat_sampler = manifolds.geodesic_sphere_sampler(flat_point)
    flat_report = manifolds.verify_local_distance_lemma(
        flat_point, flat_sampler, samples_per_radius=args.samples, seed=args.seed)

    order_ok = abs(sphere_report.fitted_order - 2.0) <= 0.3
    flat_ok = max(flat_report.worst_ratio_deviation) <= manifolds.FLAT_DEVIATION
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
        "sphere": vars(sphere_report),
        "euclidean_control": vars(flat_report),
        "violations": violations,
    }
    traces = {name: (("r", "worst_deviation"), list(zip(rep.radii, rep.worst_ratio_deviation)))
              for name, rep in (("lemma_sphere.csv", sphere_report),
                                ("lemma_euclidean.csv", flat_report))}
    return report, traces


def _run_verify_cones(args):
    if min(args.covectors, args.frames) < 1:  # a zero budget would pass vacuously
        raise UsageError("--covectors and --frames must be at least 1")
    identity = [cones.check_dist_subdiff_identity(fx, n_covectors=args.covectors, seed=args.seed)
                for fx in fixtures.identity_fixtures()]
    dirderiv = [cones.check_dirderiv_identity(fx, seed=args.seed)
                for fx in fixtures.dirderiv_fixtures()]
    xval = cones.cross_validate_pattern_cone(n_frames=args.frames, seed=args.seed)
    violations = [f"distance-subdifferential identity failed on {c.name}"
                  for c in identity if not c.passed]
    violations += [f"directional-derivative identity residual "
                   f"{c.counters['max_residual']:.3g} on {c.name}"
                   for c in dirderiv if not c.passed]
    if not xval.passed:
        violations.append(f"{len(xval.failures)} cone-pattern disagreement(s)")
    report = {
        "command": "verify-cones",
        "seed": args.seed,
        "identity_checks": [_check_section(c) for c in identity],
        "dirderiv_checks": [_check_section(c) for c in dirderiv],
        "pattern_cross_validation": {**xval.counters, "disagreements": len(xval.failures)},
        "violations": violations,
    }
    rows = [(c.name, c.counters["max_residual"]) for c in dirderiv]
    traces = {"dirderiv_residuals.csv": (("fixture", "max_residual"), rows)}
    return report, traces


def _check_section(c) -> dict:
    """A fixture check's report section: its name, counters and verdict."""
    return {"fixture": c.name, **c.counters, "passed": c.passed}


def _run_verify_wsm(args):
    study = ch.wsm_penalty_check(args.n, args.k, args.beta, n_samples=args.samples,
                                 seed=args.seed, alpha=args.alpha)
    violations = []
    witness = next((v.witness for v in study.dual if not v.passed), None)
    if not study.dual_consistent:
        violations.append(
            f"dual necessary condition refuted for beta={args.beta} with alpha={args.alpha}")
    if study.wsm.status == "violated":
        violations.append(f"sampled sharpness check violated for beta={args.beta}")
    if study.probes.status == "violated":
        violations.append(f"probed sharpness check violated for beta={args.beta}")
    report = {
        "command": "verify-wsm",
        "n": args.n,
        "k": args.k,
        "beta": args.beta,
        "alpha": args.alpha,
        "seed": args.seed,
        "wsm_status": "violated" if study.sharpness_violated else "pass_strong",
        # each witness keeps the schema [coords, f, lb, ub]: lb == ub == dist
        "wsm_witness": _wsm_witness(study.wsm),
        "estimated_modulus": study.wsm.estimated_modulus,
        "probe_witness": _wsm_witness(study.probes),
        "probe_modulus": study.probes.estimated_modulus,
        "dual_consistent": study.dual_consistent,
        "dual_witness": None if witness is None else {
            "covector": witness.covector,
            "scale": witness.scale,
            "quotient": witness.quotient,
        },
        "modulus_trace": list(study.wsm.modulus_trace),
        "violations": violations,
    }
    traces = {"modulus_trace.csv": (("n_samples", "estimate"), list(study.wsm.modulus_trace))}
    return report, traces


def _wsm_witness(verdict):
    w = verdict.witness
    return None if w is None else [*w, w[-1]]


def _sub_args(parser, args, command: str, *flags: str) -> argparse.Namespace:
    """The arguments of ``command`` with the parser's defaults, the given
    flags and the report's own --seed, --format and --out."""
    argv = [command, *flags, f"--seed={args.seed}", f"--format={args.format}"]
    if args.out is not None:
        argv.append(f"--out={args.out}")
    return parser.parse_args(argv)


def _run_report(args):
    """Reproduction bundle: each claim is checked against its expected
    verdict (the beta > 1 refutation is expected, so observing it passes)."""
    parser = build_parser()
    lemma_report, lemma_traces = _run_verify_lemma(_sub_args(parser, args, "verify-lemma"))
    cones_report, cones_traces = _run_verify_cones(_sub_args(parser, args, "verify-cones"))
    mismatches = []
    if lemma_report["violations"]:
        mismatches.append("local distance comparison failed")
    if cones_report["violations"]:
        mismatches.append("cone identity checks failed")
    expectations = {0.5: True, 2.0: False}  # beta -> expected dual consistency
    wsm_summaries = {}
    for beta, expected in expectations.items():
        wsm_report, _ = _run_verify_wsm(_sub_args(
            parser, args, "verify-wsm", "--n=2", "--k=1", f"--beta={beta}", "--samples=300"))
        observed = wsm_report["dual_consistent"]
        wsm_summaries[str(beta)] = {
            "expected_dual_consistent": expected,
            "observed_dual_consistent": observed,
            "wsm_status": wsm_report["wsm_status"],
            "modulus_trace": wsm_report["modulus_trace"],
        }
        if observed != expected:
            mismatches.append(
                f"beta={beta}: expected dual_consistent={expected}, observed {observed}")
    graph_section = None
    traces = dict(lemma_traces)
    traces.update(cones_traces)
    if args.graph is not None:
        relax_report, relax_traces = _run_relax(_sub_args(
            parser, args, "relax", f"--graph={args.graph}", f"--k={args.k}",
            f"--budget={args.budget}"))
        graph_section = relax_report
        traces.update(relax_traces)
    report = {
        "command": "report",
        "seed": args.seed,
        "lemma": lemma_report,
        "cones": cones_report,
        "penalty_threshold": wsm_summaries,
        "relaxation": graph_section,
        "mismatches": mismatches,
    }
    return report, traces


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
    ends with an ``exit_code,reason`` table, so the reason is on stdout too.
    An --out that cannot be written raises ``_Unwritable`` before anything is
    printed; report.json is written after the traces.  stdout is written
    and flushed here, so a stdout that cannot take the report raises its
    ``OSError`` from this call."""
    out = getattr(args, "out", None)
    if out is not None:
        out_dir = Path(out)
        try:
            for name, (header, rows) in traces.items():
                write_csv(header, rows, out_dir / name)
            write_report(report, out_dir / "report.json")
        except OSError as exc:
            raise _Unwritable(f"cannot write --out {out}: {exc.strerror or exc}") from exc
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        sys.stdout.write(canonical_json(report))
    else:
        for name, (header, rows) in traces.items():
            sys.stdout.write(csv_text(header, rows))
        if report["exit_code"] != EXIT_OK:
            sys.stdout.write(csv_text(("exit_code", "reason"),
                                      [(report["exit_code"], report["reason"])]))
    sys.stdout.flush()


_REFUSALS = {  # exception class -> (exit code, stderr label)
    UsageError: (EXIT_USAGE, "usage error"),
    ch.BudgetExceededError: (EXIT_BUDGET, "budget refusal"),
    ch.GraphFormatError: (EXIT_USAGE, "error"),
    manifolds.GeometryError: (EXIT_USAGE, "error"),
    FrameError: (EXIT_USAGE, "error"),
}


def run(argv=None) -> int:
    """Parse flags, run the command, emit the report; returns the exit code.
    The code is 1 exactly when the report lists violations or mismatches
    and stdout takes the report, and the reason is that list joined by "; "."""
    parser = build_parser()
    args = None  # a parse refusal writes no --out files
    try:
        parsed = parser.parse_args(argv)
        if parsed.seed < 0:  # numpy seeding would raise a bare ValueError later
            parser.error(f"argument --seed: must be a non-negative integer, got {parsed.seed}")
        if getattr(parsed, "budget", 0) < 0:  # exact, relax and report take a budget
            parser.error(f"argument --budget: must be a non-negative integer, got {parsed.budget}")
        args = parsed
        report, traces = _HANDLERS[args.command](args)
        failed = report.get("violations") or report.get("mismatches")
        code, label = (EXIT_VIOLATION, "violation") if failed else (EXIT_OK, None)
        reason = "; ".join(failed) if failed else None
    except tuple(_REFUSALS) as exc:
        code, label = next(v for cls, v in _REFUSALS.items() if isinstance(exc, cls))
        report, traces, reason = {}, {}, str(exc)
    report |= {"exit_code": code, "reason": reason}
    stdout_failed = False
    try:
        try:
            emit_report(report, traces, args)
        except _Unwritable as exc:  # a usage refusal, reported on stdout alone
            code, label, reason = EXIT_USAGE, "error", str(exc)
            report |= {"exit_code": code, "reason": reason}
            emit_report(report, traces, argparse.Namespace(format=args.format))
    except OSError as exc:  # stdout cannot take the report: the reason goes to stderr alone
        print(f"error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        stdout_failed = True
    if code != EXIT_OK:  # after a stdout failure, the check's own reason follows
        print(f"{label}: {reason}", file=sys.stderr)
    return EXIT_USAGE if stdout_failed else code


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except OSError:
        # run has reported the failure; the report still buffered goes nowhere,
        # or the interpreter's last flush would fail again and exit 120
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
