"""Command-line interface: run any reproduced experiment from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run E2            # full-size experiment
    python -m repro.cli run E5 --quick    # scaled-down version
    python -m repro.cli run all --quick

Each run prints the experiment's table and/or an ASCII rendering of its
figure, mirroring what the benchmark harness archives under
``benchmarks/results/``.  The ids, their runners and both scales are
declared once, in :mod:`repro.experiments.registry`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.report import render_series_table, render_table
from repro.experiments.common import METRICS_SCHEMA, ExperimentResult, metrics_document
from repro.experiments.registry import SPECS
from repro.obs import fresh_run_context
from repro.parallel.cache import DEFAULT_CACHE_DIR, configure_artifact_cache

__all__ = ["main"]


def _load_metrics_document(path: str):
    """Read and validate a metrics JSON file for report / obs diff.

    Returns the decoded document, or ``None`` after printing a one-line
    diagnostic to stderr — missing files, unreadable JSON and foreign
    schemas are user errors (exit code 2), not tracebacks.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as error:
        print(f"error: cannot read metrics document {path!r}: "
              f"{error.strerror or error}", file=sys.stderr)
        return None
    except json.JSONDecodeError as error:
        print(f"error: {path!r} is not valid JSON ({error})", file=sys.stderr)
        return None
    if not isinstance(document, dict) or document.get("schema") != METRICS_SCHEMA:
        found = document.get("schema") if isinstance(document, dict) else type(document).__name__
        print(f"error: {path!r} is not a {METRICS_SCHEMA} document "
              f"(schema: {found!r})", file=sys.stderr)
        return None
    return document


def _print_result(result: ExperimentResult, plot: bool) -> None:
    print(f"\n=== {result.name}: {result.title} ===")
    if result.table_rows:
        print(render_table(result.table_headers, result.table_rows))
    if result.series:
        if not result.table_rows:
            print(render_series_table(result.series))
        if plot:
            print()
            log_x = max(max(s.x) for s in result.series if len(s)) > 50 * min(
                min(s.x) for s in result.series if len(s)
            )
            print(ascii_plot(result.series, log_x=log_x))
    if result.notes:
        interesting = {k: v for k, v in result.notes.items() if not k.startswith("_")}
        if interesting:
            print(f"\nnotes: {interesting}")


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Run DIFANE reproduction experiments."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run.add_argument("--quick", action="store_true",
                     help="scaled-down parameters (seconds, not minutes)")
    run.add_argument("--no-plot", action="store_true",
                     help="skip the ASCII figure rendering")
    run.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="fan sweep points out over N worker processes "
                          "(0 = all cores); output is identical to a "
                          "serial run")
    run.add_argument("--cache-dir", nargs="?", const=DEFAULT_CACHE_DIR,
                     default=None, metavar="DIR",
                     help="cache generated workload artifacts on disk "
                          f"(default dir when flag given bare: "
                          f"{DEFAULT_CACHE_DIR})")
    run.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                     help="C1/C2: seed for the randomized fault schedule")
    run.add_argument("--loss", type=float, default=None, metavar="P",
                     help="C1: baseline per-link drop probability")
    run.add_argument("--heartbeat-interval", type=float, default=None,
                     metavar="SECONDS",
                     help="C1/C2: authority heartbeat period")
    run.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the run's canonical metrics JSON here "
                          "(one document per experiment; a mapping keyed "
                          "by experiment id when several run)")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="enable packet-lifecycle tracing and write the "
                          "events as JSON Lines here")
    run.add_argument("--profile", action="store_true",
                     help="record wall-time histograms around scheduler "
                          "callbacks, engine lookups and channel sends "
                          "(profile_* metrics; excluded from metrics JSON)")
    run.add_argument("--telemetry", nargs="?", const=True, default=None,
                     type=float, metavar="INTERVAL",
                     help="sample per-window time series on a simulated-time "
                          "cadence (bare flag: default interval; value: "
                          "seconds per window); adds a difane-telemetry/1 "
                          "section to the metrics document")
    run.add_argument("--telemetry-out", metavar="PATH", default=None,
                     help="write the telemetry windows (and findings) as "
                          "JSON Lines here; implies --telemetry")
    run.add_argument("--prom-out", metavar="PATH", default=None,
                     help="write the run's metrics in Prometheus text "
                          "exposition format (single experiment only)")

    report = commands.add_parser(
        "report", help="render a saved metrics document as ASCII dashboards"
    )
    report.add_argument("document", help="path to a difane-metrics/1 JSON file")
    report.add_argument("--width", type=int, default=64)
    report.add_argument("--height", type=int, default=12)

    obs = commands.add_parser("obs", help="observability tooling")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_diff = obs_commands.add_parser(
        "diff", help="compare two metrics documents and summarize regressions"
    )
    obs_diff.add_argument("baseline", help="baseline metrics JSON (e.g. a golden)")
    obs_diff.add_argument("candidate", help="candidate metrics JSON (a fresh run)")
    obs_diff.add_argument("--rel-tolerance", type=float, default=0.0,
                          metavar="FRACTION",
                          help="relative tolerance for numeric comparisons "
                               "(default: exact)")

    args = parser.parse_args(argv)

    if args.command == "list":
        for spec in SPECS.values():
            print(f"{spec.id:5s} {spec.title}")
        return 0

    if args.command == "report":
        from repro.analysis.dashboard import render_report

        document = _load_metrics_document(args.document)
        if document is None:
            return 2
        print(render_report(document, width=args.width, height=args.height),
              end="")
        return 0

    if args.command == "obs":
        from repro.analysis.obsdiff import diff_documents, render_diff

        baseline = _load_metrics_document(args.baseline)
        candidate = _load_metrics_document(args.candidate)
        if baseline is None or candidate is None:
            return 2
        diff = diff_documents(
            baseline, candidate, rel_tolerance=args.rel_tolerance
        )
        print(render_diff(diff), end="")
        return 0 if diff["identical"] else 1

    wanted = list(SPECS) if args.experiment.lower() == "all" else [
        args.experiment.upper()
    ]
    unknown = [key for key in wanted if key not in SPECS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    # Per-invocation chaos knobs; each spec takes only those it declares.
    overrides = {"seed": args.chaos_seed, "loss": args.loss,
                 "heartbeat_interval_s": args.heartbeat_interval}
    overrides = {key: value for key, value in overrides.items()
                 if value is not None}

    if args.cache_dir is not None:
        configure_artifact_cache(args.cache_dir)
    telemetry = args.telemetry
    if telemetry is None and args.telemetry_out:
        telemetry = True
    if (args.prom_out or args.telemetry_out) and len(wanted) > 1:
        print("--prom-out/--telemetry-out support a single experiment, "
              "not 'all'", file=sys.stderr)
        return 2
    if args.trace_out and args.jobs and args.jobs != 1:
        # Trace events live in the run context's ring buffer, which does
        # not cross the worker-pool boundary; the sweep runner would fall
        # back to serial anyway, so say so rather than silently ignoring.
        print("note: --trace-out forces serial execution; ignoring --jobs",
              file=sys.stderr)

    documents: Dict[str, dict] = {}
    trace_handle = open(args.trace_out, "w") if args.trace_out else None
    try:
        for key in wanted:
            # One fresh observability context per experiment: every
            # network/component built by the runner binds into it, so
            # the emitted document is exactly this experiment's run.
            context = fresh_run_context(
                trace=trace_handle is not None, profile=args.profile,
                telemetry=telemetry,
            )
            started = time.time()
            result = SPECS[key](args.quick, args.jobs, overrides)
            _print_result(result, plot=not args.no_plot)
            print(f"({key} took {time.time() - started:.1f}s)")
            if args.metrics_out:
                documents[key] = metrics_document(result, context=context)
            if trace_handle is not None:
                context.tracer.write_jsonl(trace_handle, extra={"experiment": key})
            if args.telemetry_out:
                from repro.obs.export import write_telemetry_jsonl
                from repro.obs.telemetry import telemetry_section

                lines = write_telemetry_jsonl(
                    args.telemetry_out, telemetry_section(context.telemetry)
                )
                print(f"telemetry ({lines} lines) written to "
                      f"{args.telemetry_out}")
            if args.prom_out:
                from repro.obs.export import prometheus_text
                from repro.obs.registry import EXCLUDED_PREFIXES

                with open(args.prom_out, "w") as handle:
                    handle.write(prometheus_text(context.metrics.snapshot(
                        exclude_prefixes=EXCLUDED_PREFIXES
                    )))
                print(f"prometheus metrics written to {args.prom_out}")
    finally:
        if trace_handle is not None:
            trace_handle.close()

    if args.metrics_out:
        payload = documents[wanted[0]] if len(wanted) == 1 else documents
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
