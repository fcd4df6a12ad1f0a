"""Command-line interface: run any reproduced experiment from the shell.

Usage::

    python -m repro.cli list
    python -m repro.cli run E2            # full-size experiment
    python -m repro.cli run E5 --quick    # scaled-down version
    python -m repro.cli run all --quick

Each run prints the experiment's table and/or an ASCII rendering of its
figure, mirroring what the benchmark harness archives under
``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Dict, Tuple

from repro.analysis.asciiplot import ascii_plot
from repro.analysis.report import render_series_table, render_table
from repro.experiments.common import METRICS_SCHEMA, ExperimentResult, metrics_document
from repro.obs.sketch import set_sketch_mode
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


def _e1(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.partitioning import default_policies
    from repro.experiments.policies import run_policy_table
    return run_policy_table(default_policies(scale=1 if quick else 2))


def _e2(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.throughput import run_throughput
    rates = [25e3, 200e3, 1.2e6] if quick else None
    return run_throughput(rates=rates, flows_per_point=400 if quick else 1500)


def _e3(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.scaling import run_scaling
    return run_scaling(
        authority_counts=[1, 2] if quick else [1, 2, 3, 4],
        flows_per_point=500 if quick else 1200,
        jobs=jobs,
    )


def _e4(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.delay import run_delay
    return run_delay(flows=60 if quick else 300, jobs=jobs)


def _e5(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.partitioning import default_policies, run_partition_tcam
    return run_partition_tcam(
        partition_counts=[1, 4, 16] if quick else None,
        policies=default_policies(scale=1 if quick else 2),
    )


def _e6(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.partitioning import default_policies, run_partition_overhead
    return run_partition_overhead(
        partition_counts=[1, 4, 16] if quick else None,
        policies=default_policies(scale=1 if quick else 2),
    )


def _e7(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.caching import run_cache_miss
    if quick:
        return run_cache_miss(cache_sizes=[10, 50, 200], n_flows=500,
                              n_packets=5000, jobs=jobs)
    return run_cache_miss(jobs=jobs)


def _e8(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.stretch import run_stretch
    return run_stretch(
        switch_count=16 if quick else 32, flows=200 if quick else 800
    )


def _e8c(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.cachingablation import run_caching_ablation
    if quick:
        return run_caching_ablation(jobs=jobs)
    return run_caching_ablation(
        capacities=(8, 16, 32, 64),
        hosts=4096,
        edge_switches=4,
        epochs=48,
        burst_size=64,
        jobs=jobs,
    )


def _e9(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.dynamics import run_dynamics
    return run_dynamics(
        churn_steps=15 if quick else 60, warm_flows=60 if quick else 200
    )


def _e9q(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.qos import run_qos_slo
    if quick:
        return run_qos_slo(jobs=jobs)
    return run_qos_slo(
        hosts=4096,
        edge_switches=4,
        epochs=72,
        burst_size=64,
        jobs=jobs,
    )


def _e10(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.partitioning import run_cut_ablation
    return run_cut_ablation(partition_counts=[4, 16] if quick else None)


#: Chaos-soak knobs settable from the command line (see ``run`` flags).
CHAOS_OPTIONS: Dict[str, float] = {}


def _c1(quick: bool, jobs=None) -> ExperimentResult:
    # One soak is a single simulation — nothing to fan out; replicate
    # sweeps go through ``run_chaos_replicates`` (which does take jobs).
    from repro.experiments.chaos import run_chaos_soak
    kwargs = dict(CHAOS_OPTIONS)
    if quick:
        kwargs.setdefault("rate", 2000.0)
        kwargs.setdefault("duration", 0.5)
    return run_chaos_soak(**kwargs)


def _c2_kwargs(quick: bool) -> Dict[str, float]:
    # C2 shares C1's CLI knobs where they apply; its campus fabric is
    # lossless by construction, so the --loss knob stays C1-only.
    kwargs = {k: v for k, v in CHAOS_OPTIONS.items() if k != "loss"}
    if quick:
        kwargs.setdefault("rate", 2000.0)
        kwargs.setdefault("duration", 0.5)
    return kwargs


def _c2(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.chaos import run_rebalance_soak
    return run_rebalance_soak(rebalance=True, **_c2_kwargs(quick))


def _c2_static(quick: bool, jobs=None) -> ExperimentResult:
    from repro.experiments.chaos import run_rebalance_soak
    return run_rebalance_soak(rebalance=False, **_c2_kwargs(quick))


def _m1(quick: bool, jobs=None) -> ExperimentResult:
    # Like C1, one soak is a single simulation — nothing to fan out; the
    # --jobs determinism requirement is therefore structural, and the CI
    # job pinning jobs=2 == jobs=1 documents exactly that.
    from repro.experiments.streaming import run_streaming_soak
    if quick:
        return run_streaming_soak(
            hosts=50_000, epochs=120, burst_size=256, jobs=jobs
        )
    return run_streaming_soak(jobs=jobs)


EXPERIMENTS: Dict[str, Tuple[str, Callable[..., ExperimentResult]]] = {
    "E1": ("Table 1: evaluated policies", _e1),
    "E2": ("Fig: setup throughput, DIFANE vs NOX", _e2),
    "E3": ("Fig: throughput scaling with authority switches", _e3),
    "E4": ("Fig: first-packet delay", _e4),
    "E5": ("Fig: TCAM per authority switch vs #partitions", _e5),
    "E6": ("Fig: rule-split overhead vs #partitions", _e6),
    "E7": ("Fig: cache miss rate vs cache size", _e7),
    "E8": ("Fig: stretch by authority placement", _e8),
    "E8C": ("Ablation: cache eviction policy × capacity, streaming traffic", _e8c),
    "E9": ("Table: cost of network dynamics", _e9),
    "E9Q": ("Ablation: per-class QoS SLO protection under flash crowds", _e9q),
    "E10": ("Ablation: cut-selection heuristic", _e10),
    "C1": ("Chaos soak: faults, detection, degradation", _c1),
    "C2": ("Self-healing soak: sharded control plane, migration", _c2),
    "C2-STATIC": ("C2 baseline: heartbeat-only failover, no shards", _c2_static),
    "M1": ("Soak: million-host streaming workload, sketch metrics", _m1),
}


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
    run.add_argument("experiment", help="experiment id (E1..E10) or 'all'")
    run.add_argument("--quick", action="store_true",
                     help="scaled-down parameters (seconds, not minutes)")
    run.add_argument("--no-plot", action="store_true",
                     help="skip the ASCII figure rendering")
    run.add_argument("--sketch", action="store_true", default=False,
                     help="memory-bounded observability: stream delivery "
                          "outcomes into fixed-size sketches (quantiles, "
                          "top-k) instead of per-packet records; required "
                          "for the full-scale M1 soak to run in bounded "
                          "RAM")
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
                     help="C1: seed for the randomized fault schedule")
    run.add_argument("--loss", type=float, default=None, metavar="P",
                     help="C1: baseline per-link drop probability")
    run.add_argument("--heartbeat-interval", type=float, default=None,
                     metavar="SECONDS",
                     help="C1: authority heartbeat period")
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
        for key, (description, _) in EXPERIMENTS.items():
            print(f"{key:5s} {description}")
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

    wanted = list(EXPERIMENTS) if args.experiment.lower() == "all" else [
        args.experiment.upper()
    ]
    unknown = [key for key in wanted if key not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'list'", file=sys.stderr)
        return 2

    # The sketch mode is process-wide; workers inherit it through the
    # sweep runner's initializer.
    set_sketch_mode(args.sketch)

    if args.chaos_seed is not None:
        CHAOS_OPTIONS["seed"] = args.chaos_seed
    if args.loss is not None:
        CHAOS_OPTIONS["loss"] = args.loss
    if args.heartbeat_interval is not None:
        CHAOS_OPTIONS["heartbeat_interval_s"] = args.heartbeat_interval

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
            _, runner = EXPERIMENTS[key]
            # One fresh observability context per experiment: every
            # network/component built by the runner binds into it, so
            # the emitted document is exactly this experiment's run.
            context = fresh_run_context(
                trace=trace_handle is not None, profile=args.profile,
                telemetry=telemetry,
            )
            started = time.time()
            result = runner(args.quick, args.jobs)
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

                with open(args.prom_out, "w") as handle:
                    handle.write(prometheus_text(context.metrics.snapshot(
                        exclude_prefixes=("profile_", "artifact_cache_")
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
