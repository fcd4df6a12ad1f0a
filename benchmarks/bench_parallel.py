"""Parallel sweep runner and artifact cache: speed without drift.

Two claims are gated here:

* fanning a sweep's points over worker processes cuts wall-clock time
  (≥2.5x at 4 workers **on a ≥4-core host**; on smaller hosts the run
  still archives the honest measured number) while the rendered table
  and the canonical metrics document stay byte-identical to the serial
  run;
* warming the on-disk workload artifact cache turns a ClassBench
  10K-rule build into a load that is ≥5x faster than generating.

The sweep's text archive names the host's core count, the one fact of
the hardware its gate depends on.
"""

import json
import os
import time

from repro.analysis.report import render_series_table
from repro.experiments.common import metrics_document
from repro.experiments.scaling import run_scaling
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.parallel import configure_artifact_cache, zipf_packet_sequence

#: Worker count for the speedup measurement (the acceptance point).
WORKERS = 4
#: Required speedup at WORKERS workers — gated only on hosts that have
#: at least that many cores to give.
MIN_SPEEDUP = 2.5

SWEEP_KWARGS = dict(
    authority_counts=[1, 2, 3, 4],
    flows_per_point=1200,
    scale=0.01,
)


def _timed_sweep(jobs):
    """Run the E3 sweep under a fresh context; return (seconds, text, doc)."""
    context = fresh_run_context()
    started = time.perf_counter()
    result = run_scaling(jobs=jobs, **SWEEP_KWARGS)
    elapsed = time.perf_counter() - started
    table = render_series_table(result.series, title=result.title)
    document = json.dumps(metrics_document(result, context=context), sort_keys=True)
    return elapsed, table, document


def test_parallel_sweep_speedup(archive):
    previous = obs_context.current()
    try:
        serial_s, serial_table, serial_doc = _timed_sweep(jobs=1)
        parallel_s, parallel_table, parallel_doc = _timed_sweep(jobs=WORKERS)
    finally:
        obs_context.install(previous)

    # Determinism is unconditional: the parallel run must be
    # indistinguishable from the serial one, byte for byte.
    assert parallel_table == serial_table
    assert parallel_doc == serial_doc

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    cores = os.cpu_count() or 1
    lines = [
        f"parallel sweep: E3 x{len(SWEEP_KWARGS['authority_counts'])} points",
        f"  host cores          : {cores}",
        f"  workers             : {WORKERS}",
        f"  serial wall-clock   : {serial_s:.2f}s",
        f"  parallel wall-clock : {parallel_s:.2f}s",
        f"  speedup             : {speedup:.2f}x",
        "  output identical    : yes (table and metrics document)",
    ]
    archive("perf-parallel-sweep", "\n".join(lines))

    # The throughput gate only binds where the cores exist to meet it.
    if cores >= WORKERS:
        assert speedup >= MIN_SPEEDUP


def test_artifact_cache_warm_speedup(archive, tmp_path):
    """Cold chain build vs warm disk hit for the E7-style workload.

    A cold build generates the 10K-rule ClassBench policy, draws flow
    headers across it (sampling by flow-space share walks the whole
    classifier per draw — the dominant cost) and lays down the Zipf
    sequence.  The cached artifact is a plain integer list, so the warm
    path is a single disk load that skips the policy build entirely.
    """
    policy_params = dict(profile="acl", count=10_000, seed=11)
    workload = dict(n_flows=4000, flows_seed=5, n_packets=40_000,
                    alpha=1.0, seed=6)

    def build_chain():
        return zipf_packet_sequence(policy_params, FIVE_TUPLE_LAYOUT, **workload)

    try:
        configure_artifact_cache(str(tmp_path))
        started = time.perf_counter()
        cold_sequence = build_chain()
        cold_s = time.perf_counter() - started

        # A fresh cache over the same directory: the memory tier is
        # empty (as in a new process), so this measures the disk hits.
        configure_artifact_cache(str(tmp_path))
        started = time.perf_counter()
        warm_sequence = build_chain()
        warm_s = time.perf_counter() - started
    finally:
        configure_artifact_cache(None)

    assert warm_sequence == cold_sequence

    reduction = cold_s / warm_s if warm_s > 0 else float("inf")
    lines = [
        f"artifact cache: ClassBench acl x{policy_params['count']} rules, "
        f"{workload['n_flows']} flows, {workload['n_packets']} packets",
        f"  cold build (generate chain) : {cold_s * 1e3:.1f} ms",
        f"  warm run (disk hits)        : {warm_s * 1e3:.1f} ms",
        f"  build-time reduction        : {reduction:.1f}x",
    ]
    archive("perf-artifact-cache", "\n".join(lines))

    assert reduction >= 5.0
