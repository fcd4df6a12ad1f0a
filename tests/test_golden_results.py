"""Golden-regression tests: cheap experiment configs vs checked-in metrics.

Each test re-runs a scaled-down configuration of one experiment inside a
fresh observability context, builds the canonical metrics document
(:func:`repro.experiments.common.metrics_document`), and diffs it —
verbatim, after a JSON round-trip — against ``tests/goldens/``.  Any
behavioural drift in the simulator (delivery counts, drop attribution,
pipeline stage mix, control-channel retries) shows up as a golden diff
instead of a silent change.

Refresh the goldens deliberately with::

    PYTHONPATH=src python -m pytest tests/test_golden_results.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.common import metrics_document
from repro.obs import context as obs_context
from repro.obs import fresh_run_context

GOLDENS_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture
def run_context():
    """A fresh observability context, restored to the previous one after.

    Telemetry is on, so the goldens also pin the ``difane-telemetry/1``
    section: window boundaries, per-window counter deltas, probe levels
    and health findings are all part of the regression surface.
    """
    previous = obs_context.current()
    context = fresh_run_context(trace=True, telemetry=True)
    yield context
    obs_context.install(previous)


def _golden_check(result, context, update: bool) -> None:
    document = json.loads(json.dumps(metrics_document(result, context=context)))
    path = GOLDENS_DIR / f"{result.name}-metrics.json"
    if update:
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden rewritten: {path.name}")
    assert path.exists(), (
        f"missing golden {path}; run with --update-goldens to create it"
    )
    golden = json.loads(path.read_text())
    assert document == golden, (
        f"metrics document for {result.name} drifted from {path.name}; "
        "if the change is intentional, refresh with --update-goldens"
    )


def _run_a6():
    from repro.experiments.failover import run_failover_transient

    return run_failover_transient(rate=1_500.0, duration=0.3, failure_time=0.15)


def _run_c1():
    from repro.experiments.chaos import run_chaos_soak

    return run_chaos_soak(rate=800.0, duration=0.3)


def _run_e4():
    from repro.experiments.delay import run_delay

    return run_delay(flows=40)


def _run_c2():
    from repro.experiments.chaos import run_rebalance_soak

    return run_rebalance_soak(rate=2_000.0, duration=0.5, rebalance=True)


def _run_c2_static():
    from repro.experiments.chaos import run_rebalance_soak

    return run_rebalance_soak(rate=2_000.0, duration=0.5, rebalance=False)


def _run_m1():
    # The pinned-scale M1 config: sketch observability on, so the golden
    # also pins the "sketches"/"top_k"/"fixed_histograms" registry
    # sections and the sketch telemetry probe levels.
    from repro.experiments.streaming import run_streaming_soak

    return run_streaming_soak(
        hosts=4096, edge_switches=4, epochs=40, burst_size=64,
        rules_per_switch=16, sketch=True,
    )


def _run_e8c():
    # Pinned at the module's default (golden) scale: 3 workloads × 5
    # policies × 2 capacities of full event-driven soaks.  Pins the
    # whole ablation surface — miss rates, penalty percentiles, install
    # overhead, eviction-churn split, and the cost-vs-LRU deltas.
    from repro.experiments.cachingablation import run_caching_ablation

    return run_caching_ablation()


def _run_e9q():
    # Golden-scale E9: three protection modes over the same flash-crowd
    # stream.  Pins the per-class counters, SLO summaries and the full
    # finding sequence — the unprotected run's slo-burn/slo-exhausted
    # findings and the protected run's clean budget are both part of the
    # regression surface.
    from repro.experiments.qos import run_qos_slo

    return run_qos_slo()


def _run_e7():
    # The one trace-driven golden: 1000-rule ClassBench ACL, 600 Zipf
    # packets over 300 flows replayed through the LRU and COST fragment
    # caches and the microflow cache at two sizes.  Pins the miss rates
    # and install counts of the policy-lookup -> win_fragment -> replay
    # path, which no event-driven golden reaches.
    #
    # A replay emits no counters, so the metrics document alone would pin
    # only the parameters: fold the exact miss-rate series and the install
    # table into the notes before the document is built.
    from repro.experiments.caching import run_cache_miss

    result = run_cache_miss(n_packets=600, n_flows=300, cache_sizes=[10, 100])
    result.notes["miss_rate"] = {s.label: s.points() for s in result.series}
    result.notes["table"] = [
        dict(zip(result.table_headers, row)) for row in result.table_rows
    ]
    return result


@pytest.mark.parametrize(
    "runner",
    [
        _run_a6, _run_c1, _run_e4, _run_c2, _run_c2_static, _run_m1,
        _run_e8c, _run_e9q, _run_e7,
    ],
    ids=[
        "A6-failover-transient", "C1-chaos-soak", "E4-delay",
        "C2-rebalance-soak", "C2-static-soak", "M1-streaming-soak",
        "E8-caching-ablation", "E9-qos-slo", "E7-cache-miss",
    ],
)
def test_golden_metrics(runner, run_context, update_goldens):
    result = runner()
    _golden_check(result, run_context, update_goldens)


def test_golden_runs_are_deterministic():
    """The premise of golden testing: two identical runs, identical docs."""
    documents = []
    previous = obs_context.current()
    try:
        for _ in range(2):
            context = fresh_run_context(trace=True, telemetry=True)
            result = _run_e4()
            documents.append(
                json.loads(json.dumps(metrics_document(result, context=context)))
            )
    finally:
        obs_context.install(previous)
    assert documents[0] == documents[1]


def test_parallel_telemetry_matches_serial():
    """``--jobs 2`` telemetry must be byte-identical to ``--jobs 1``.

    Worker recorders dump their windows and the parent merges them
    window-wise (counter deltas sum, probe levels max); because both
    operations are associative and commutative, the merged section —
    and therefore the serialized document — cannot depend on worker
    scheduling.
    """
    from repro.experiments.delay import run_delay

    texts = []
    previous = obs_context.current()
    try:
        for jobs in (1, 2):
            context = fresh_run_context(trace=True, telemetry=True)
            result = run_delay(flows=40, jobs=jobs)
            document = metrics_document(result, context=context)
            assert document["telemetry"]["windows"], "telemetry never sampled"
            texts.append(json.dumps(document, indent=2, sort_keys=True))
    finally:
        obs_context.install(previous)
    assert texts[0] == texts[1]
