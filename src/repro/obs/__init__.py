"""Unified observability: metrics registry, packet tracing, profiling.

The three planes DIFANE's evaluation needs, as one layer instead of
five per-feature counter surfaces:

* :mod:`repro.obs.registry` — labelled counters (collected from the
  objects that count) and histograms with deterministic snapshots and
  an associative merge;
* :mod:`repro.obs.trace` — ring-buffered packet-lifecycle span events
  (ingress → cache-hit/redirect → authority → install → egress, plus
  drop/degradation causes) with JSONL export;
* :mod:`repro.obs.telemetry` — simulated-time sampling of the registry
  into per-window time series (``difane-telemetry/1``);
* :mod:`repro.obs.flowtrace` — flow-causal analysis folding the flat
  trace stream into per-flow span trees and stage decompositions;
* :mod:`repro.obs.health` — detectors over telemetry windows
  (authority-load imbalance, cache churn, degraded mode) emitting
  structured findings;
* :mod:`repro.obs.export` — Prometheus text exposition and JSONL
  time-series export of a run's metrics and telemetry;
* :mod:`repro.obs.sketch` — memory-bounded mergeable sketches (KLL
  quantiles, fixed-width counts, Space-Saving top-k) for soaks too
  large to keep per-packet records;
* :mod:`repro.obs.profile` — wall-time stage histograms around event
  callbacks, engine lookups and channel sends;
* :mod:`repro.obs.attribution` — the canonical drop-reason → bucket
  mapping shared by the registry labels and the chaos experiments;
* :mod:`repro.obs.qos` — flow classes, SLO specs, the QoS policy a
  network is built with (``DifaneNetwork.build(..., qos=policy)``) and
  the outcome reader that counts deliveries and drops per class;
* :mod:`repro.obs.context` — the per-run binding everything above hangs
  off (``fresh_run_context()`` → run → ``snapshot()``).
"""

from repro.obs.attribution import DROP_ATTRIBUTION, attribute_drops, attribute_reason
from repro.obs.context import (
    RunContext,
    current,
    current_profiler,
    current_registry,
    current_telemetry,
    current_tracer,
    fresh_run_context,
    install,
)
from repro.obs.flowtrace import FlowTraceAnalysis
from repro.obs.profile import Profiler, STAGE_HISTOGRAM
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
)
from repro.obs.sketch import (
    DeliverySketchObserver,
    FixedWidthHistogram,
    QuantileSketch,
    SpaceSavingSketch,
)
from repro.obs.telemetry import (
    DEFAULT_TELEMETRY_INTERVAL_S,
    TELEMETRY_SCHEMA,
    TelemetryRecorder,
    telemetry_section,
)
from repro.obs.trace import PacketTracer, TraceEvent, TraceKind

__all__ = [
    "Counter",
    "DEFAULT_TELEMETRY_INTERVAL_S",
    "DROP_ATTRIBUTION",
    "DeliverySketchObserver",
    "FixedWidthHistogram",
    "FlowTraceAnalysis",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "PacketTracer",
    "Profiler",
    "QuantileSketch",
    "SpaceSavingSketch",
    "RunContext",
    "STAGE_HISTOGRAM",
    "TELEMETRY_SCHEMA",
    "TelemetryRecorder",
    "TraceEvent",
    "TraceKind",
    "attribute_drops",
    "attribute_reason",
    "current",
    "current_profiler",
    "current_registry",
    "current_telemetry",
    "current_tracer",
    "fresh_run_context",
    "install",
    "telemetry_section",
]
