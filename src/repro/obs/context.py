"""The process-wide observability run context.

One experiment run = one :class:`RunContext`: a metrics registry, a
packet tracer, a profiler and a telemetry recorder that every component
constructed during the run binds to (``SimNetwork`` reads all four from
:func:`current`; ``ServiceStation`` and ``ControlChannel`` resolve it
when not handed an explicit registry).  The CLI, the benchmark harness
and the golden tests call :func:`fresh_run_context` before a run and
snapshot after — that snapshot *is* the run's canonical metrics JSON.

A context holds observability surfaces only: what a network *does*
(its QoS policy included) is an argument of the network it governs.
The overhead benchmark prices a fully disabled observer with
``fresh_run_context(metrics_enabled=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.profile import Profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import DEFAULT_TELEMETRY_INTERVAL_S, TelemetryRecorder
from repro.obs.trace import PacketTracer

__all__ = [
    "RunContext",
    "current",
    "current_registry",
    "current_tracer",
    "current_profiler",
    "current_telemetry",
    "fresh_run_context",
    "install",
]


@dataclass
class RunContext:
    """The observability surfaces of one run."""

    metrics: MetricsRegistry
    tracer: PacketTracer
    profiler: Profiler
    telemetry: TelemetryRecorder


def _default_context() -> RunContext:
    metrics = MetricsRegistry()
    return RunContext(
        metrics=metrics,
        tracer=PacketTracer(enabled=False),
        profiler=Profiler(registry=metrics, enabled=False),
        telemetry=TelemetryRecorder(registry=metrics, enabled=False),
    )


_context: RunContext = _default_context()


def current() -> RunContext:
    """The active run context."""
    return _context


def current_registry() -> MetricsRegistry:
    return _context.metrics


def current_tracer() -> PacketTracer:
    return _context.tracer


def current_profiler() -> Profiler:
    return _context.profiler


def current_telemetry() -> TelemetryRecorder:
    return _context.telemetry


def install(context: RunContext) -> RunContext:
    """Make ``context`` the active run context; returns it."""
    global _context
    _context = context
    return context


def fresh_run_context(
    metrics_enabled: bool = True,
    trace: bool = False,
    profile: bool = False,
    telemetry=None,
) -> RunContext:
    """Install (and return) a brand-new run context.

    Components constructed *after* this call bind to the new surfaces;
    components built earlier keep their old bindings — contexts isolate
    runs, they do not rewire live objects.

    ``telemetry`` accepts ``True`` (sample at the default cadence), a
    positive float (sample every that-many simulated seconds), or
    ``None``/``False`` (disabled — no per-event cost in the scheduler).
    """
    metrics = MetricsRegistry(enabled=metrics_enabled)
    if telemetry is True:
        interval_s = DEFAULT_TELEMETRY_INTERVAL_S
    elif telemetry:
        interval_s = float(telemetry)
    else:
        interval_s = DEFAULT_TELEMETRY_INTERVAL_S
    recorder = TelemetryRecorder(
        registry=metrics,
        interval_s=interval_s,
        enabled=bool(telemetry) and metrics_enabled,
    )
    return install(
        RunContext(
            metrics=metrics,
            tracer=PacketTracer(enabled=trace),
            profiler=Profiler(registry=metrics, enabled=profile),
            telemetry=recorder,
        )
    )
