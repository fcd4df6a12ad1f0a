"""Shared experiment scaffolding: calibration constants and result types.

Calibration
-----------
The paper's absolute numbers come from a specific testbed (kernel Click
switches, a NOX controller on commodity hardware).  We encode those
measured constants once, here, and every experiment derives its service
rates and latencies from them.  ``EXPERIMENTS.md`` records which constant
each reproduced figure depends on.

Rate scaling: scaling *every* rate by ``s`` while scaling time by ``1/s``
leaves queueing dynamics identical (the event system is memoryless in
absolute time), so experiments accept a ``scale`` knob to keep event
counts tractable and report rates already normalized back to full scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.series import Series

__all__ = [
    "Calibration",
    "CALIBRATION",
    "ExperimentResult",
    "metrics_document",
]

#: Version tag of the metrics JSON emitted for every experiment run.
METRICS_SCHEMA = "difane-metrics/1"


@dataclass(frozen=True)
class Calibration:
    """Measured constants of the paper's testbed (see module docstring)."""

    #: NOX-style controller flow-setup capacity (setups/second).
    controller_rate: float = 50_000.0
    #: One authority switch's redirect capacity (single-packet flows/s).
    authority_redirect_rate: float = 800_000.0
    #: One-way switch ↔ controller control-channel latency (seconds).
    control_latency_s: float = 4.5e-3
    #: Per-link propagation inside the enterprise (seconds).
    link_propagation_s: float = 50e-6
    #: Controller CPU queue depth before tail drop (messages).
    controller_queue: int = 1024
    #: Authority switch redirect queue depth (packets).
    redirect_queue: int = 512


CALIBRATION = Calibration()


@dataclass
class ExperimentResult:
    """What every experiment returns: series and/or table rows plus notes."""

    name: str
    title: str
    series: List[Series] = field(default_factory=list)
    table_headers: List[str] = field(default_factory=list)
    table_rows: List[List[object]] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def series_by_label(self, label: str) -> Series:
        """Find a series by its legend label."""
        for series in self.series:
            if series.label == label:
                return series
        raise KeyError(f"no series labelled {label!r} in {self.name}")


def _json_safe(value):
    """Coerce ``value`` into plain JSON types (numpy scalars → Python)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(item) for item in value]
    to_python = getattr(value, "item", None)
    if callable(to_python):
        try:
            return _json_safe(to_python())
        except (TypeError, ValueError):
            pass
    return repr(value)


def metrics_document(
    result: ExperimentResult,
    context=None,
    exclude_prefixes=("profile_", "artifact_cache_"),
) -> Dict[str, object]:
    """The canonical metrics JSON document for one experiment run.

    Combines the experiment's public notes (underscore-prefixed entries
    are internal debris and are dropped) with the run context's registry
    snapshot.  Wall-clock ``profile_*`` histograms are excluded by
    default so the document is deterministic — golden-regression tests
    diff it verbatim.  ``artifact_cache_*`` counters describe the harness
    (hits depend on cache warmth and worker count, not on the simulated
    system), so they are excluded for the same reason.
    """
    from repro.obs import context as _obs_context

    ctx = context if context is not None else _obs_context.current()
    notes = {
        key: _json_safe(value)
        for key, value in sorted(result.notes.items())
        if not key.startswith("_")
    }
    document: Dict[str, object] = {
        "schema": METRICS_SCHEMA,
        "experiment": result.name,
        "title": result.title,
        "notes": notes,
        "metrics": ctx.metrics.snapshot(exclude_prefixes=exclude_prefixes),
    }
    # A sharded control plane's export is a first-class document section
    # (like telemetry), not a note: lift it out so goldens and obs diff
    # address it as control_plane.* paths.
    control_plane = notes.pop("control_plane", None)
    if control_plane is not None:
        from repro.obs.telemetry import control_plane_section

        document["control_plane"] = control_plane_section(control_plane)
    if ctx.tracer.enabled:
        document["trace"] = ctx.tracer.accounting()
    recorder = getattr(ctx, "telemetry", None)
    if recorder is not None and recorder.enabled:
        from repro.obs.telemetry import telemetry_section

        document["telemetry"] = telemetry_section(recorder)
    return document
