"""Simulated-time telemetry: per-window counter deltas and level samples.

DIFANE's headline claims are *dynamic* — first-packet latency stays in
the data plane, cache misses decay as wildcard rules install, authority
load stays balanced — and an end-of-run counter snapshot cannot show any
of them.  The :class:`TelemetryRecorder` turns the
:class:`~repro.obs.registry.MetricsRegistry` into deterministic time
series: the event scheduler closes a **window** every ``interval_s``
seconds of *simulated* time and the recorder stores, per window, the
delta of every counter plus gauge-like **probe** samples (cache
occupancy, cumulative evictions) contributed by live components.

Determinism contract
--------------------
Windows are a pure function of the event stream:

* windows are indexed by absolute simulated time (window ``i`` covers
  ``[i * interval, (i + 1) * interval)``), so several sequential
  simulations in one run context overlay into one series;
* the scheduler checks every event against the next window boundary
  *before* firing it, so a window's deltas come exactly from the events
  inside it — no wall clocks, no sampling jitter;
* window merging (counter deltas add, probe samples max) is associative
  and commutative, which is what makes ``--jobs N`` telemetry
  byte-identical to a serial run (worker recorders are folded window-wise
  into the parent's — see :mod:`repro.parallel.runner`).

The exported section is versioned ``difane-telemetry/1`` and embedded in
the canonical metrics document by
:func:`repro.experiments.common.metrics_document`; the health detectors
(:mod:`repro.obs.health`) run over it and attach structured findings.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.obs.registry import EXCLUDED_PREFIXES, MetricsRegistry

__all__ = [
    "TelemetryRecorder",
    "telemetry_section",
    "control_plane_section",
    "TELEMETRY_SCHEMA",
    "CONTROL_PLANE_SCHEMA",
    "DEFAULT_TELEMETRY_INTERVAL_S",
]

#: Version tag of the telemetry section inside the metrics document.
TELEMETRY_SCHEMA = "difane-telemetry/1"

#: Version tag of the control-plane section (shard membership, lease
#: events, migrations — see :meth:`repro.core.shards.ShardedControlPlane.export`).
CONTROL_PLANE_SCHEMA = "difane-control-plane/1"

#: Default sampling cadence in simulated seconds.  Chosen so the pinned
#: golden configurations (C1 soak at 0.3–1.0 s, A6 transient at 0.4 s)
#: produce a handful-to-dozens of windows — enough to see dynamics,
#: small enough to diff by eye.
DEFAULT_TELEMETRY_INTERVAL_S = 0.05

#: A probe returns gauge-like levels keyed by rendered metric name; it is
#: sampled at every window close of the scheduler it is registered on.
Probe = Callable[[], Dict[str, float]]


class TelemetryRecorder:
    """Window-wise counter deltas and probe samples over simulated time.

    The recorder itself is passive: an :class:`~repro.net.events.EventScheduler`
    whose ``telemetry`` binding points here calls :meth:`roll` whenever an
    event crosses the next window boundary and :meth:`flush` when a run
    ends.  A disabled recorder (the default context state) costs the
    scheduler one boolean test per run, nothing per event.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = DEFAULT_TELEMETRY_INTERVAL_S,
        enabled: bool = False,
        exclude_prefixes: Tuple[str, ...] = EXCLUDED_PREFIXES,
    ):
        if interval_s <= 0:
            raise ValueError(f"telemetry interval must be positive, got {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self.enabled = enabled
        self.exclude_prefixes = tuple(exclude_prefixes)
        #: window index → (counter deltas, probe samples), both keyed by
        #: rendered metric name.
        self._windows: Dict[int, Tuple[Dict[str, float], Dict[str, float]]] = {}
        #: Counter values at the last sample (the delta baseline).
        self._last_values: Dict[str, float] = {}
        #: Per-class SLO specs (:class:`repro.obs.qos.SloSpec`) the health
        #: layer evaluates over these windows; empty (the default) keeps
        #: the exported section — and every pre-QoS golden — unchanged.
        self.slo_specs: List[object] = []

    # -- scheduler-facing sampling --------------------------------------------
    def deadline(self, index: int) -> float:
        """Absolute simulated time at which window ``index`` closes."""
        return (index + 1) * self.interval_s

    def roll(
        self, index: int, now: float, probes: Iterable[Probe] = ()
    ) -> Tuple[int, float]:
        """Close every window whose boundary is at or before ``now``.

        Called by the scheduler with the first event time at or past the
        current deadline; returns the new ``(index, deadline)`` cursor.
        All delta accrued since the previous sample came from events
        strictly before the first closed boundary, so attribution to the
        closing window is exact.
        """
        deadline = self.deadline(index)
        while now >= deadline:
            self._close(index, probes)
            index += 1
            deadline = self.deadline(index)
        return index, deadline

    def flush(self, index: int, probes: Iterable[Probe] = ()) -> int:
        """Attribute residual deltas to the (partial) window ``index``.

        Called at the end of every scheduler run so the tail of the
        timeline is never silently dropped; returns ``index`` unchanged
        (the window stays open for a continuing run).
        """
        self._close(index, probes)
        return index

    def _close(self, index: int, probes: Iterable[Probe]) -> None:
        deltas: Dict[str, float] = {}
        last = self._last_values
        exclude = self.exclude_prefixes
        for name, key, value in self.registry.counter_items():
            if name.startswith(exclude):
                continue
            delta = value - last.get(key, 0)
            if delta:
                deltas[key] = delta
                last[key] = value
        samples: Dict[str, float] = {}
        for probe in probes:
            samples.update(probe())
        if not deltas and not samples:
            return
        counters, levels = self._windows.setdefault(index, ({}, {}))
        for key, delta in deltas.items():
            counters[key] = counters.get(key, 0) + delta
        for key, value in samples.items():
            levels[key] = max(levels.get(key, value), value)

    # -- merging (parallel sweeps) --------------------------------------------
    def dump_windows(self) -> Dict[str, object]:
        """A picklable dump of the window store (worker → parent transport)."""
        return {
            "interval_s": self.interval_s,
            "windows": {
                index: {"counters": dict(counters), "samples": dict(samples)}
                for index, (counters, samples) in self._windows.items()
            },
        }

    def merge_dump(self, dump: Optional[Dict[str, object]]) -> None:
        """Fold a worker's :meth:`dump_windows` into this recorder.

        Counter deltas add and probe samples take the max — both
        associative and commutative, so the fold order (and therefore the
        worker count and scheduling) cannot change the result.
        """
        if not dump:
            return
        if dump["interval_s"] != self.interval_s:
            raise ValueError(
                f"cannot merge telemetry sampled at {dump['interval_s']}s "
                f"into a {self.interval_s}s recorder"
            )
        for index, window in dump["windows"].items():
            counters, levels = self._windows.setdefault(int(index), ({}, {}))
            for key, delta in window["counters"].items():
                counters[key] = counters.get(key, 0) + delta
            for key, value in window["samples"].items():
                levels[key] = max(levels.get(key, value), value)

    # -- export ----------------------------------------------------------------
    def export(self) -> Dict[str, object]:
        """The deterministic ``difane-telemetry/1`` section (sans findings)."""
        windows: List[Dict[str, object]] = []
        for index in sorted(self._windows):
            counters, samples = self._windows[index]
            entry: Dict[str, object] = {
                "index": index,
                "start": round(index * self.interval_s, 9),
                "end": round((index + 1) * self.interval_s, 9),
                "counters": dict(sorted(counters.items())),
            }
            if samples:
                entry["samples"] = dict(sorted(samples.items()))
            windows.append(entry)
        return {
            "schema": TELEMETRY_SCHEMA,
            "interval_s": self.interval_s,
            "windows": windows,
        }

    def __len__(self) -> int:
        return len(self._windows)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<TelemetryRecorder {state} interval={self.interval_s:g}s "
            f"{len(self._windows)} windows>"
        )


def telemetry_section(recorder: TelemetryRecorder) -> Dict[str, object]:
    """The telemetry section for the metrics document: windows + findings.

    With SLO specs attached (QoS runs) the section additionally carries
    the specs themselves, the per-class traffic totals, and the per-class
    error-budget summary — all strictly additive, so documents from runs
    without QoS are byte-identical to the pre-QoS format.
    """
    from repro.obs.health import evaluate_telemetry, qos_class_summary, slo_report

    section = recorder.export()
    if recorder.slo_specs:
        section["slo_specs"] = [spec.export() for spec in recorder.slo_specs]
    section["findings"] = evaluate_telemetry(section)
    classes = qos_class_summary(section)
    if classes:
        section["classes"] = classes
    if recorder.slo_specs:
        section["slo"] = slo_report(section)["summary"]
    return section


def control_plane_section(export: Dict[str, object]) -> Dict[str, object]:
    """Normalize a control-plane export into the metrics document section.

    ``export`` is what :meth:`ShardedControlPlane.export` returns — a
    plain dict already, but this chokepoint stamps (and pins) the schema
    tag and sorts the top-level keys so the section diffs stably across
    runs and releases.
    """
    section = dict(sorted(export.items()))
    section["schema"] = CONTROL_PLANE_SCHEMA
    return section
