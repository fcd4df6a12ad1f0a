"""Flow-causal analysis of the packet trace stream.

The :class:`~repro.obs.trace.PacketTracer` emits a flat, time-ordered
event stream; the DIFANE-vs-NOX argument is about *structure* — where a
first packet's latency goes.  This module folds the stream back into
per-packet spans grouped into per-flow trees, and decomposes each
packet's life into named stages:

``ingress`` → ``redirect`` (travel to the authority switch, including
failover re-steering) → ``authority-handle`` (redirect-queue wait plus
authority classification) → ``install`` (cache-rule push back to the
ingress switch) → ``delivery`` (the remaining trip to the host), with
``controller-punt`` covering the degraded/NOX detour.

The decomposition telescopes: the per-stage durations of a packet sum
exactly to its terminal latency (a hypothesis property in
``tests/test_flowtrace.py``), so the stage split is an attribution of
the measured latency, never an estimate alongside it.  The miss-penalty
CDF — latency of packets that took the authority/controller detour vs
cache hits — is the paper's Figure-10 claim, derivable here from any
trace JSONL without rerunning the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.series import Series
from repro.obs.sketch import DeliveryReader
from repro.obs.trace import TraceEvent, TraceKind

__all__ = ["PacketSpan", "FlowTrace", "FlowTraceAnalysis", "STAGE_OF_KIND", "STAGES",
           "FirstDetourReader"]

#: Stage charged for the segment *starting* at an event of this kind.
#: Kinds absent here (terminal events, install-received) never start a
#: segment that needs attribution.
STAGE_OF_KIND = {
    TraceKind.INGRESS: "ingress",
    TraceKind.CACHE_HIT: "delivery",
    TraceKind.AUTHORITY_HIT: "delivery",
    TraceKind.REDIRECT: "redirect",
    TraceKind.FAILOVER: "redirect",
    TraceKind.AUTHORITY_HANDLE: "authority-handle",
    TraceKind.INSTALL_SENT: "install",
    TraceKind.INSTALL_RECEIVED: "install",
    TraceKind.DEGRADED: "controller-punt",
    TraceKind.PUNT: "controller-punt",
}

#: Canonical stage order for reports.
STAGES = (
    "ingress",
    "redirect",
    "authority-handle",
    "install",
    "controller-punt",
    "delivery",
)

#: Path classes in precedence order: the first marker kind present in a
#: packet's events decides its class.
_PATH_PRECEDENCE = (
    (TraceKind.DEGRADED, "degraded"),
    (TraceKind.PUNT, "controller-punt"),
    (TraceKind.REDIRECT, "redirect"),
    (TraceKind.AUTHORITY_HIT, "authority-local"),
    (TraceKind.CACHE_HIT, "cache-hit"),
)

#: Path classes whose first-packet latency is a "miss penalty" (the
#: packet left the pure ingress-cache fast path).
MISS_PATHS = frozenset({"redirect", "degraded", "controller-punt", "authority-local"})


@dataclass
class PacketSpan:
    """One packet's reconstructed lifecycle."""

    packet_id: int
    flow_id: Optional[int]
    path: str                       # cache-hit / redirect / degraded / ...
    delivered: bool
    start: float
    end: float
    #: stage name → summed seconds; telescopes to ``end - start``.
    stages: Dict[str, float]
    events: List[TraceEvent] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.end - self.start


@dataclass
class FlowTrace:
    """All spans of one flow, in packet order."""

    flow_id: Optional[int]
    spans: List[PacketSpan]

    @property
    def first(self) -> PacketSpan:
        return self.spans[0]

    @property
    def total_latency(self) -> float:
        return sum(span.latency for span in self.spans)


def _as_event(row) -> TraceEvent:
    if isinstance(row, TraceEvent):
        return row
    return TraceEvent(
        time=float(row.get("time", 0.0)),
        kind=row["kind"],
        packet_id=row.get("packet_id"),
        flow_id=row.get("flow_id"),
        node=row.get("node"),
        detail=row.get("detail"),
        via_authority=bool(row.get("via_authority", False)),
        via_controller=bool(row.get("via_controller", False)),
    )


def _classify_path(kinds: frozenset) -> str:
    for marker, path in _PATH_PRECEDENCE:
        if marker in kinds:
            return path
    return "unknown"


class FlowTraceAnalysis:
    """Per-flow span trees over a trace event stream.

    Build with :meth:`from_events` (accepts :class:`TraceEvent` objects
    or the dict rows a trace JSONL decodes to).  Events without a packet
    id — rule-object installs from older traces, channel bookkeeping —
    are counted in :attr:`unattributed` and skipped.
    """

    def __init__(self, spans: List[PacketSpan], unattributed: int = 0):
        self.spans = spans
        self.unattributed = unattributed
        #: Events the source ring evicted (:meth:`from_tracer`): non-zero = partial.
        self.evicted = 0
        self.flows: Dict[Optional[int], FlowTrace] = {}
        for span in spans:
            trace = self.flows.get(span.flow_id)
            if trace is None:
                self.flows[span.flow_id] = FlowTrace(span.flow_id, [span])
            else:
                trace.spans.append(span)

    @classmethod
    def from_events(cls, events: Iterable) -> "FlowTraceAnalysis":
        by_packet: Dict[int, List[Tuple[int, TraceEvent]]] = {}
        unattributed = 0
        for index, row in enumerate(events):
            event = _as_event(row)
            if event.packet_id is None:
                unattributed += 1
                continue
            by_packet.setdefault(event.packet_id, []).append((index, event))
        spans = []
        for packet_id in sorted(by_packet):
            span = cls._fold_packet(packet_id, by_packet[packet_id])
            if span is not None:
                spans.append(span)
        return cls(spans, unattributed=unattributed)

    @classmethod
    def from_tracer(cls, tracer) -> "FlowTraceAnalysis":
        analysis = cls.from_events(tracer.events())
        analysis.evicted = tracer.evicted
        return analysis

    @staticmethod
    def _fold_packet(
        packet_id: int, indexed: List[Tuple[int, TraceEvent]]
    ) -> Optional[PacketSpan]:
        # Stable in-time order: the tracer appends in event-loop order,
        # so the original index breaks same-timestamp ties exactly the
        # way the simulation executed them.
        indexed.sort(key=lambda pair: (pair[1].time, pair[0]))
        events = [event for _, event in indexed]
        kinds = frozenset(event.kind for event in events)
        terminal = next(
            (event for event in events if event.kind in TraceKind.TERMINAL), None
        )
        start = events[0].time
        end = terminal.time if terminal is not None else events[-1].time
        stages: Dict[str, float] = {}
        # Charge the segment between consecutive events to the stage the
        # *earlier* event begins; the sum telescopes to end - start.
        for earlier, later in zip(events, events[1:]):
            if earlier.time >= end:
                break
            duration = min(later.time, end) - earlier.time
            if duration <= 0:
                continue
            stage = STAGE_OF_KIND.get(earlier.kind, "delivery")
            stages[stage] = stages.get(stage, 0.0) + duration
        return PacketSpan(
            packet_id=packet_id,
            flow_id=events[0].flow_id,
            path=_classify_path(kinds),
            delivered=terminal is not None and terminal.kind == TraceKind.DELIVERED,
            start=start,
            end=end,
            stages=stages,
            events=events,
        )

    # -- aggregates ------------------------------------------------------------
    def stage_totals(self) -> Dict[str, float]:
        """Summed seconds per stage across every span."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            for stage, duration in span.stages.items():
                totals[stage] = totals.get(stage, 0.0) + duration
        return dict(sorted(totals.items(), key=lambda kv: STAGES.index(kv[0])))

    def miss_penalty_cdf(self) -> Series:
        """CDF of delivered first-packet latency on the miss path (ms).

        "First packet" = the earliest delivered span of each flow that
        left the cache fast path — the packets whose latency DIFANE's
        data-plane design is about.
        """
        latencies = []
        for trace in self.flows.values():
            for span in trace.spans:
                if span.delivered and span.path in MISS_PATHS:
                    latencies.append(span.latency)
                    break
        series = Series(
            label="miss penalty",
            x_label="first-packet latency (ms)",
            y_label="CDF",
            meta={"samples": len(latencies)},
        )
        for rank, latency in enumerate(sorted(latencies), start=1):
            series.append(latency * 1e3, rank / len(latencies))
        return series

    def top_flows(self, k: int = 5) -> List[Tuple[Optional[int], int, float]]:
        """Heaviest flows as ``(flow_id, packets, total seconds)``.

        Sorted by packet count then total latency, descending; flow id
        breaks exact ties so the ranking is deterministic.
        """
        rows = [
            (trace.flow_id, len(trace.spans), trace.total_latency)
            for trace in self.flows.values()
        ]
        rows.sort(key=lambda row: (-row[1], -row[2], str(row[0])))
        return rows[:k]

    def summary(self) -> Dict[str, object]:
        """Compact machine-readable rollup (used by ``repro report``)."""
        paths: Dict[str, int] = {}
        for span in self.spans:
            paths[span.path] = paths.get(span.path, 0) + 1
        cdf = self.miss_penalty_cdf()
        return {
            "packets": len(self.spans),
            "flows": len(self.flows),
            "unattributed_events": self.unattributed,
            "evicted_events": self.evicted,
            "paths": dict(sorted(paths.items())),
            "stage_totals_s": {
                stage: round(total, 9) for stage, total in self.stage_totals().items()
            },
            "miss_penalty_samples": len(cdf),
            "miss_penalty_p50_ms": _percentile(cdf.x, 0.5),
            "miss_penalty_p99_ms": _percentile(cdf.x, 0.99),
        }


class FirstDetourReader(DeliveryReader):
    """The miss penalty with no tracer running: an outcome reader that
    keeps one first-detour delay per flow.

    Same definition as :meth:`FlowTraceAnalysis.miss_penalty_cdf` — per
    flow, the lowest-packet-id delivered packet that detoured
    (``via_authority``: redirect; ``via_controller``: degraded or NOX
    punt), latency from creation to delivery.  Drops carry no penalty.
    An *authority-local* ingress hit sets neither flag: callers rule it
    out.
    """

    __slots__ = ("_first",)

    def __init__(self):
        #: flow id -> (lowest detoured packet id, its delay in seconds)
        self._first: Dict[Optional[int], Tuple[int, float]] = {}

    def observe_delivery(self, packet, endpoint: str, now: float) -> None:
        if packet.via_authority or packet.via_controller:
            seen = self._first.get(packet.flow_id)
            if seen is None or packet.packet_id < seen[0]:
                self._first[packet.flow_id] = (
                    packet.packet_id, now - (packet.created_at or 0.0)
                )

    def summary(self) -> Dict[str, object]:
        """:meth:`FlowTraceAnalysis.summary`'s ``miss_penalty_*`` keys."""
        latencies = sorted(latency * 1e3 for _, latency in self._first.values())
        return {
            "miss_penalty_samples": len(latencies),
            "miss_penalty_p50_ms": _percentile(latencies, 0.5),
            "miss_penalty_p99_ms": _percentile(latencies, 0.99),
        }


def _percentile(sorted_values: List[float], q: float) -> Optional[float]:
    if not sorted_values:
        return None
    rank = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return round(sorted_values[rank], 6)
