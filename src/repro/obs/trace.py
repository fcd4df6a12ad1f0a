"""Structured packet-lifecycle tracing.

Every packet's trip through a DIFANE fabric is a small span tree:
ingress → cache-hit / redirect → authority handling → cache install →
delivery (or a drop / degradation with a cause).  The tracer records
those moments as typed events in a bounded ring buffer, cheap enough to
leave compiled in (a disabled tracer costs one attribute read per call
site) and exportable as JSONL for offline analysis.

The tracer is also an accounting oracle: terminal events (``delivered``
/ ``dropped``) are emitted from exactly the same code paths as
:class:`~repro.net.simnet.DeliveryRecord`, so — ring budget permitting —
:meth:`PacketTracer.accounting` must reconcile exactly with the
network's delivered/dropped totals.  The hypothesis suite asserts that
under randomized chaos schedules.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Iterable, List, Optional

__all__ = ["TraceKind", "TraceEvent", "PacketTracer", "records_like"]


class TraceKind:
    """Event-type vocabulary (plain strings, stable across exports)."""

    INGRESS = "ingress"                  # packet entered the network
    CACHE_HIT = "cache-hit"              # ingress cache rule matched
    AUTHORITY_HIT = "authority-hit"      # local authority rule matched
    REDIRECT = "redirect"                # partition rule: tunnel to authority
    FAILOVER = "failover"                # primary dead, backup chosen
    DEGRADED = "degraded"                # orphaned partition: controller punt
    AUTHORITY_HANDLE = "authority-handle"  # redirected packet served
    PUNT = "punt"                        # NOX-style PacketIn to controller
    INSTALL_SENT = "install-sent"        # authority pushed a cache rule
    INSTALL_RECEIVED = "install-received"  # ingress switch absorbed it
    DELIVERED = "delivered"              # terminal: reached its host
    DROPPED = "dropped"                  # terminal: lost (detail = reason)
    # Control-plane spans (subject is a rule / shard, not a packet).
    MIGRATE_START = "migrate-start"      # two-phase migration: install at target
    MIGRATE_FLIP = "migrate-flip"        # redirects re-pointed at the target
    MIGRATE_DONE = "migrate-done"        # source retired, migration complete
    SHARD_TAKEOVER = "shard-takeover"    # lease expired, new leader elected

    #: Terminal kinds: exactly one per packet that leaves the system.
    TERMINAL = frozenset({DELIVERED, DROPPED})


@dataclass
class TraceEvent:
    """One typed moment in a packet's lifecycle."""

    time: float
    kind: str
    packet_id: Optional[int]
    flow_id: Optional[int]
    node: Optional[str]
    detail: Optional[str] = None
    via_authority: bool = False
    via_controller: bool = False


class PacketTracer:
    """A ring-buffered recorder of :class:`TraceEvent`.

    Parameters
    ----------
    capacity:
        Ring budget; the oldest events are discarded beyond it (the
        ``truncated`` count in :meth:`accounting` tells you whether the
        window was big enough).
    enabled:
        Disabled (the default) the tracer records nothing; call sites
        check ``tracer.enabled`` before building event arguments, so the
        off cost is a single attribute read.
    """

    def __init__(self, capacity: int = 262_144, enabled: bool = False):
        self.capacity = capacity
        self.enabled = enabled
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.recorded = 0

    # -- recording ------------------------------------------------------------
    def record(
        self,
        time: float,
        kind: str,
        packet,
        node: Optional[str] = None,
        detail: Optional[str] = None,
    ) -> None:
        """Append one event for ``packet`` (any object with packet fields)."""
        if not self.enabled:
            return
        self.recorded += 1
        self._events.append(
            TraceEvent(
                time=time,
                kind=kind,
                packet_id=getattr(packet, "packet_id", None),
                flow_id=getattr(packet, "flow_id", None),
                node=node,
                detail=detail,
                via_authority=getattr(packet, "via_authority", False),
                via_controller=getattr(packet, "via_controller", False),
            )
        )

    # -- reading --------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[TraceEvent]:
        """Buffered events, optionally filtered by ``kind``."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    @property
    def evicted(self) -> int:
        """Events silently pushed out of the ring by newer ones.

        A non-zero value means the ring budget was exceeded and every
        count derived from the buffer under-reports — reconciliation
        against the network's delivery log is only exact when this is 0.
        """
        return self.recorded - len(self._events)

    #: Historical name for :attr:`evicted`; kept because the property
    #: suite and external trace consumers read ``truncated``.
    truncated = evicted

    def accounting(self) -> Dict[str, int]:
        """Totals that must reconcile with the network's delivery log.

        ``delivered`` and ``dropped`` count terminal events; ``degraded``
        counts controller-punt fallbacks; ``ingress`` counts entries.
        ``evicted`` (alias ``truncated``) counts ring-buffer evictions:
        with ``evicted == 0`` the totals match ``SimNetwork`` exactly,
        otherwise the buffer provably under-reports by that many events.
        """
        totals = {
            "ingress": 0,
            "delivered": 0,
            "dropped": 0,
            "degraded": 0,
            "evicted": self.evicted,
            "truncated": self.truncated,
        }
        for event in self._events:
            if event.kind == TraceKind.INGRESS:
                totals["ingress"] += 1
            elif event.kind == TraceKind.DELIVERED:
                totals["delivered"] += 1
            elif event.kind == TraceKind.DROPPED:
                totals["dropped"] += 1
            elif event.kind == TraceKind.DEGRADED:
                totals["degraded"] += 1
        return totals

    def terminal_events_by_packet(self) -> Dict[Optional[int], List[TraceEvent]]:
        """Terminal events grouped by packet id (exactly-once checks)."""
        by_packet: Dict[Optional[int], List[TraceEvent]] = {}
        for event in self._events:
            if event.kind in TraceKind.TERMINAL:
                by_packet.setdefault(event.packet_id, []).append(event)
        return by_packet

    # -- export ---------------------------------------------------------------
    def write_jsonl(self, path_or_handle, extra: Optional[Dict[str, object]] = None) -> int:
        """Write buffered events as JSON Lines; returns the line count."""
        handle = path_or_handle
        opened = False
        if not hasattr(handle, "write"):
            handle = open(handle, "w")
            opened = True
        try:
            count = 0
            for event in self._events:
                row = asdict(event)
                if extra:
                    row.update(extra)
                handle.write(json.dumps(row, sort_keys=True) + "\n")
                count += 1
            return count
        finally:
            if opened:
                handle.close()

    def clear(self) -> None:
        """Drop every buffered event and reset the recorded count."""
        self._events.clear()
        self.recorded = 0

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<PacketTracer {state} {len(self._events)}/{self.capacity} events>"


def records_like(events: Iterable) -> List["_TraceRecord"]:
    """Adapt terminal trace events into delivery-record-like rows.

    Accepts :class:`TraceEvent` objects or plain dicts (the rows a trace
    JSONL decodes to).  The returned objects expose ``finished_at``,
    ``delivered``, ``via_authority`` and ``via_controller`` — the fields
    :mod:`repro.analysis.timeline` consumes — so rate/detour timelines
    can be built from a trace alone, without the network's record list.
    """
    rows: List[_TraceRecord] = []
    for event in events:
        if isinstance(event, dict):
            kind = event.get("kind")
            if kind not in TraceKind.TERMINAL:
                continue
            rows.append(
                _TraceRecord(
                    finished_at=float(event.get("time", 0.0)),
                    delivered=kind == TraceKind.DELIVERED,
                    via_authority=bool(event.get("via_authority", False)),
                    via_controller=bool(event.get("via_controller", False)),
                )
            )
        elif event.kind in TraceKind.TERMINAL:
            rows.append(
                _TraceRecord(
                    finished_at=event.time,
                    delivered=event.kind == TraceKind.DELIVERED,
                    via_authority=event.via_authority,
                    via_controller=event.via_controller,
                )
            )
    return rows


@dataclass
class _TraceRecord:
    finished_at: float
    delivered: bool
    via_authority: bool
    via_controller: bool
