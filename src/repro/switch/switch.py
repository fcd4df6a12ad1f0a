"""The base data-plane switch.

:class:`DataPlaneSwitch` provides everything a concrete behaviour (DIFANE
ingress/authority in :mod:`repro.core`, NOX microflow switch in
:mod:`repro.baselines`) needs:

* an optional **packet-processing budget**: a
  :class:`~repro.net.events.ServiceStation` bounding how many packets per
  second the switch's slow path can handle, with bounded queueing and loss
  — the mechanism behind every throughput figure;
* **action execution** — resolving symbolic ``Forward(destination)``
  actions through the network's routing table, applying ``SetField``
  rewrites, honouring ``Drop``;
* counter plumbing.

Subclasses implement :meth:`process` (called once per packet, in capacity
order).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.flowspace.action import (
    Action, Drop, Encapsulate, Forward, SendToController, SetField,
)
from repro.flowspace.packet import Packet
from repro.net.events import ServiceStation
from repro.obs.registry import Collectable

__all__ = ["DataPlaneSwitch"]


class DataPlaneSwitch(Collectable):
    """Base class for switch behaviours registered with a SimNetwork.

    Parameters
    ----------
    name:
        The topology node this behaviour drives.
    processing_rate:
        Packets per second the switch can *process through its lookup
        path*; ``None`` models a fast path that is never the bottleneck
        (used when an experiment isolates some other component).
    queue_limit:
        Packets that may wait for processing before tail drop.
    """

    def __init__(
        self,
        name: str,
        processing_rate: Optional[float] = None,
        queue_limit: int = 256,
        forwarding_delay_s: float = 0.0,
    ):
        self.name = name
        self.processing_rate = processing_rate
        self.queue_limit = queue_limit
        #: Fixed per-packet pipeline latency (lookup + crossbar), applied
        #: before processing; models the paper's kernel-switch hop cost.
        self.forwarding_delay_s = forwarding_delay_s
        self.network = None
        #: Liveness flag maintained by the failure injector; a dead switch
        #: keeps its state (rules survive a reboot) but stops emitting
        #: heartbeats until restored.
        self.alive = True
        self._station: Optional[ServiceStation] = None
        self.packets_seen = 0
        self.packets_dropped_overload = 0

    # -- SimNetwork protocol ------------------------------------------------------
    def attach(self, network) -> None:
        """Called by ``SimNetwork.register_node``; wires the capacity queue."""
        self.network = network
        # The run's registry reads the per-switch counts when asked; the
        # hot path pays its one += on the attribute, nothing more.
        for metric, stat in (("switch_packets_seen_total", "packets_seen"),
                             ("switch_queue_drops_total", "packets_dropped_overload")):
            network.metrics.collect(metric, self, stat, switch=self.name)
        pipeline = getattr(self, "pipeline", None)
        if pipeline is not None:
            pipeline.bind_observability(network.metrics, network.profiler)
        if self.processing_rate is not None:
            self._station = ServiceStation(
                network.scheduler,
                rate=self.processing_rate,
                on_complete=self._process_now,
                queue_limit=self.queue_limit,
                on_drop=self._overloaded,
                name=f"{self.name}.lookup",
                metrics=network.metrics,
            )
            self._admit = self._station.submit
        elif self.forwarding_delay_s <= 0:
            self.receive = self._receive_now

    def receive(self, packet: Packet) -> None:
        """Entry point from a link: count, then delay, queue or process."""
        self.packets_seen += 1
        if self.forwarding_delay_s > 0:
            self.network.scheduler.schedule(self.forwarding_delay_s, self._admit, packet)
        else:
            self._admit(packet)

    def _receive_now(self, packet: Packet) -> None:
        """:meth:`receive` bound by :meth:`attach` when nothing delays it."""
        self.packets_seen += 1
        self.process(packet)

    def handle_packet(self, network, packet: Packet) -> None:
        """Entry point for a caller holding the network: :meth:`receive`."""
        self.receive(packet)

    def _process_now(self, packet: Packet) -> None:
        """Station completion callback; resolves :meth:`process` per call so
        a subclass or a tracer patching it after ``attach`` is still seen."""
        self.process(packet)

    #: :meth:`receive`'s next step; :meth:`attach` puts a station in front.
    _admit = _process_now

    def _overloaded(self, packet: Packet) -> None:
        self.packets_dropped_overload += 1
        self.network.record_drop(packet, self.name, "switch overloaded")

    # -- action execution ---------------------------------------------------------------
    def execute(self, packet: Packet, actions: Iterable[Action]) -> None:
        """Apply an action list (an :class:`ActionList` or its ``actions``
        tuple, which hot paths pass to skip ``ActionList.__iter__``) to
        ``packet`` at this switch.

        The one action executor every behaviour shares.  ``Forward``
        targets are destinations (hosts or switches); the packet is
        encapsulated to the target and moves one hop toward it, so transit
        switches never reclassify — classification happens once, at the
        edge.  ``Encapsulate`` tunnels toward an authority switch.
        Non-terminal actions (``SetField``) apply in order before the
        terminal one.
        """
        network = self.network
        for action in actions:
            if isinstance(action, SetField):
                self._apply_rewrite(packet, action)
            elif isinstance(action, Drop):
                network.record_drop(packet, self.name, "policy drop")
                return
            elif isinstance(action, Forward):
                packet.encapsulate(action.port)
                network.forward_toward(self.name, action.port, packet)
                return
            elif isinstance(action, Encapsulate):
                packet.encapsulate(action.destination)
                network.forward_toward(self.name, action.destination, packet)
                return
            elif isinstance(action, SendToController):
                # A policy verdict cannot punt: the packet is already past
                # its controller (NOX) or has none to reach (DIFANE).
                network.record_drop(packet, self.name, "punt without controller")
                return
        # An action list with no terminal action means implicit drop.
        network.record_drop(packet, self.name, "no terminal action")

    def _apply_rewrite(self, packet: Packet, action: SetField) -> None:
        spec = packet.layout.field(action.field_name)
        offset = packet.layout.offset(action.field_name)
        field_mask = ((1 << spec.width) - 1) << offset
        packet.header_bits = (packet.header_bits & ~field_mask) | (
            (action.value << offset) & field_mask
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} seen={self.packets_seen}>"
