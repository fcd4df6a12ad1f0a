"""The capacity-bounded controller skeleton.

A :class:`Controller` owns one :class:`~repro.openflow.channel.ControlChannel`
per switch and a CPU modelled as a
:class:`~repro.net.events.ServiceStation`: every inbound message queues for
the CPU and is dispatched to ``handle_<type>`` methods after service.  The
service rate is the famous number in this paper — a NOX-era controller
handles a few tens of thousands of flow setups per second, and that budget
is what DIFANE removes from the critical path.

:class:`repro.baselines.nox.NoxController` (reactive microflow install)
is the one subclass.  :class:`repro.core.controller.DifaneController` is
not one: it subclasses :class:`~repro.obs.registry.Collectable` and opens
its own channels in ``connect_control_plane``, because its proactive
partition distribution never puts a controller CPU on the packet path
(the paper's point).
"""

from __future__ import annotations

from typing import Dict

from repro.net.events import EventScheduler, ServiceStation
from repro.openflow.channel import ControlChannel, DEFAULT_CONTROL_LATENCY_S
from repro.openflow.messages import (
    BarrierReply,
    BarrierRequest,
    FlowRemoved,
    Message,
    PacketIn,
    StatsReply,
)

__all__ = ["Controller"]

#: Default controller flow-setup capacity (messages/second).  Calibrated to
#: the paper's NOX measurements (tens of thousands of setups/s).
DEFAULT_CONTROLLER_RATE = 50_000.0


class Controller:
    """Base controller: per-switch channels plus a bounded CPU."""

    def __init__(
        self,
        scheduler: EventScheduler,
        processing_rate: float = DEFAULT_CONTROLLER_RATE,
        queue_limit: int = 1024,
        control_latency_s: float = DEFAULT_CONTROL_LATENCY_S,
        name: str = "controller",
    ):
        self.scheduler = scheduler
        self.name = name
        self.control_latency_s = control_latency_s
        self.channels: Dict[str, ControlChannel] = {}
        self._cpu = ServiceStation(
            scheduler,
            rate=processing_rate,
            on_complete=self._dispatch,
            queue_limit=queue_limit,
            on_drop=self._on_overload,
            name=f"{name}.cpu",
        )
        self.messages_received = 0
        self.messages_dropped = 0

    # -- wiring ------------------------------------------------------------------
    def connect_switch(self, switch) -> ControlChannel:
        """Create the control session for ``switch`` and hand it over.

        ``switch`` must expose ``name`` and ``receive_control(message)``.
        """
        channel = ControlChannel(
            self.scheduler,
            switch.name,
            to_controller=self._enqueue,
            to_switch=switch.receive_control,
            latency_s=self.control_latency_s,
        )
        self.channels[switch.name] = channel
        return channel

    # -- inbound path ----------------------------------------------------------------
    def _enqueue(self, message: Message) -> None:
        self.messages_received += 1
        self._cpu.submit(message)

    def _on_overload(self, message: Message) -> None:
        self.messages_dropped += 1
        self.on_message_dropped(message)

    def _dispatch(self, message: Message) -> None:
        if isinstance(message, PacketIn):
            self.handle_packet_in(message)
        elif isinstance(message, FlowRemoved):
            self.handle_flow_removed(message)
        elif isinstance(message, BarrierRequest):
            self.handle_barrier(message)
        elif isinstance(message, StatsReply):
            self.handle_stats_reply(message)
        else:
            self.handle_other(message)

    # -- hooks -------------------------------------------------------------------------
    def handle_packet_in(self, message: PacketIn) -> None:
        """React to a punted packet.  Default: ignore."""

    def handle_flow_removed(self, message: FlowRemoved) -> None:
        """React to a rule expiry notification.  Default: ignore."""

    def handle_barrier(self, message: BarrierRequest) -> None:
        """Acknowledge a barrier.  Default: immediate reply."""
        reply = BarrierReply(switch=message.switch)
        reply.request_xid = message.xid
        self.channels[message.switch].send_to_switch(reply)

    def handle_stats_reply(self, message: StatsReply) -> None:
        """Consume a counter snapshot.  Default: ignore."""

    def handle_other(self, message: Message) -> None:
        """Fallback for unclassified messages.  Default: ignore."""

    def on_message_dropped(self, message: Message) -> None:
        """Called when the CPU queue overflowed.  Default: nothing."""

    # -- statistics --------------------------------------------------------------------
    @property
    def cpu(self) -> ServiceStation:
        """The CPU service queue (for utilization/queue-depth probes)."""
        return self._cpu

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name} switches={len(self.channels)} "
            f"rx={self.messages_received} dropped={self.messages_dropped}>"
        )
