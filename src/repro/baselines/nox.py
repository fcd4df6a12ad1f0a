"""The Ethane/NOX baseline: reactive microflow installation.

This is the architecture DIFANE replaces (paper §1, §6): a packet that
misses the switch's exact-match flow table is punted to the central
controller (PacketIn), waits in the controller's CPU queue, and — once the
controller classifies it against the operator policy — comes back as a
FlowMod (install an exact-match microflow rule) plus a PacketOut
(re-inject the waiting packet).  Every architectural cost the paper
measures is visible here:

* the controller CPU is the throughput bottleneck (a few 10⁴ setups/s,
  shared by every switch);
* first packets pay a control-channel round trip plus queueing (≈10 ms);
* under overload the CPU queue tail-drops and flows are simply lost;
* flow tables fill with per-microflow entries.

Classification happens once, at the ingress switch, after which packets
travel encapsulated to the destination — the same convention the DIFANE
switches use, so delay/throughput comparisons isolate the architecture
rather than the forwarding model.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Sequence

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Match, Rule, RuleKind
from repro.flowspace.table import RuleTable
from repro.flowspace.ternary import Ternary
from repro.net.simnet import SimNetwork
from repro.net.topology import Topology
from repro.obs.trace import TraceKind
from repro.openflow.controller import Controller, DEFAULT_CONTROLLER_RATE
from repro.openflow.messages import FlowMod, FlowModCommand, Message, PacketIn, PacketOut
from repro.switch.switch import DataPlaneSwitch

__all__ = ["NoxSwitch", "NoxController", "NoxNetwork"]


class NoxSwitch(DataPlaneSwitch):
    """An OpenFlow switch holding only exact-match microflow rules.

    Parameters
    ----------
    flow_table_capacity:
        Microflow entries the switch can hold; LRU-evicted beyond that.
    """

    def __init__(
        self,
        name: str,
        layout: HeaderLayout,
        flow_table_capacity: int = 65536,
        forwarding_delay_s: float = 0.0,
    ):
        super().__init__(name, forwarding_delay_s=forwarding_delay_s)
        self.layout = layout
        self.flow_table_capacity = flow_table_capacity
        #: flow key (packed header bits) -> microflow rule, in LRU order.
        self.flow_table: "OrderedDict[int, Rule]" = OrderedDict()
        self.channel = None  # set by the controller on connect
        self.flow_hits = 0
        self.punts = 0
        self.table_evictions = 0

    # -- control plane ------------------------------------------------------------
    def receive_control(self, message: Message) -> None:
        """Handle a controller-to-switch message."""
        if isinstance(message, FlowMod):
            self._apply_flow_mod(message)
        elif isinstance(message, PacketOut):
            self._apply_packet_out(message)

    def _apply_flow_mod(self, message: FlowMod) -> None:
        if message.command is FlowModCommand.ADD and message.rule is not None:
            key = message.rule.match.ternary.value
            message.rule.installed_at = self.network.scheduler.now
            self.flow_table[key] = message.rule
            self.flow_table.move_to_end(key)
            while len(self.flow_table) > self.flow_table_capacity:
                self.flow_table.popitem(last=False)
                self.table_evictions += 1
        elif message.command is FlowModCommand.DELETE:
            if message.match is not None:
                doomed = [
                    key for key in self.flow_table
                    if message.match.matches_bits(key)
                ]
                for key in doomed:
                    del self.flow_table[key]

    def _apply_packet_out(self, message: PacketOut) -> None:
        self.execute(message.packet, message.actions)

    # -- data plane --------------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Exact-match lookup; punt to the controller on a miss."""
        if packet.is_encapsulated:
            if packet.encap_destination != self.name:
                self.network.forward_toward(self.name, packet.encap_destination, packet)
                return
            packet.decapsulate()
        rule = self.flow_table.get(packet.header_bits)
        if rule is not None:
            self.flow_hits += 1
            self.flow_table.move_to_end(packet.header_bits)
            rule.record_hit(packet, self.network.scheduler.now)
            self.execute(packet, rule.actions)
            return
        # Miss: punt to the controller; the packet rides inside the message
        # and waits in the controller queue (tail drop = packet loss).
        self.punts += 1
        packet.via_controller = True
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.record(
                self.network.scheduler.now, TraceKind.PUNT, packet, node=self.name
            )
        self.channel.send_to_controller(PacketIn(switch=self.name, packet=packet))

    def expire_flows(self, now: float) -> int:
        """Age out microflow entries whose idle/hard timeout elapsed.

        OpenFlow switches do this autonomously; call from a periodic
        tick.  Returns the number of expired entries.
        """
        doomed = [key for key, rule in self.flow_table.items() if rule.is_expired(now)]
        for key in doomed:
            del self.flow_table[key]
        return len(doomed)


class NoxController(Controller):
    """The reactive controller: classify punts, install microflow rules."""

    def __init__(
        self,
        scheduler,
        network: SimNetwork,
        layout: HeaderLayout,
        policy: Sequence[Rule],
        processing_rate: float = DEFAULT_CONTROLLER_RATE,
        queue_limit: int = 1024,
        microflow_idle_timeout: Optional[float] = 60.0,
        control_latency_s: Optional[float] = None,
    ):
        extra = {}
        if control_latency_s is not None:
            extra["control_latency_s"] = control_latency_s
        super().__init__(
            scheduler, processing_rate=processing_rate, queue_limit=queue_limit, **extra
        )
        self.network = network
        self.layout = layout
        self.policy = RuleTable(layout, policy)
        self.microflow_idle_timeout = microflow_idle_timeout
        self.flow_setups = 0
        self.policy_misses = 0

    def handle_packet_in(self, message: PacketIn) -> None:
        """Classify a punted packet; install a microflow and re-inject it."""
        packet = message.packet
        winner = self.policy.lookup(packet)
        if winner is None:
            self.policy_misses += 1
            self.network.record_drop(packet, self.name, "no policy rule")
            return
        self.flow_setups += 1
        microflow = winner.derive(
            match=Match(self.layout, Ternary.exact(packet.header_bits, self.layout.width)),
            kind=RuleKind.MICROFLOW,
            idle_timeout=self.microflow_idle_timeout,
        )
        channel = self.channels[message.switch]
        channel.send_to_switch(
            FlowMod(switch=message.switch, command=FlowModCommand.ADD, rule=microflow)
        )
        channel.send_to_switch(
            PacketOut(switch=message.switch, packet=packet, actions=winner.actions)
        )

    def on_message_dropped(self, message: Message) -> None:
        """CPU queue overflow: the punted packet is lost."""
        if isinstance(message, PacketIn):
            self.network.record_drop(message.packet, self.name, "controller overloaded")


class NoxNetwork:
    """Facade mirroring :class:`repro.core.controller.DifaneNetwork`."""

    def __init__(self, network: SimNetwork, controller: NoxController):
        self.network = network
        self.controller = controller

    @classmethod
    def build(
        cls,
        topology: Topology,
        rules: Sequence[Rule],
        layout: HeaderLayout,
        controller_rate: float = DEFAULT_CONTROLLER_RATE,
        controller_queue: int = 1024,
        flow_table_capacity: int = 65536,
        control_latency_s: Optional[float] = None,
        forwarding_delay_s: float = 0.0,
    ) -> "NoxNetwork":
        """Wire a NOX deployment over ``topology``."""
        network = SimNetwork(topology)
        controller = NoxController(
            network.scheduler,
            network,
            layout,
            rules,
            processing_rate=controller_rate,
            queue_limit=controller_queue,
            control_latency_s=control_latency_s,
        )
        for name in topology.switches():
            switch = NoxSwitch(
                name,
                layout,
                flow_table_capacity=flow_table_capacity,
                forwarding_delay_s=forwarding_delay_s,
            )
            network.register_node(switch)
            switch.channel = controller.connect_switch(switch)
        return cls(network, controller)

    def send(self, host: str, packet: Packet) -> None:
        """Inject ``packet`` from ``host`` now."""
        self.network.inject_from_host(host, packet)

    def send_at(self, time: float, host: str, packet: Packet) -> None:
        """Schedule injection at absolute ``time`` (the in-order lane)."""
        self.network.scheduler.schedule_in_order(
            time, self.network.inject_from_host, host, packet
        )

    def run(self, until: Optional[float] = None) -> int:
        """Run the event loop."""
        return self.network.run(until=until)

    def switch(self, name: str) -> NoxSwitch:
        """The switch behaviour at ``name``."""
        return self.network.node(name)
