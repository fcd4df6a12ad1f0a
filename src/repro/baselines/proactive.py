"""The fully proactive baseline: whole policy on every ingress switch.

The reference point for TCAM accounting: with an unbounded table every
switch could simply hold the entire policy and classify locally — no
controller, no authority switches, no misses.  The paper's motivation is
that real TCAMs cannot do this; this baseline makes the comparison
concrete (its per-switch footprint is ``len(policy)``, versus DIFANE's
``len(partition rules) + per-partition share``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule
from repro.flowspace.table import RuleTable
from repro.net.simnet import SimNetwork
from repro.net.topology import Topology
from repro.switch.switch import DataPlaneSwitch

__all__ = ["ProactiveSwitch", "ProactiveNetwork"]


class ProactiveSwitch(DataPlaneSwitch):
    """A switch holding the complete policy (unbounded table)."""

    def __init__(self, name: str, layout: HeaderLayout, rules: Sequence[Rule]):
        super().__init__(name)
        self.layout = layout
        self.table = RuleTable(layout, [rule.derive() for rule in rules])
        self.policy_hits = 0
        self.policy_misses = 0

    def process(self, packet: Packet) -> None:
        """Classify locally against the full policy, then forward/drop."""
        if packet.is_encapsulated:
            if packet.encap_destination != self.name:
                self.network.forward_toward(self.name, packet.encap_destination, packet)
                return
            packet.decapsulate()
        rule = self.table.classify(packet)
        if rule is None:
            self.policy_misses += 1
            self.network.record_drop(packet, self.name, "no matching rule")
            return
        self.policy_hits += 1
        self.execute(packet, rule.actions)

    @property
    def tcam_footprint(self) -> int:
        """Entries this switch would need in hardware."""
        return len(self.table)


class ProactiveNetwork:
    """Facade mirroring :class:`DifaneNetwork` for the proactive baseline."""

    def __init__(self, network: SimNetwork):
        self.network = network

    @classmethod
    def build(
        cls,
        topology: Topology,
        rules: Sequence[Rule],
        layout: HeaderLayout,
    ) -> "ProactiveNetwork":
        """Install the full policy on every switch of ``topology``."""
        network = SimNetwork(topology)
        for name in topology.switches():
            network.register_node(ProactiveSwitch(name, layout, rules))
        return cls(network)

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

    def switches(self) -> List[ProactiveSwitch]:
        """All switch behaviours."""
        return [self.network.node(n) for n in self.network.topology.switches()]
