"""Tests for the base data-plane switch machinery."""

import pytest

from repro.flowspace import (
    ActionList,
    Drop,
    Encapsulate,
    Forward,
    Packet,
    SendToController,
    SetField,
    TWO_FIELD_LAYOUT,
)
from repro.baselines.nox import NoxNetwork
from repro.baselines.proactive import ProactiveNetwork
from repro.core import DifaneNetwork
from repro.flowspace import Match, Rule
from repro.net import SimNetwork, TopologyBuilder
from repro.switch.switch import DataPlaneSwitch

L = TWO_FIELD_LAYOUT


class RecorderSwitch(DataPlaneSwitch):
    """Executes a fixed action list against every packet."""

    def __init__(self, name, actions, **kwargs):
        super().__init__(name, **kwargs)
        self.script = actions
        self.processed_at = []

    def process(self, packet):
        self.processed_at.append(self.network.scheduler.now)
        self.execute(packet, self.script)


def build(actions, **kwargs):
    topo = TopologyBuilder.linear(2, hosts_per_switch=1)
    net = SimNetwork(topo)
    switch = RecorderSwitch("s0", actions, **kwargs)
    net.register_node(switch)
    net.register_node(RecorderSwitch("s1", ActionList(Forward("h1"))))
    return net, switch


class TestActionExecution:
    def test_forward_moves_toward_destination(self):
        net, switch = build(ActionList(Forward("h1")))
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert net.delivered()[0].endpoint == "h1"

    def test_drop(self):
        net, switch = build(ActionList(Drop()))
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert net.dropped()[0].drop_reason == "policy drop"

    def test_set_field_rewrites_header(self):
        delivered_bits = []

        class Probe(RecorderSwitch):
            def process(self, packet):
                super().process(packet)
                delivered_bits.append(packet.field("f1"))

        topo = TopologyBuilder.linear(1, hosts_per_switch=2)
        net = SimNetwork(topo)
        probe = Probe("s0", ActionList(SetField("f1", 0xAB), Forward("h1")))
        net.register_node(probe)
        net.inject_from_host("h0", Packet.from_fields(L, f1=1))
        net.run()
        assert delivered_bits == [0xAB]
        assert net.delivered()[0].endpoint == "h1"

    def test_encapsulate_tunnels(self):
        net, switch = build(ActionList(Encapsulate("s1")))
        packet = Packet.from_fields(L)
        net.inject_from_host("h0", packet)
        net.run()
        # Arrived at s1 still encapsulated; s1's script forwards to h1
        # without decapsulating — delivery happens at the tunnel endpoint
        # resolution (s1 processes it as its own packet).
        assert packet.hops >= 2

    def test_punt_without_controller_drops(self):
        net, switch = build(ActionList(SendToController()))
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert "punt" in net.dropped()[0].drop_reason

    def test_empty_action_list_drops(self):
        net, switch = build(ActionList())
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert net.dropped()[0].drop_reason == "no terminal action"


class TestOneExecutor:
    """``execute`` is the one scalar action executor: Forward tunnels to
    its target, the first terminal action ends the list, and every
    behaviour (DIFANE, NOX, proactive) applies its verdicts through it."""

    def test_forward_encapsulates_to_the_target(self):
        net, switch = build(ActionList(Forward("h1")))
        packet = Packet.from_fields(L)
        net.inject_from_host("h0", packet)
        net.run()
        assert packet.encap_destination == "h1"
        assert net.delivered()[0].endpoint == "h1"

    def test_first_terminal_action_wins(self):
        net, switch = build(ActionList(Drop(), Forward("h1")))
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert not net.delivered()
        assert net.dropped()[0].drop_reason == "policy drop"

    def test_rewrite_applies_before_encapsulate(self):
        net, switch = build(ActionList(SetField("f1", 0x5A), Encapsulate("s1")))
        packet = Packet.from_fields(L, f1=1)
        net.inject_from_host("h0", packet)
        net.run()
        assert packet.field("f1") == 0x5A
        assert net.delivered()[0].endpoint == "h1"

    @pytest.mark.parametrize("architecture", ["difane", "nox", "proactive"])
    def test_every_behaviour_executes_through_it(self, architecture):
        """A verdict that punts cannot reach a controller from here: each
        architecture drops it the way ``execute`` does, after rewriting."""
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        policy = [Rule(
            Match.any(L), 1, ActionList(SetField("f1", 0x5A), SendToController())
        )]
        if architecture == "difane":
            facade = DifaneNetwork.build(
                topo, policy, L, authority_switches=["s1"], redirect_rate=None
            )
        elif architecture == "nox":
            facade = NoxNetwork.build(topo, policy, L)
        else:
            facade = ProactiveNetwork.build(topo, policy, L)
        packet = Packet.from_fields(L, f1=1)
        facade.send("h0", packet)
        facade.run()
        assert [r.drop_reason for r in facade.network.deliveries] == [
            "punt without controller"
        ]
        assert packet.field("f1") == 0x5A


class TestCapacity:
    def test_processing_rate_queues(self):
        net, switch = build(ActionList(Forward("h1")), processing_rate=100.0)
        for _ in range(3):
            net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert len(switch.processed_at) == 3
        gaps = [b - a for a, b in zip(switch.processed_at, switch.processed_at[1:])]
        assert all(gap == pytest.approx(0.01, rel=1e-6) for gap in gaps)

    def test_queue_overflow_drops(self):
        net, switch = build(
            ActionList(Forward("h1")), processing_rate=1.0, queue_limit=1
        )
        for _ in range(5):
            net.inject_from_host("h0", Packet.from_fields(L))
        net.run(until=0.5)
        assert switch.packets_dropped_overload > 0
        reasons = {r.drop_reason for r in net.dropped()}
        assert "switch overloaded" in reasons

    def test_forwarding_delay_applies(self):
        net, switch = build(ActionList(Forward("h1")), forwarding_delay_s=1e-3)
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert switch.processed_at[0] >= 1e-3
