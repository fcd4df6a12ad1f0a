"""Tests for the base data-plane switch machinery."""

import pytest

from repro.flowspace import (
    ActionList,
    Drop,
    Encapsulate,
    FIVE_TUPLE_LAYOUT,
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
from repro.net import FailureInjector, SimNetwork, TopologyBuilder
from repro.obs import fresh_run_context
from repro.switch.switch import DataPlaneSwitch
from repro.workloads.policies import routing_policy_for_topology

L = TWO_FIELD_LAYOUT
FIVE_TUPLE = FIVE_TUPLE_LAYOUT


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


class TestReceivers:
    """Links hand each packet to the receiver bound for their destination:
    a registered ``DataPlaneSwitch``'s ``receive``, chosen at attach time."""

    def build_line(self, **kwargs):
        topo = TopologyBuilder.linear(3, hosts_per_switch=1)
        fresh_run_context()
        net = SimNetwork(topo)
        switches = {
            name: RecorderSwitch(name, ActionList(Forward("h2")), **kwargs)
            for name in topo.switches()
        }
        for switch in switches.values():
            net.register_node(switch)
        return topo, net, switches

    def test_a_switch_registered_after_its_links_receives(self):
        topo, net, switches = self.build_line()
        # SimNetwork built every link before any switch registered.
        assert net.link("s0", "s1").deliver == switches["s1"].receive
        assert net.link("s1", "s0").deliver == switches["s0"].receive
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert [s.packets_seen for s in switches.values()] == [1, 1, 1]
        assert net.delivered()[0].endpoint == "h2"

    def test_a_restored_switch_receives_on_its_new_links(self):
        topo, net, switches = self.build_line()
        faults = FailureInjector(net)
        old = net.link("s0", "s1")
        faults.fail_switch("s1")
        faults.restore_switch("s1")
        assert net.link("s0", "s1") is not old
        assert net.link("s0", "s1").deliver == switches["s1"].receive
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run()
        assert switches["s1"].packets_seen == 1
        assert net.delivered()[0].endpoint == "h2"

    def test_packets_in_flight_on_a_removed_link_still_arrive(self):
        topo, net, switches = self.build_line()
        net.inject_at_switch("s0", Packet.from_fields(L))  # now on s0->s1
        topo.remove_link("s0", "s1")
        net.rebuild_routes()
        net.run()
        assert switches["s1"].packets_seen == 1
        assert net.delivered()[0].endpoint == "h2"

    def test_a_rehomed_host_receives_on_its_new_link(self):
        topo = TopologyBuilder.linear(4, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE)
        dn = DifaneNetwork.build(
            topo, rules, FIVE_TUPLE, authority_switches=["s1"], redirect_rate=None
        )
        dn.controller.handle_host_move("h3", "s0")
        link = dn.network.link("s0", "h3")
        assert link.deliver.func == dn.network.record_delivery
        assert link.deliver.keywords == {"endpoint": "h3"}
        dn.send("h1", Packet.from_fields(
            FIVE_TUPLE, nw_dst=host_ips["h3"], nw_proto=6, tp_src=9, tp_dst=80
        ))
        dn.run()
        record = dn.network.deliveries[-1]
        assert (record.delivered, record.endpoint) == (True, "h3")
        assert link.packets_carried == 1

    def test_forwarding_delay_counts_on_arrival_and_processes_late(self):
        topo, net, switches = self.build_line(forwarding_delay_s=1e-3)
        net.inject_from_host("h0", Packet.from_fields(L))
        net.run(until=5e-4)
        assert switches["s0"].packets_seen == 1
        assert switches["s0"].processed_at == []
        net.run()
        assert [s.packets_seen for s in switches.values()] == [1, 1, 1]
        assert net.metrics.value("switch_packets_seen_total", switch="s2") == 1
        assert len(net.delivered()) == 1

    def test_processing_rate_counts_every_arrival_and_every_overload_drop(self):
        topo, net, switches = self.build_line(processing_rate=1.0, queue_limit=1)
        for _ in range(5):
            net.inject_from_host("h0", Packet.from_fields(L))
        net.run(until=0.5)
        s0 = switches["s0"]
        # One in service, one queued, three tail-dropped.
        assert (s0.packets_seen, s0.packets_dropped_overload) == (5, 3)
        assert net.metrics.value("switch_packets_seen_total", switch="s0") == 5
        assert net.metrics.value("switch_queue_drops_total", switch="s0") == 3
        assert s0.processed_at == []  # service takes a second
        net.run()
        assert s0.processed_at[1] - s0.processed_at[0] == pytest.approx(1.0)
        assert len(s0.processed_at) == len(net.delivered()) == 2
