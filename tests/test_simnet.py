"""Unit tests for the SimNetwork harness."""

import pytest

from repro.flowspace import Packet, TWO_FIELD_LAYOUT
from repro.net import SimNetwork, TopologyBuilder
from repro.net.failures import FailureInjector
from repro.net.simnet import CONTROL_OVERHEAD_S
from repro.net.topology import Topology
from repro.obs.registry import MetricsRegistry
from repro.obs.sketch import DeliverySketchObserver


class EchoSwitch:
    """Minimal behaviour: forward every packet toward a fixed host."""

    def __init__(self, name, destination):
        self.name = name
        self.destination = destination
        self.network = None
        self.seen = 0

    def attach(self, network):
        self.network = network

    def handle_packet(self, network, packet):
        self.seen += 1
        network.forward_toward(self.name, self.destination, packet)


def build_net():
    topo = TopologyBuilder.linear(3, hosts_per_switch=1)
    net = SimNetwork(topo)
    for name in topo.switches():
        net.register_node(EchoSwitch(name, "h2"))
    return topo, net


class TestDelivery:
    def test_end_to_end_delivery(self):
        topo, net = build_net()
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_from_host("h0", packet)
        net.run()
        delivered = net.delivered()
        assert len(delivered) == 1
        record = delivered[0]
        assert record.endpoint == "h2"
        assert record.delivered
        assert record.hops == 4  # h0->s0->s1->s2->h2
        assert record.delay > 0

    def test_inject_at_switch_skips_host_hop(self):
        topo, net = build_net()
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_at_switch("s0", packet)
        net.run()
        assert net.delivered()[0].hops == 3

    def test_ingress_recorded(self):
        topo, net = build_net()
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_from_host("h1", packet)
        net.run()
        assert net.delivered()[0].ingress_switch == "s1"

    def test_unregistered_switch_drops(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        net = SimNetwork(topo)  # no behaviours registered
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_from_host("h0", packet)
        net.run()
        dropped = net.dropped()
        assert len(dropped) == 1
        assert "no behaviour" in dropped[0].drop_reason

    def test_unregistered_switch_drops_direct_injections(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        net = SimNetwork(topo)
        net.inject_at_switch("s0", Packet.from_fields(TWO_FIELD_LAYOUT))
        net.inject_batch_at_switch(
            "s1", [Packet.from_fields(TWO_FIELD_LAYOUT) for _ in range(2)]
        )
        assert [r.drop_reason for r in net.dropped()] == ["no behaviour registered"] * 3

    def test_duck_typed_node_without_receive_is_reached_by_lookup(self):
        """A node with only ``handle_packet`` gets the per-packet lookup,
        which also sees a node registered while packets are in flight."""
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        net = SimNetwork(topo)
        net.register_node(EchoSwitch("s0", "h1"))
        net.inject_from_host("h0", Packet.from_fields(TWO_FIELD_LAYOUT))
        net.run(until=3e-5)  # forwarded by s0, not yet at s1
        late = EchoSwitch("s1", "h1")
        net.register_node(late)
        net.run()
        assert late.seen == 1
        assert net.delivered()[0].endpoint == "h1"

    def test_register_unknown_node_rejected(self):
        topo, net = build_net()
        with pytest.raises(KeyError):
            net.register_node(EchoSwitch("ghost", "h0"))


class TestForwarding:
    def test_forward_toward_unreachable_drops(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        topo.remove_link("s0", "s1")
        net = SimNetwork(topo)
        for name in topo.switches():
            net.register_node(EchoSwitch(name, "h1"))
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_from_host("h0", packet)
        net.run()
        assert len(net.dropped()) == 1
        assert "unreachable" in net.dropped()[0].drop_reason

    def test_rebuild_routes_after_change(self):
        topo = TopologyBuilder.star(3, hosts_per_leaf=1)
        net = SimNetwork(topo)
        for name in topo.switches():
            net.register_node(EchoSwitch(name, "h2"))
        # Cut s2's link and verify re-route failure then recovery.
        assert net.routes.reachable("s0", "s2")
        topo.remove_link("hub", "s2")
        net.rebuild_routes()
        assert not net.routes.reachable("s0", "s2")
        topo.add_link("hub", "s2")
        net.rebuild_routes()
        assert net.routes.reachable("s0", "s2")


def build_triangle():
    """a, b, c fully meshed, one host on c: a→c direct, or a→b→c."""
    topo = Topology()
    for name in "abc":
        topo.add_switch(name)
    for a, b in ("ab", "bc", "ac"):
        topo.add_link(a, b)
    topo.add_host("hc", "c")
    net = SimNetwork(topo)
    for name in "abc":
        net.register_node(EchoSwitch(name, "hc"))
    return net


class TestNextLinkMemo:
    """``(node, destination) → Link`` is resolved once per routing epoch."""

    def send(self, net):
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        net.inject_at_switch("a", packet)
        net.run()
        return packet

    def test_memo_hit_counts_hops_like_the_first_packet(self):
        net = build_triangle()
        first, second = self.send(net), self.send(net)
        assert ("a", "hc") in net._next_link            # filled by the miss
        assert first.hops == second.hops == 2           # a→c, c→hc
        assert net.link("a", "c").packets_carried == 2

    def test_link_failure_invalidates_and_repair_is_used_again(self):
        net = build_triangle()
        faults = FailureInjector(net)
        self.send(net)
        faults.fail_link("a", "c")
        assert not net._next_link                       # new routing epoch
        detour = self.send(net)
        assert detour.hops == 3                         # a→b, b→c, c→hc
        assert net.link("a", "b").packets_carried == 1
        faults.restore_link("a", "c")
        direct = self.send(net)
        assert direct.hops == 2
        # The repaired link is a new object: a stale memo would have kept
        # feeding the old one (which still drains what it carries).
        assert net.link("a", "c").packets_carried == 1
        assert net.link("a", "b").packets_carried == 1
        assert len(net.delivered()) == 3

    def test_unreachable_and_local_destinations_are_not_memoised(self):
        net = build_triangle()
        net.forward_toward("a", "nowhere", Packet.from_fields(TWO_FIELD_LAYOUT))
        assert "unreachable" in net.dropped()[0].drop_reason
        assert not net._next_link


class TestStreamingDelivery:
    def test_record_free_delivery_feeds_the_observer_the_same_numbers(self):
        """With a streaming observer ``record_delivery`` builds no
        ``DeliveryRecord``; the sketches must see the same delay floats
        and hop counts as the retaining log's records hold."""
        kept_topo, kept = build_net()
        streamed_topo, streamed = build_net()
        observer = DeliverySketchObserver(registry=MetricsRegistry())
        streamed.read_outcomes_with(observer)
        for net in (kept, streamed):
            for _ in range(5):
                net.inject_from_host("h0", Packet.from_fields(TWO_FIELD_LAYOUT))
                net.run()
            net.record_drop(Packet.from_fields(TWO_FIELD_LAYOUT), "s0", "test")
        assert streamed.deliveries is observer
        assert (observer.delivered, observer.dropped) == (5, 1)
        assert (len(kept.delivered()), len(kept.dropped())) == (5, 1)
        expected = DeliverySketchObserver(registry=MetricsRegistry())
        for record in kept.delivered():
            expected.delay_sketch.observe(record.delay)
            expected.hop_histogram.observe(record.hops)
        assert observer.delay_sketch.export() == expected.delay_sketch.export()
        assert observer.hop_histogram.export() == expected.hop_histogram.export()

    def test_a_streaming_reader_sees_each_drop_as_the_log_records_it(self):
        """``record_drop`` hands a streaming reader the same ``(where,
        reason, now)`` the retaining log writes into its drop record."""

        class DropTally(DeliverySketchObserver):
            def __init__(self):
                super().__init__(registry=MetricsRegistry())
                self.drops = []

            def observe_drop(self, packet, where, reason, now):
                super().observe_drop(packet, where, reason, now)
                self.drops.append((where, reason, now))

        kept_topo, kept = build_net()
        streamed_topo, streamed = build_net()
        reader = DropTally()
        streamed.read_outcomes_with(reader)
        for net in (kept, streamed):
            net.inject_from_host("h0", Packet.from_fields(TWO_FIELD_LAYOUT))
            net.record_drop(Packet.from_fields(TWO_FIELD_LAYOUT), "s0", "first")
            net.run()
            net.forward_toward("s1", "nowhere", Packet.from_fields(TWO_FIELD_LAYOUT))
        assert [
            (r.endpoint, r.drop_reason, r.finished_at) for r in kept.dropped()
        ] == reader.drops
        assert [drop[:2] for drop in reader.drops] == [
            ("s0", "first"), ("s1", "unreachable nowhere"),
        ]
        assert reader.drops[1][2] > 0.0
        assert (reader.delivered, reader.dropped) == (1, 2)
class TestControlMessages:
    def test_send_control_latency(self):
        topo, net = build_net()
        fired = []
        net.send_control("s0", "s2", lambda: fired.append(net.scheduler.now))
        net.run()
        expected = net.routes.distance("s0", "s2") + CONTROL_OVERHEAD_S
        assert fired == [pytest.approx(expected)]
        assert net.control_messages_sent == 1

    def test_send_control_unreachable_is_dropped(self):
        topo = TopologyBuilder.linear(2)
        topo.remove_link("s0", "s1")
        net = SimNetwork(topo)
        fired = []
        net.send_control("s0", "s1", fired.append, 1)
        net.run()
        assert fired == []


class TestAccounting:
    def test_delivery_record_fields(self):
        topo, net = build_net()
        packet = Packet.from_fields(TWO_FIELD_LAYOUT, flow_id=42)
        packet.via_authority = True
        net.inject_from_host("h0", packet)
        net.run()
        record = net.delivered()[0]
        assert record.flow_id == 42
        assert record.via_authority
        assert not record.via_controller
        assert record.delay == record.finished_at - record.created_at

    def test_link_counters(self):
        topo, net = build_net()
        net.inject_from_host("h0", Packet.from_fields(TWO_FIELD_LAYOUT))
        net.run()
        assert net.link("s0", "s1").packets_carried == 1
        assert net.link("s1", "s0").packets_carried == 0
