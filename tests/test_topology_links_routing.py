"""Unit tests for topology construction, links and routing."""

import pytest

from repro.flowspace import Packet, TWO_FIELD_LAYOUT
from repro.net import (
    EventScheduler, FailureInjector, LinkSpec, SimNetwork, Topology, TopologyBuilder,
    compute_routes,
)
from repro.net.links import Link


class TestLinkSpec:
    def test_transfer_delay(self):
        spec = LinkSpec(propagation_s=1e-3, bandwidth_bps=8e6)
        # 1000 bytes at 8 Mb/s = 1 ms serialization + 1 ms propagation.
        assert spec.transfer_delay(1000) == pytest.approx(2e-3)


class TestLink:
    def test_delivery_after_delay(self):
        sched = EventScheduler()
        arrivals = []
        spec = LinkSpec(propagation_s=1e-3, bandwidth_bps=1e9)
        link = Link("a", "b", spec, sched, lambda pkt: arrivals.append((sched.now, link.destination)))
        packet = Packet.from_fields(TWO_FIELD_LAYOUT)
        link.send(packet)
        sched.run()
        assert len(arrivals) == 1
        time, dst = arrivals[0]
        assert dst == "b"
        assert time == pytest.approx(spec.transfer_delay(packet.size_bytes))
        assert link.packets_carried == 1
        assert packet.hops == 0  # hops counted by SimNetwork, not Link


class TestTopology:
    def test_add_and_query(self):
        topo = Topology()
        topo.add_switch("s0")
        topo.add_switch("s1")
        topo.add_link("s0", "s1")
        topo.add_host("h0", "s0")
        assert topo.switches() == ["s0", "s1"]
        assert topo.hosts() == ["h0"]
        assert topo.host_attachment("h0") == "s0"
        assert topo.edge_switches() == ["s0"]
        assert topo.is_connected()

    def test_unknown_nodes_rejected(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(KeyError):
            topo.add_link("s0", "nope")
        with pytest.raises(KeyError):
            topo.add_host("h0", "nope")

    def test_host_attachment_requires_switch(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(ValueError):
            topo.host_attachment("s0")  # not a host

    def test_remove_link(self):
        topo = TopologyBuilder.linear(3)
        topo.remove_link("s0", "s1")
        assert not topo.is_connected()

    def test_host_attachment_follows_link_changes(self):
        topo = TopologyBuilder.linear(2)
        assert topo.host_attachment("h0") == "s0"
        topo.remove_link("h0", "s0")
        topo.add_link("h0", "s1")
        assert topo.host_attachment("h0") == "s1"
        assert topo.switches() == ["s0", "s1"]
        assert topo.hosts() == ["h0", "h1"]

    def test_switch_kill_detaches_its_hosts(self):
        topo = TopologyBuilder.linear(2)
        network = SimNetwork(topo)
        assert topo.host_attachment("h1") == "s1"
        FailureInjector(network).fail_switch("s1")
        with pytest.raises(ValueError):
            topo.host_attachment("h1")
        assert topo.host_attachment("h0") == "s0"


class TestBuilders:

    def test_linear(self):
        topo = TopologyBuilder.linear(4, hosts_per_switch=2)
        assert len(topo.switches()) == 4
        assert len(topo.hosts()) == 8
        assert topo.is_connected()

    def test_linear_needs_a_switch(self):
        with pytest.raises(ValueError):
            TopologyBuilder.linear(0)

    def test_star(self):
        topo = TopologyBuilder.star(5)
        assert len(topo.switches()) == 6
        assert topo.graph.degree["hub"] == 5

    def test_campus_structure(self):
        topo = TopologyBuilder.three_tier_campus(
            core_count=2, distribution_count=3, access_per_distribution=2,
            hosts_per_access=2,
        )
        assert len([s for s in topo.switches() if s.startswith("core")]) == 2
        assert len([s for s in topo.switches() if s.startswith("dist")]) == 3
        assert len([s for s in topo.switches() if s.startswith("acc")]) == 6
        assert len(topo.hosts()) == 12
        assert topo.is_connected()
        # Access switches are dual-homed.
        degrees = [topo.graph.degree[s] for s in topo.switches() if s.startswith("acc")]
        assert all(d >= 2 + 2 for d in degrees)  # 2 dists + 2 hosts

    def test_waxman_connected_and_deterministic(self):
        a = TopologyBuilder.waxman(12, seed=4)
        b = TopologyBuilder.waxman(12, seed=4)
        assert a.is_connected()
        assert sorted(a.graph.edges) == sorted(b.graph.edges)


class TestRouting:
    def test_next_hop_chain(self):
        topo = TopologyBuilder.linear(3)
        routes = compute_routes(topo)
        assert routes.next_hop("s0", "s2") == "s1"
        assert routes.next_hop("s1", "s2") == "s2"
        assert routes.next_hop("s2", "s2") is None

    def test_path_and_hops(self):
        topo = TopologyBuilder.linear(4)
        routes = compute_routes(topo)
        assert routes.path("s0", "s3") == ["s0", "s1", "s2", "s3"]
        assert routes.hop_count("s0", "s3") == 3
        assert routes.hop_count("s0", "s0") == 0
        assert routes.path("s0", "s0") == ["s0"]

    def test_distance_is_latency_sum(self):
        topo = Topology()
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_switch("c")
        topo.add_link("a", "b", LinkSpec(propagation_s=1e-3))
        topo.add_link("b", "c", LinkSpec(propagation_s=2e-3))
        routes = compute_routes(topo)
        assert routes.distance("a", "c") == pytest.approx(3e-3)

    def test_prefers_lower_latency_path(self):
        topo = Topology()
        for name in "abc":
            topo.add_switch(name)
        topo.add_link("a", "c", LinkSpec(propagation_s=10e-3))  # direct but slow
        topo.add_link("a", "b", LinkSpec(propagation_s=1e-3))
        topo.add_link("b", "c", LinkSpec(propagation_s=1e-3))
        routes = compute_routes(topo)
        assert routes.path("a", "c") == ["a", "b", "c"]

    def test_unreachable(self):
        topo = Topology()
        topo.add_switch("a")
        topo.add_switch("b")
        routes = compute_routes(topo)
        assert routes.next_hop("a", "b") is None
        assert routes.distance("a", "b") == float("inf")
        assert routes.path("a", "b") == []
        assert routes.hop_count("a", "b") == -1
        assert not routes.reachable("a", "b")

    def test_routes_include_hosts(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        routes = compute_routes(topo)
        assert routes.reachable("h0", "h1")
