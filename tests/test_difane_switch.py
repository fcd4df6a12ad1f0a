"""Behavioural tests for the DIFANE switch (ingress / transit / authority)."""

import numpy as np
import pytest

from repro.core import DifaneNetwork
from repro.core.authority import DifaneSwitch
from repro.flowspace import FIVE_TUPLE_LAYOUT, Packet
from repro.flowspace.batch import PacketBatch, set_columnar
from repro.net import TopologyBuilder
from repro.net.failures import FailureInjector
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


def build(authority=("s1",), cache_capacity=64, **kwargs):
    """hsrc—s0—s1—s2—hdst line with s1 the authority by default."""
    topo = TopologyBuilder.linear(3, hosts_per_switch=1)
    rules, host_ips = routing_policy_for_topology(topo, L)
    dn = DifaneNetwork.build(
        topo, rules, L,
        authority_switches=list(authority),
        cache_capacity=cache_capacity,
        redirect_rate=None,
        **kwargs,
    )
    return dn, topo, host_ips


def flow_packet(host_ips, dst="h2", sport=2000):
    return Packet.from_fields(
        L, nw_src=0x0A0A0A0A, nw_dst=host_ips[dst], nw_proto=6,
        tp_src=sport, tp_dst=80,
    )


class TestMissPath:
    def test_first_packet_detours_and_delivers(self):
        dn, topo, host_ips = build()
        dn.send("h0", flow_packet(host_ips))
        dn.run()
        delivered = dn.network.delivered()
        assert len(delivered) == 1
        assert delivered[0].via_authority
        assert delivered[0].endpoint == "h2"
        assert dn.switch("s1").redirects_handled == 1

    def test_cache_rule_installed_at_ingress(self):
        dn, topo, host_ips = build()
        dn.send("h0", flow_packet(host_ips))
        dn.run()
        ingress = dn.switch("s0")
        assert ingress.cache_installs_received == 1
        assert len(ingress.pipeline.cache) == 1

    def test_second_packet_hits_cache(self):
        dn, topo, host_ips = build()
        dn.send("h0", flow_packet(host_ips, sport=2000))
        dn.run()
        dn.send("h0", flow_packet(host_ips, sport=2000))
        dn.run()
        ingress = dn.switch("s0")
        assert ingress.cache_hits == 1
        assert dn.switch("s1").redirects_handled == 1  # no second redirect
        second = dn.network.delivered()[1]
        assert not second.via_authority

    def test_wildcard_cache_covers_sibling_flows(self):
        """A different microflow to the same destination hits the cached
        wildcard fragment — the win over microflow caching."""
        dn, topo, host_ips = build()
        dn.send("h0", flow_packet(host_ips, sport=2000))
        dn.run()
        dn.send("h0", flow_packet(host_ips, sport=3417))
        dn.run()
        assert dn.switch("s0").cache_hits == 1
        assert dn.switch("s1").redirects_handled == 1

    def test_no_packets_reach_controller(self):
        dn, topo, host_ips = build()
        for sport in (2000, 2001, 2002):
            dn.send("h0", flow_packet(host_ips, sport=sport))
        dn.run()
        for record in dn.network.deliveries:
            assert not record.via_controller


class TestLocalAuthority:
    def test_ingress_that_owns_partition_handles_locally(self):
        """When the ingress switch is the authority, no redirect happens."""
        dn, topo, host_ips = build(authority=("s0",))
        dn.send("h0", flow_packet(host_ips))
        dn.run()
        record = dn.network.delivered()[0]
        assert not record.via_authority
        assert dn.switch("s0").authority_hits == 1
        assert dn.switch("s0").redirects_out == 0


class TestDropSemantics:
    def test_policy_drop_at_authority(self):
        dn, topo, host_ips = build()
        # nw_dst that matches no host rule falls to the default drop.
        packet = Packet.from_fields(L, nw_dst=0x01020304, nw_proto=6)
        dn.send("h0", packet)
        dn.run()
        dropped = dn.network.dropped()
        assert len(dropped) == 1
        assert dropped[0].drop_reason == "policy drop"

    def test_drop_rule_gets_cached_too(self):
        dn, topo, host_ips = build()
        packet = Packet.from_fields(L, nw_dst=0x01020304, nw_proto=6)
        dn.send("h0", packet)
        dn.run()
        packet2 = Packet.from_fields(L, nw_dst=0x01020304, nw_proto=6)
        dn.send("h0", packet2)
        dn.run()
        # The second drop is served by the ingress cache.
        assert dn.switch("s0").cache_hits == 1
        assert dn.switch("s1").redirects_handled == 1


class TestCapacityAndStats:
    def test_cache_capacity_zero_redirects_forever(self):
        dn, topo, host_ips = build(cache_capacity=0)
        for sport in range(2000, 2005):
            dn.send("h0", flow_packet(host_ips, sport=sport))
        dn.run()
        assert dn.switch("s1").redirects_handled == 5
        assert dn.cache_hit_rate() == 0.0

    def test_tcam_report(self):
        dn, topo, host_ips = build()
        report = dn.tcam_report()
        assert set(report) == {"s0", "s1", "s2"}
        # Authority rules only at s1; partition rules everywhere.
        assert report["s1"]["authority"] > 0
        assert report["s0"]["authority"] == 0
        assert all(entry["partition"] >= 1 for entry in report.values())

    def test_redirect_overload_drops(self):
        topo = TopologyBuilder.linear(3, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        dn = DifaneNetwork.build(
            topo, rules, L, authority_switches=["s1"],
            cache_capacity=0, redirect_rate=100.0,
        )
        dn.network.node("s1").redirect_queue = 2
        # Rebuild the station with the small queue.
        dn.network.node("s1")._redirect_station.queue_limit = 2
        for sport in range(2000, 2050):
            dn.send_at(sport * 1e-6, "h0", flow_packet(host_ips, sport=sport))
        dn.run()
        s1 = dn.switch("s1")
        assert s1.redirects_dropped > 0
        reasons = {r.drop_reason for r in dn.network.dropped()}
        assert "authority overloaded" in reasons

    def test_idle_timeout_expires_cache(self):
        dn, topo, host_ips = build(idle_timeout=0.5)
        dn.send("h0", flow_packet(host_ips))
        dn.run()
        ingress = dn.switch("s0")
        assert len(ingress.pipeline.cache) == 1
        # Advance time and force expiry.
        dn.network.scheduler.schedule(1.0, ingress.tick)
        dn.run()
        assert len(ingress.pipeline.cache) == 0


class TestMirroredStats:
    """Every ``_MIRRORED_STATS`` attribute equals its registry counter."""

    @pytest.fixture(autouse=True)
    def _restore_mode(self):
        previous = obs_context.current()
        yield
        set_columnar(False)
        obs_context.install(previous)

    @staticmethod
    def _burst(host_ips, count=64, seed=0):
        rng = np.random.default_rng(seed)
        addresses = list(host_ips.values())
        return PacketBatch.from_fields(
            L, count, flow_ids=list(range(count)),
            nw_src=rng.integers(0, 2**32, count),
            nw_dst=[addresses[i % len(addresses)] for i in range(count)],
            nw_proto=6, tp_src=rng.integers(0, 2**16, count), tp_dst=80,
        )

    @pytest.mark.parametrize("columnar", [False, True], ids=["scalar", "columnar"])
    def test_attributes_equal_counters_after_miss_failover_and_punt(self, columnar):
        """Partitions are owned by the pairs (s0, s1) and (s2, s3).  With
        s0, s1 and s2 dead, the (s2, s3) partitions fail over to s3 and the
        (s0, s1) ones are orphaned and punted to the controller; s3 lost
        its authority rules for h3, so those redirects miss there."""
        set_columnar(columnar)
        fresh_run_context(trace=True)
        topo = TopologyBuilder.star(5, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        dn = DifaneNetwork.build(
            topo, rules, L, authority_switches=["s0", "s1", "s2", "s3"],
            replication=2, cache_capacity=16, redirect_rate=None,
        )
        dn.controller.connect_control_plane()
        backup = dn.switch("s3")
        for rule in list(backup.pipeline.authority.table.rules):
            forward = rule.actions.final_forward()
            if forward is None or forward.port == "h3":
                backup.uninstall_rule(rule)
        injector = FailureInjector(dn.network)
        for name in ("s0", "s1", "s2"):
            injector.fail_switch(name)
        for epoch in range(2):
            dn.send_batch_at(epoch * 1e-2, "s4", self._burst(host_ips))
        dn.run()

        totals = {stat: 0 for stat in DifaneSwitch._MIRRORED_STATS}
        for switch in dn.switches():
            for stat in DifaneSwitch._MIRRORED_STATS:
                counter = dn.network.metrics.counter(
                    f"difane_{stat}_total", switch=switch.name
                )
                assert getattr(switch, stat) == counter.value, (switch.name, stat)
                totals[stat] += getattr(switch, stat)
        assert dn.switch("s3").unmatched > 0             # authority miss
        assert totals["failovers"] > 0
        assert totals["degraded_packets"] > 0
        assert totals["cache_hits"] > 0
