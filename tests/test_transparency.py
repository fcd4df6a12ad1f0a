"""Transparency: DIFANE must report the same per-policy-rule statistics
the operator would see from one giant switch.

This is the counter-aggregation path (cache fragments + authority
fragments folded back through their origin chains) validated against a
per-packet oracle count.
"""

import random

import pytest

from repro.core import DifaneNetwork
from repro.flowspace import FIVE_TUPLE_LAYOUT, Packet, RuleTable
from repro.net import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets

L = FIVE_TUPLE_LAYOUT


def build(prefetch=1, replication=1):
    topo = TopologyBuilder.three_tier_campus(
        core_count=2, distribution_count=2, access_per_distribution=2,
        hosts_per_access=2,
    )
    rules, host_ips = routing_policy_for_topology(topo, L, acl_rules=8)
    dn = DifaneNetwork.build(
        topo, rules, L, authority_count=2, cache_capacity=256,
        redirect_rate=None, replication=replication,
        prefetch_fragments=prefetch,
    )
    return dn, topo, host_ips, rules


def pump(dn, topo, host_ips, flows=150, seed=9):
    packets = []
    for timed in host_pair_packets(
        topo, host_ips, L, count=flows, rate=3000.0, seed=seed, flow_packets=2
    ):
        packets.append(timed.packet.header_bits)
        dn.send_at(timed.time, timed.source_host, timed.packet)
    dn.run()
    return packets


class TestCounterTransparency:
    def test_counts_match_oracle(self):
        dn, topo, host_ips, rules = build()
        header_stream = pump(dn, topo, host_ips)
        oracle = RuleTable(L, rules)
        expected = {}
        for bits in header_stream:
            winner = oracle.lookup_bits(bits)
            expected[winner] = expected.get(winner, 0) + 1
        measured = dn.controller.collect_policy_counters()
        for rule, count in expected.items():
            snapshot = measured.get(rule)
            assert snapshot is not None, f"no counters folded for {rule}"
            assert snapshot.packets == count, (
                f"{rule}: measured {snapshot.packets}, oracle {count}"
            )

    def test_total_packets_conserved(self):
        dn, topo, host_ips, rules = build()
        header_stream = pump(dn, topo, host_ips)
        measured = dn.controller.collect_policy_counters()
        assert sum(s.packets for s in measured.values()) == len(header_stream)

    def test_counts_survive_replication(self):
        """Backup authority fragments carry zero traffic, so replication
        must not double-count."""
        dn, topo, host_ips, rules = build(replication=2)
        header_stream = pump(dn, topo, host_ips)
        measured = dn.controller.collect_policy_counters()
        assert sum(s.packets for s in measured.values()) == len(header_stream)

    def test_fragments_tracked(self):
        dn, topo, host_ips, rules = build()
        pump(dn, topo, host_ips)
        measured = dn.controller.collect_policy_counters()
        # Every policy rule with traffic shows at least one fragment.
        assert all(s.fragments >= 1 for s in measured.values())


class TestPrefetch:
    def test_prefetch_installs_more_fragments(self):
        baseline, topo_b, ips_b, _ = build(prefetch=1)
        pump(baseline, topo_b, ips_b, flows=60, seed=11)
        eager, topo_e, ips_e, _ = build(prefetch=4)
        pump(eager, topo_e, ips_e, flows=60, seed=11)
        installs_baseline = sum(s.cache_installs_sent for s in baseline.switches())
        installs_eager = sum(s.cache_installs_sent for s in eager.switches())
        assert installs_eager >= installs_baseline

    def test_prefetch_preserves_semantics(self):
        dn, topo, host_ips, rules = build(prefetch=4)
        pump(dn, topo, host_ips, flows=100, seed=12)
        oracle = RuleTable(L, rules)
        rng = random.Random(0)
        # Replay fresh packets: outcome must match the oracle verdict.
        hosts = sorted(host_ips)
        for _ in range(80):
            src, dst = rng.sample(hosts, 2)
            fields = dict(
                nw_src=host_ips[src], nw_dst=host_ips[dst], nw_proto=6,
                tp_src=rng.randint(1024, 65535),
                tp_dst=rng.choice([80, 22, 445]),
            )
            packet = Packet.from_fields(L, **fields)
            expected = oracle.lookup(Packet.from_fields(L, **fields))
            dn.send(src, packet)
            dn.run()
            record = dn.network.deliveries[-1]
            if expected.actions.is_drop:
                assert not record.delivered
            else:
                assert record.delivered
                assert record.endpoint == expected.actions.final_forward().port

    def test_prefetch_validation(self):
        from repro.core.authority import DifaneSwitch
        with pytest.raises(ValueError):
            DifaneSwitch("s", L, prefetch_fragments=0)


class TestNoxFlowExpiry:
    def test_idle_timeout_expires_microflows(self):
        from repro.baselines import NoxNetwork
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        nn = NoxNetwork.build(topo, rules, L)
        nn.controller.microflow_idle_timeout = 0.5
        packet = Packet.from_fields(
            L, nw_dst=host_ips["h1"], nw_proto=6, tp_src=999, tp_dst=80
        )
        nn.send("h0", packet)
        nn.run()
        switch = nn.switch("s0")
        assert len(switch.flow_table) == 1
        assert switch.expire_flows(now=nn.network.scheduler.now + 1.0) == 1
        assert len(switch.flow_table) == 0
