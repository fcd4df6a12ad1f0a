"""Tests for load rebalancing."""

import random

from repro.core import DifaneNetwork
from repro.flowspace import FIVE_TUPLE_LAYOUT, Forward, Match, Packet, Rule
from repro.net import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology

L5 = FIVE_TUPLE_LAYOUT


class TestRebalancing:
    def build(self):
        topo = TopologyBuilder.star(4, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L5)
        dn = DifaneNetwork.build(
            topo, rules, L5,
            authority_switches=["s0", "s1"],
            partitions_per_authority=4,
            cache_capacity=0,   # all traffic redirects: load is visible
            redirect_rate=None,
        )
        return dn, topo, host_ips

    def skewed_traffic(self, dn, host_ips, count=200, seed=61):
        """Hammer one destination so one partition gets hot."""
        rng = random.Random(seed)
        hosts = sorted(host_ips)
        hot = hosts[-1]
        for index in range(count):
            packet = Packet.from_fields(
                L5, nw_src=rng.getrandbits(32), nw_dst=host_ips[hot],
                nw_proto=6, tp_src=rng.randint(1024, 65535), tp_dst=80,
            )
            dn.send(hosts[0], packet)
        dn.run()

    def test_loads_observed(self):
        dn, topo, host_ips = self.build()
        self.skewed_traffic(dn, host_ips)
        loads = dn.controller.partition_loads()
        assert sum(loads.values()) == 200
        assert max(loads.values()) == 200  # all in the hot partition

    def test_rebalance_moves_partitions_and_reduces_imbalance(self):
        dn, topo, host_ips = self.build()
        self.skewed_traffic(dn, host_ips)
        before = dn.controller.load_imbalance()
        moved = dn.controller.rebalance()
        assert moved >= 1
        after = dn.controller.load_imbalance()
        assert after <= before

    def test_rebalance_preserves_semantics_and_traffic(self):
        dn, topo, host_ips = self.build()
        self.skewed_traffic(dn, host_ips)
        dn.controller.rebalance()
        # Traffic still delivered correctly after the move.
        hosts = sorted(host_ips)
        packet = Packet.from_fields(
            L5, nw_dst=host_ips[hosts[1]], nw_proto=6, tp_src=77, tp_dst=80
        )
        dn.send(hosts[0], packet)
        dn.run()
        assert dn.network.deliveries[-1].delivered
        # Partition rules point only at live owners holding the fragments.
        for state in dn.controller._states.values():
            primary = state.owners[0]
            assert primary in state.installed

    def test_rebalance_conserves_counters(self):
        """Moving a partition must move its load history exactly once —
        the transparency aggregation may never double- or under-count."""
        dn, topo, host_ips = self.build()
        self.skewed_traffic(dn, host_ips, count=150)
        total_before = sum(
            s.packets for s in dn.controller.collect_policy_counters().values()
        )
        assert total_before == 150
        dn.controller.rebalance()
        total_after = sum(
            s.packets for s in dn.controller.collect_policy_counters().values()
        )
        assert total_after == 150

    def test_rebalance_moves_history_by_rule_not_position(self):
        """An inserted rule's fragment is appended to each owner's list
        but sorted to the front of the partition's rules, so the move
        must pair fragments by the rule they came from, not by slot."""
        dn, topo, host_ips = self.build()
        hosts = sorted(host_ips)
        hot = hosts[-1]
        dn.controller.insert_rule(Rule(
            Match.build(L5, nw_dst=host_ips[hot], tp_dst=80), 10**7, Forward(hot)
        ))
        for index in range(200):
            dn.send(hosts[0], Packet.from_fields(
                L5, nw_dst=host_ips[hot], nw_proto=6, tp_src=1024 + index,
                tp_dst=80 if index % 2 else 443,
            ))
        dn.run()

        def per_rule():
            counters = dn.controller.collect_policy_counters()
            return {rule: snap.packets for rule, snap in counters.items() if snap.packets}

        before = per_rule()
        assert sorted(before.values()) == [100, 100]
        assert dn.controller.rebalance() >= 1
        assert per_rule() == before

    def test_rebalance_with_replication_promotes_backup(self):
        topo = TopologyBuilder.star(4, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L5)
        dn = DifaneNetwork.build(
            topo, rules, L5,
            authority_switches=["s0", "s1"],
            partitions_per_authority=4,
            replication=2,
            cache_capacity=0,
            redirect_rate=None,
        )
        self.skewed_traffic(dn, host_ips, count=120)
        loads_total = sum(dn.controller.partition_loads().values())
        dn.controller.rebalance()
        # Load history survives the promotion, and owner lists stay sized.
        assert sum(dn.controller.partition_loads().values()) == loads_total
        for state in dn.controller._states.values():
            assert len(state.owners) == 2
            assert state.owners[0] in state.installed

    def test_rebalance_noop_when_balanced(self):
        dn, topo, host_ips = self.build()
        # No traffic: loads all zero; greedy packing keeps sizes stable —
        # a second rebalance right after one must move nothing.
        dn.controller.rebalance()
        assert dn.controller.rebalance() == 0
