"""Stateful property test: DIFANE under arbitrary operation interleavings.

Hypothesis drives a random sequence of policy inserts, deletes, host
moves, partition moves (rebalance, migration) and packets against a live
DIFANE deployment; after every packet the observed outcome (delivered
endpoint / policy drop) must match a single-table oracle maintained in
parallel, and no partition move may change a per-policy-rule counter.  This is the correctness
contract under *composition* of dynamics, which individual tests can't
cover exhaustively.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core import DifaneNetwork
from repro.core.partition import greedy_pack
from repro.core.shards import PartitionMigrator
from repro.flowspace import (
    Drop,
    FIVE_TUPLE_LAYOUT,
    Match,
    Packet,
    Rule,
    RuleTable,
    Ternary,
)
from repro.net import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


class DifaneMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.topo = TopologyBuilder.linear(3, hosts_per_switch=2)
        self.base_rules, self.host_ips = routing_policy_for_topology(self.topo, L)
        self.dn = DifaneNetwork.build(
            self.topo, self.base_rules, L,
            authority_switches=["s0", "s2"],
            partitions_per_authority=2,
            cache_capacity=32,
            redirect_rate=None,
        )
        self.migrator = PartitionMigrator(self.dn.controller)
        self.inserted = []
        self.hosts = sorted(self.host_ips)

    def policy_counters(self):
        return {
            rule: (snapshot.packets, snapshot.bytes)
            for rule, snapshot in self.dn.controller.collect_policy_counters().items()
        }

    # -- operations --------------------------------------------------------
    @rule(
        host_index=st.integers(min_value=0, max_value=5),
        port=st.sampled_from([22, 80, 443]),
        priority=st.integers(min_value=1, max_value=100_000),
    )
    def insert_block(self, host_index, port, priority):
        host = self.hosts[host_index % len(self.hosts)]
        block = Rule(
            Match.build(
                L,
                nw_dst=Ternary.exact(self.host_ips[host], 32),
                nw_proto=Ternary.exact(6, 8),
                tp_dst=Ternary.exact(port, 16),
            ),
            priority=priority,
            actions=Drop(),
        )
        self.dn.controller.insert_rule(block)
        self.inserted.append(block)

    @precondition(lambda self: self.inserted)
    @rule(index=st.integers(min_value=0, max_value=30))
    def delete_inserted(self, index):
        victim = self.inserted.pop(index % len(self.inserted))
        self.dn.controller.delete_rule(victim)

    @rule(
        host_index=st.integers(min_value=0, max_value=5),
        switch_index=st.integers(min_value=0, max_value=2),
    )
    def move_host(self, host_index, switch_index):
        host = self.hosts[host_index % len(self.hosts)]
        new_home = f"s{switch_index}"
        if self.topo.host_attachment(host) != new_home:
            self.dn.controller.handle_host_move(host, new_home)

    @rule()
    def rebalance(self):
        """A5's repack: pack on measured load, migrate every partition
        whose primary changes."""
        before = self.policy_counters()
        controller = self.dn.controller
        assignment, _ = greedy_pack(
            controller.partition_loads(), controller.authority_switches
        )
        for pid, (target,) in assignment.items():
            self.migrator.migrate(pid, target, reason="rebalance")
        self.dn.run()
        assert not self.migrator.active
        assert self.policy_counters() == before

    @rule(
        pid=st.integers(min_value=0, max_value=3),
        destination=st.sampled_from(["s0", "s2"]),
    )
    def migrate(self, pid, destination):
        before = self.policy_counters()
        self.migrator.migrate(pid, destination)
        self.dn.run()  # the retire lands after its grace period
        assert not self.migrator.active
        assert self.policy_counters() == before

    @rule(
        src_index=st.integers(min_value=0, max_value=5),
        dst_index=st.integers(min_value=0, max_value=5),
        port=st.sampled_from([22, 80, 443, 8080]),
        sport=st.integers(min_value=1024, max_value=65535),
    )
    def send_packet(self, src_index, dst_index, port, sport):
        src = self.hosts[src_index % len(self.hosts)]
        dst = self.hosts[dst_index % len(self.hosts)]
        if src == dst:
            return
        fields = dict(
            nw_src=self.host_ips[src], nw_dst=self.host_ips[dst],
            nw_proto=6, tp_src=sport, tp_dst=port,
        )
        oracle = RuleTable(L, self.dn.controller.policy)
        expected = oracle.lookup(Packet.from_fields(L, **fields))
        packet = Packet.from_fields(L, **fields)
        self.dn.send(src, packet)
        self.dn.run()
        record = self.dn.network.deliveries[-1]
        if expected is None or expected.actions.is_drop:
            assert not record.delivered, (
                f"expected drop, delivered to {record.endpoint}"
            )
            assert record.drop_reason == "policy drop"
        else:
            target = expected.actions.final_forward().port
            assert record.delivered, (
                f"expected delivery to {target}, dropped: {record.drop_reason}"
            )
            assert record.endpoint == target

    # -- global invariants -----------------------------------------------------
    @invariant()
    def partition_tables_consistent(self):
        """Every switch holds exactly one partition rule per partition."""
        k = len(self.dn.controller.partitions())
        for switch in self.dn.switches():
            assert len(switch.pipeline.partition) == k

    @invariant()
    def partitions_owned(self):
        self.dn.controller.assert_all_partitions_owned()

    @invariant()
    def authority_tables_hold_the_installed_fragments(self):
        controller = self.dn.controller
        for name in controller.authority_switches:
            expected = [
                id(fragment)
                for state in controller._states.values()
                for fragment in state.installed.get(name, ())
            ]
            held = [id(r) for r in self.dn.switch(name).pipeline.authority.rules()]
            assert sorted(held) == sorted(expected)


DifaneMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestDifaneStateful = DifaneMachine.TestCase
