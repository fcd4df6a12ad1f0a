"""Behavioural tests for the DIFANE controller: distribution and dynamics."""

import random

import pytest

from repro.core import DifaneNetwork
from repro.core.shards import PartitionMigrator
from repro.experiments.ablations import run_rebalance_ablation
from repro.flowspace import (
    Drop,
    FIVE_TUPLE_LAYOUT,
    Forward,
    Match,
    Packet,
    Rule,
    RuleTable,
    Ternary,
)
from repro.net import FailureInjector, TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


def build(authority=("s1", "s2"), replication=1, **kwargs):
    topo = TopologyBuilder.linear(4, hosts_per_switch=1)
    rules, host_ips = routing_policy_for_topology(topo, L, acl_rules=4)
    dn = DifaneNetwork.build(
        topo, rules, L,
        authority_switches=list(authority),
        replication=replication,
        cache_capacity=64,
        redirect_rate=None,
        partitions_per_authority=2,
        **kwargs,
    )
    return dn, topo, host_ips


def check_semantics(dn, samples=200, seed=0):
    """Distributed authority lookup == single-table oracle."""
    oracle = RuleTable(L, dn.controller.policy)
    rng = random.Random(seed)
    for _ in range(samples):
        bits = rng.getrandbits(L.width)
        partition_hit = None
        for state in dn.controller._states.values():
            if state.partition.region.matches(bits):
                owner = dn.switch(state.owners[0])
                partition_hit = owner.pipeline.authority.table.lookup_bits(bits)
                break
        expected = oracle.lookup_bits(bits)
        if expected is None:
            assert partition_hit is None
        else:
            assert partition_hit is not None
            assert (
                partition_hit.root_origin() is expected
                or partition_hit.actions == expected.actions
            )


class TestInstallation:
    def test_partition_rules_everywhere(self):
        dn, topo, host_ips = build()
        k = len(dn.controller.partitions())
        for name in topo.switches():
            assert len(dn.switch(name).pipeline.partition) == k

    def test_authority_rules_only_at_owners(self):
        dn, topo, host_ips = build()
        assert len(dn.switch("s0").pipeline.authority) == 0
        assert (
            len(dn.switch("s1").pipeline.authority)
            + len(dn.switch("s2").pipeline.authority)
            > 0
        )

    def test_initial_semantics(self):
        dn, _, _ = build()
        check_semantics(dn)

    def test_replication_installs_backups(self):
        dn, _, _ = build(replication=2)
        for state in dn.controller._states.values():
            assert len(state.owners) == 2


class TestPolicyDynamics:
    def test_insert_rule_visible_in_lookup(self):
        dn, topo, host_ips = build()
        new_rule = Rule(
            Match.build(L, nw_dst=Ternary.exact(host_ips["h3"], 32),
                        nw_proto=Ternary.exact(6, 8),
                        tp_dst=Ternary.exact(22, 16)),
            priority=10_000,
            actions=Drop(),
        )
        affected = dn.controller.insert_rule(new_rule)
        assert affected >= 1
        check_semantics(dn, seed=1)
        # A packet matching the new rule must now be dropped at the authority.
        packet = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=5555, tp_dst=22
        )
        dn.send("h0", packet)
        dn.run()
        assert dn.network.dropped()[-1].drop_reason == "policy drop"

    def test_insert_flushes_conflicting_caches(self):
        dn, topo, host_ips = build()
        # Warm the cache with a flow to h3:80.
        warm = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=4000, tp_dst=80
        )
        dn.send("h0", warm)
        dn.run()
        assert len(dn.switch("s0").pipeline.cache) == 1
        # Insert a higher-priority rule overlapping the cached fragment.
        blocker = Rule(
            Match.build(L, nw_dst=Ternary.exact(host_ips["h3"], 32)),
            priority=10_000,
            actions=Drop(),
        )
        dn.controller.insert_rule(blocker)
        assert len(dn.switch("s0").pipeline.cache) == 0
        assert dn.controller.cache_entries_flushed >= 1
        # The flow now takes the miss path and gets dropped.
        again = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=4000, tp_dst=80
        )
        dn.send("h0", again)
        dn.run()
        assert dn.network.dropped()[-1].drop_reason == "policy drop"

    def test_delete_rule_restores_lower_priority(self):
        dn, topo, host_ips = build()
        blocker = Rule(
            Match.build(L, nw_dst=Ternary.exact(host_ips["h3"], 32)),
            priority=10_000,
            actions=Drop(),
        )
        dn.controller.insert_rule(blocker)
        dn.controller.delete_rule(blocker)
        check_semantics(dn, seed=2)
        packet = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=4001, tp_dst=80
        )
        dn.send("h0", packet)
        dn.run()
        assert dn.network.delivered()[-1].endpoint == "h3"

    def test_delete_unknown_rule_raises(self):
        dn, _, _ = build()
        ghost = Rule(Match.any(L), 5, Drop())
        with pytest.raises(ValueError):
            dn.controller.delete_rule(ghost)

    def test_insert_before_install_policy_raises(self):
        from repro.core import DifaneController
        from repro.net import SimNetwork
        topo = TopologyBuilder.linear(2)
        controller = DifaneController(SimNetwork(topo), L, ["s0"])
        with pytest.raises(RuntimeError):
            controller.insert_rule(Rule(Match.any(L), 1, Drop()))


class TestTopologyDynamics:
    def test_link_failure_moves_no_rules(self):
        dn, topo, host_ips = build()
        before = dn.tcam_report()
        messages_before = dn.controller.control_messages
        dn.controller.handle_link_failure("s1", "s2")
        assert dn.tcam_report() == before
        assert dn.controller.control_messages == messages_before
        # Traffic still flows (the line is cut, but s0-s1 still works).
        packet = Packet.from_fields(
            L, nw_dst=host_ips["h1"], nw_proto=6, tp_src=1234, tp_dst=80
        )
        dn.send("h0", packet)
        dn.run()
        assert dn.network.delivered()[-1].endpoint == "h1"

    def test_host_move_rewires_links(self):
        """Regression: the SimNetwork link map must follow topology edits,
        or traffic to/from the moved host drops with 'no link'."""
        dn, topo, host_ips = build()
        dn.controller.handle_host_move("h3", "s0")
        packet = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=777, tp_dst=80
        )
        dn.send("h3", packet)  # from the moved host itself
        dn.run()
        record = dn.network.deliveries[-1]
        assert record.delivered, record.drop_reason

    def test_host_move_flushes_stale_forwarding(self):
        dn, topo, host_ips = build()
        warm = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=4000, tp_dst=80
        )
        dn.send("h0", warm)
        dn.run()
        flushed = dn.controller.handle_host_move("h3", "s0")
        assert flushed >= 1
        assert topo.host_attachment("h3") == "s0"
        # Traffic to the moved host is re-routed to its new home.
        again = Packet.from_fields(
            L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=4000, tp_dst=80
        )
        dn.send("h1", again)
        dn.run()
        assert dn.network.delivered()[-1].endpoint == "h3"


    def test_host_move_and_access_link_failure_reach_injection(self):
        """The network memoizes each host's ingress switch; every topology
        change must invalidate it."""
        dn, topo, host_ips = build()

        def inject(host):
            packet = Packet.from_fields(L, nw_dst=host_ips["h0"], nw_proto=6, tp_dst=80)
            dn.send_at(dn.network.scheduler.now, host, packet)
            dn.run()
            return packet

        assert inject("h3").ingress_switch == "s3"
        dn.controller.handle_host_move("h3", "s1")
        assert inject("h3").ingress_switch == "s1"
        injector = FailureInjector(dn.network)
        assert injector.fail_link("h3", "s1")
        with pytest.raises(ValueError, match="^host 'h3' is not attached to any switch$"):
            dn.send("h3", Packet.from_fields(L, nw_dst=host_ips["h0"]))
        assert injector.restore_link("h3", "s1")
        packet = inject("h3")
        assert packet.ingress_switch == "s1"
        assert dn.network.deliveries[-1].packet_id == packet.packet_id
        assert dn.network.deliveries[-1].delivered


class TestAuthorityFailover:
    def test_failover_with_replication(self):
        dn, topo, host_ips = build(replication=2)
        failed = "s1"
        repointed = dn.controller.handle_authority_failure(failed)
        assert failed not in dn.controller.authority_switches
        assert repointed >= 1
        # Partition rules no longer point at the failed switch.
        for name in topo.switches():
            for partition_rule in dn.switch(name).pipeline.partition:
                action = partition_rule.actions.actions[0]
                assert action.destination != failed
        check_semantics(dn, seed=3)

    def test_failover_without_replication_reinstalls(self):
        dn, topo, host_ips = build(replication=1)
        dn.controller.handle_authority_failure("s1")
        check_semantics(dn, seed=4)

    def test_unrecoverable_failover_leaves_loads_and_rebalance_working(self):
        dn, topo, host_ips = build(replication=1)
        controller = dn.controller
        for index in range(20):
            dn.send("h0", Packet.from_fields(
                L, nw_dst=host_ips["h3"], nw_proto=6, tp_src=2000 + index, tp_dst=80,
            ))
        dn.run()
        # s2 is cut off when s1 fails: s1's partitions have nowhere to go.
        cut = [(neighbour, spec) for _, neighbour, spec in topo.links_of("s2")]
        for neighbour, _ in cut:
            topo.remove_link("s2", neighbour)
        dn.network.rebuild_routes()
        orphaned = [pid for pid, s in controller._states.items() if s.owners == ["s1"]]
        assert orphaned
        controller.handle_authority_failure("s1")
        assert [controller.owners_of(pid) for pid in orphaned] == [[]] * len(orphaned)
        loads = controller.partition_loads()
        assert set(loads) == set(controller._states)
        assert all(loads[pid] == 0 for pid in orphaned)
        assert controller.load_imbalance() == 1.0
        # The link comes back: a migration re-homes each orphan on s2.
        for neighbour, spec in cut:
            topo.add_link("s2", neighbour, spec)
        dn.network.rebuild_routes()
        migrator = PartitionMigrator(controller)
        migrations = [migrator.migrate(pid, "s2") for pid in orphaned]
        assert [m.phase for m in migrations] == ["done"] * len(orphaned)
        assert [controller.owners_of(pid) for pid in orphaned] == [["s2"]] * len(orphaned)
        assert controller.assert_all_partitions_owned() == len(controller._states)
        check_semantics(dn, seed=5)

    def test_last_authority_cannot_fail(self):
        dn, _, _ = build(authority=("s1",))
        with pytest.raises(RuntimeError):
            dn.controller.handle_authority_failure("s1")

    def test_unknown_authority_rejected(self):
        dn, _, _ = build()
        with pytest.raises(ValueError):
            dn.controller.handle_authority_failure("s0")


class TestRebalance:
    def test_ablation_a5_configuration_is_pinned(self):
        # A5 at its archived scale: Zipf-hot destinations skew redirect
        # load over three authorities, then the migrator moves the
        # partitions a greedy pack of measured load re-homes.
        notes = run_rebalance_ablation().notes
        assert notes["imbalance_before"] == 1.6375498368974266
        assert notes["partitions_moved"] == 16
        assert notes["control_messages"] == 162
        assert notes["imbalance_after"] == 1.0514679231605655
        s0, s1, s2 = ["s0"], ["s1"], ["s2"]
        assert notes["owners"] == [
            s2, s1, s2, s2, s1, s2, s2, s2, s0, s1, s1, s2,
            s2, s1, s2, s2, s2, s2, s2, s2, s2, s2, s1, s2,
        ]
