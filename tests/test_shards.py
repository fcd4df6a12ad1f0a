"""Sharded control plane: leases, takeover, deferral, two-phase migration."""

import pytest

from repro.core import DifaneNetwork
from repro.core.partition import assign_partitions_to_shards
from repro.core.shards import (
    PartitionMigrator,
    ShardedControlPlane,
    attach_sharded_control_plane,
)
from repro.flowspace import FIVE_TUPLE_LAYOUT, Forward, Match, Packet, Rule
from repro.net import TopologyBuilder
from repro.net.failures import FailureInjector
from repro.obs.health import IMBALANCE_MIN_LOAD
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


def build_star(replication=2, partitions_per_authority=2):
    topo = TopologyBuilder.star(4, hosts_per_leaf=1)
    rules, host_ips = routing_policy_for_topology(topo, L)
    dn = DifaneNetwork.build(
        topo, rules, L,
        authority_switches=["s0", "s1"],
        replication=replication,
        partitions_per_authority=partitions_per_authority,
        cache_capacity=0,
        redirect_rate=None,
        loss_seed=5,
    )
    return dn, topo, host_ips


class TestOwnershipDerivation:
    def test_matches_seeded_partition_assignment(self):
        dn, _, _ = build_star()
        plane = attach_sharded_control_plane(dn.controller, n_shards=2, seed=7,
                                             rebalance=False)
        pids = sorted(dn.controller._states)
        expected = assign_partitions_to_shards(pids, 2, seed=7)
        assert plane.ownership == {pid: f"shard{expected[pid]}" for pid in pids}

    def test_different_seed_can_differ_same_seed_identical(self):
        maps = []
        for seed in (7, 7, 8):
            dn, _, _ = build_star()
            plane = attach_sharded_control_plane(dn.controller, n_shards=2,
                                                 seed=seed, rebalance=False)
            maps.append(dict(plane.ownership))
        assert maps[0] == maps[1]

    def test_validates_parameters(self):
        dn, _, _ = build_star()
        with pytest.raises(ValueError):
            ShardedControlPlane(dn.controller, n_shards=0)
        with pytest.raises(ValueError):
            ShardedControlPlane(dn.controller, miss_threshold=0)


class TestLeaseTakeover:
    def attach(self, dn, **kwargs):
        kwargs.setdefault("n_shards", 3)
        kwargs.setdefault("seed", 4)
        kwargs.setdefault("lease_interval_s", 0.02)
        kwargs.setdefault("rebalance", False)
        return attach_sharded_control_plane(dn.controller, **kwargs)

    def test_leader_kill_elects_lowest_live_id(self):
        dn, _, _ = build_star()
        plane = self.attach(dn)
        dn.network.scheduler.schedule_at(0.1, plane.kill_shard, "shard0")
        dn.run(until=0.5)
        assert plane.leader_name == "shard1"
        assert plane.term == 1
        elections = [e for e in plane.events if e["event"] == "election"]
        assert len(elections) == 1
        # Takeover waits out the lease timeout: detection is emergent.
        assert elections[0]["time"] >= 0.1 + plane.timeout_s
        # Every partition ends up owned by a live shard.
        for pid in plane.ownership:
            assert plane.shards[plane.ownership[pid]].alive

    def test_takeover_is_deterministic(self):
        def run_once():
            dn, _, _ = build_star()
            plane = self.attach(dn)
            dn.network.scheduler.schedule_at(0.1, plane.kill_shard, "shard0")
            dn.run(until=0.5)
            return plane.events, dict(plane.ownership), plane.term

        assert run_once() == run_once()

    def test_follower_kill_triggers_leader_adoption(self):
        dn, _, _ = build_star()
        plane = self.attach(dn, n_shards=2)
        victim = "shard1"
        owned_before = [p for p, s in plane.ownership.items() if s == victim]
        dn.network.scheduler.schedule_at(0.1, plane.kill_shard, victim)
        dn.run(until=0.5)
        assert owned_before  # the test needs the follower to own something
        for pid in owned_before:
            assert plane.ownership[pid] != victim
        kinds = [e["event"] for e in plane.events]
        assert "follower-dead" in kinds
        assert "adoption" in kinds
        assert plane.term == 0  # no election: the leader never died

    def test_follower_orphans_handed_over_by_transfer_and_ack(self):
        """With three shards the leader adopts part of a dead follower's
        partitions itself and transfers the rest to the live follower,
        which owns them only once its OwnershipAck reaches the leader."""
        dn, _, _ = build_star()
        plane = self.attach(dn, seed=0)
        owned_before = [p for p, s in plane.ownership.items() if s == "shard1"]
        dn.network.scheduler.schedule_at(0.1, plane.kill_shard, "shard1")
        dn.run(until=0.5)
        kinds = [e["event"] for e in plane.events]
        assert kinds.index("transfer") < kinds.index("transfer-ack")
        assert "adoption" in kinds
        assert not plane.in_transfer
        assert {plane.ownership[p] for p in owned_before} == {"shard0", "shard2"}
        assert plane.term == 0

    def test_restored_leader_resumes_without_election(self):
        dn, _, _ = build_star()
        plane = self.attach(dn, n_shards=2)
        scheduler = dn.network.scheduler
        scheduler.schedule_at(0.1, plane.kill_shard, "shard0")
        # Repair lands before the lease goes stale on the follower.
        scheduler.schedule_at(0.12, plane.restore_shard, "shard0")
        dn.run(until=0.5)
        assert plane.leader_name == "shard0"
        assert plane.term == 0
        assert not [e for e in plane.events if e["event"] == "election"]


class TestDeferredFailover:
    def test_dead_shard_defers_until_adoption(self):
        dn, _, _ = build_star(replication=1)
        plane = attach_sharded_control_plane(
            dn.controller, n_shards=2, seed=4, lease_interval_s=0.02,
            rebalance=False,
        )
        # Pick an authority whose partitions are (at least partly) owned
        # by the follower shard, then kill that shard before the switch.
        follower_pids = [p for p, s in plane.ownership.items() if s == "shard1"]
        assert follower_pids
        injector = FailureInjector(dn.network)
        scheduler = dn.network.scheduler

        def kill_authority():
            victim_switch = dn.controller._states[follower_pids[0]].owners[0]
            injector.fail_switch(victim_switch)
            dn.controller.handle_authority_failure(victim_switch)

        scheduler.schedule_at(0.05, plane.kill_shard, "shard1")
        scheduler.schedule_at(0.06, kill_authority)
        dn.run(until=0.07)
        # The shard is dead and not yet adopted: failover must be queued,
        # with the partition still pointing at the dead switch.
        assert plane.pending_failovers
        deferred_pid = plane.pending_failovers[0][0]
        assert not plane.can_act_on(deferred_pid)
        dn.run(until=0.5)
        # Adoption landed and drained the queue through the real failover.
        assert plane.pending_failovers == []
        assert plane.deferred_failovers_applied >= 1
        assert dn.controller.assert_all_partitions_owned() > 0

    def test_live_shard_fails_over_immediately(self):
        dn, _, _ = build_star(replication=1)
        plane = attach_sharded_control_plane(
            dn.controller, n_shards=1, seed=4, rebalance=False,
        )
        injector = FailureInjector(dn.network)
        injector.fail_switch("s0")
        repointed = dn.controller.handle_authority_failure("s0")
        assert repointed > 0
        assert plane.pending_failovers == []
        assert dn.controller.assert_all_partitions_owned() > 0


class TestTwoPhaseMigration:
    def test_config_path_migration_is_atomic(self):
        # No control channel: install/flip/retire all run synchronously.
        dn, _, _ = build_star(replication=1)
        controller = dn.controller
        migrator = PartitionMigrator(controller)
        state = controller._states[0]
        source = state.owners[0]
        target = "s2"  # promoted from outside the pool
        migration = migrator.migrate(0, target, reason="manual")
        # Install and flip are synchronous without a channel; the retire
        # still waits out the redirect-drain grace on the event clock.
        assert migration is not None and migration.phase == "retire"
        assert state.owners[0] == target
        dn.run(until=0.5)
        assert migration.phase == "done"
        assert source not in state.owners
        assert source not in state.installed
        assert target in controller.authority_switches
        assert controller.assert_all_partitions_owned() > 0
        # Physical TCAMs agree: fragments moved, source region emptied.
        report = dn.tcam_report()
        assert report[target]["authority"] == len(state.installed[target])

    def test_channel_migration_runs_all_three_phases(self):
        dn, _, _ = build_star(replication=1)
        controller = dn.controller
        controller.connect_control_plane(max_retries=None)
        boundary_checks = []

        def on_complete(migration):
            boundary_checks.append(controller.assert_all_partitions_owned())

        migrator = PartitionMigrator(controller, on_complete=on_complete)
        state = controller._states[0]
        source = state.owners[0]
        migration = migrator.migrate(0, "s2")
        # Install phase: the target joined as a backup, so ownership is
        # whole even before any FlowMod lands.
        assert migration.phase == "install"
        assert state.owners == [source, "s2"]
        assert controller.assert_all_partitions_owned() > 0
        dn.run(until=1.0)
        assert migration.phase == "done"
        assert migration.flipped_at > migration.started_at
        # Retire waits out the redirect drain grace after the flip.
        assert migration.completed_at >= (
            migration.flipped_at + PartitionMigrator.RETIRE_GRACE_S
        )
        assert state.owners == ["s2"]
        assert boundary_checks and all(n > 0 for n in boundary_checks)
        # The source's fragments were withdrawn over the channel.
        assert dn.tcam_report()[source]["authority"] == sum(
            len(s.installed.get(source, [])) for s in controller._states.values()
        )

    def test_flip_moves_load_history(self):
        dn, _, _ = build_star(replication=1)
        controller = dn.controller
        state = controller._states[0]
        source = state.owners[0]
        old_fragments = state.installed[source]
        old_fragments[0].packet_count = 42
        old_fragments[0].byte_count = 4200
        migrator = PartitionMigrator(controller)
        migrator.migrate(0, "s2")
        new_fragments = state.installed["s2"]
        assert new_fragments[0].packet_count == 42
        assert new_fragments[0].byte_count == 4200
        assert old_fragments[0].packet_count == 0

    def test_flip_moves_history_by_rule_not_position(self):
        """The inserted rule's fragment sits last in the source's list but
        first in the target's (built from the sorted partition rules), so
        the flip must pair fragments by the rule they came from."""
        dn, _, host_ips = build_star(replication=1)
        controller = dn.controller
        hosts = sorted(host_ips)
        hot = hosts[-1]
        controller.insert_rule(Rule(
            Match.build(L, nw_dst=host_ips[hot], tp_dst=80), 10**7, Forward(hot)
        ))
        for index in range(200):
            dn.send(hosts[0], Packet.from_fields(
                L, nw_dst=host_ips[hot], nw_proto=6, tp_src=1024 + index,
                tp_dst=80 if index % 2 else 443,
            ))
        dn.run()

        def per_rule():
            counters = controller.collect_policy_counters()
            return {rule: snap.packets for rule, snap in counters.items() if snap.packets}

        before = per_rule()
        assert sorted(before.values()) == [100, 100]
        loads = controller.partition_loads()
        hot_pid = max(loads, key=loads.get)
        migration = PartitionMigrator(controller).migrate(hot_pid, "s2")
        dn.run(until=dn.network.scheduler.now + 0.5)
        assert migration.phase == "done"
        assert per_rule() == before

    def test_migration_to_current_primary_is_a_noop(self):
        dn, _, _ = build_star(replication=1)
        migrator = PartitionMigrator(dn.controller)
        primary = dn.controller._states[0].owners[0]
        assert migrator.migrate(0, primary) is None
        assert migrator.migrate(99, "s2") is None  # unknown partition

    def test_concurrent_migration_of_same_partition_rejected(self):
        dn, _, _ = build_star(replication=1)
        controller = dn.controller
        controller.connect_control_plane(max_retries=None)
        migrator = PartitionMigrator(controller)
        assert migrator.migrate(0, "s2") is not None
        assert migrator.migrate(0, "s3") is None  # still in flight
        dn.run(until=1.0)
        assert migrator.migrate(0, "s3") is not None  # done: next move ok

    def test_target_killed_mid_install_aborts_cleanly(self):
        dn, _, _ = build_star(replication=1)
        controller = dn.controller
        controller.connect_control_plane(max_retries=3)
        migrator = PartitionMigrator(controller)
        state = controller._states[0]
        source = state.owners[0]
        migration = migrator.migrate(0, "s2")
        assert migration.phase == "install"
        # The target dies before any install ack returns.
        FailureInjector(dn.network).fail_switch("s2")
        dn.run(until=1.0)
        assert migration.phase == "aborted"
        assert migration.pid not in migrator.active
        assert state.owners == [source]
        assert "s2" not in state.installed
        assert controller.assert_all_partitions_owned() > 0

    def test_dead_source_skips_retire(self):
        # Orphan heal: the source died, so there is nothing to withdraw —
        # the migration completes at the flip.  One partition per
        # authority so the dead source owns nothing else.
        dn, _, _ = build_star(replication=1, partitions_per_authority=1)
        controller = dn.controller
        migrator = PartitionMigrator(controller)
        state = controller._states[0]
        source = state.owners[0]
        FailureInjector(dn.network).fail_switch(source)
        migration = migrator.migrate(0, "s2", reason="orphan")
        assert migration.phase == "done"
        assert migration.completed_at == migration.flipped_at
        assert state.owners == ["s2"]
        assert controller.assert_all_partitions_owned() > 0


class TestOrphanHeal:
    def test_unowned_partition_heals_to_a_spare(self):
        # s0 fails while s1 and s2 are cut off: s0's partition has no
        # reachable replacement and is left with no owners at all.  The
        # rebalancer must still run and re-home every partition on s3.
        topo = TopologyBuilder.star(5, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        dn = DifaneNetwork.build(
            topo, rules, L,
            authority_switches=["s0", "s1", "s2"],
            partitions_per_authority=1,
            cache_capacity=0,
            redirect_rate=None,
        )
        controller = dn.controller
        controller.connect_control_plane()
        plane = attach_sharded_control_plane(controller, n_shards=2, spares=["s3"])
        for name in ("s1", "s2"):
            for _, neighbour, _ in topo.links_of(name):
                topo.remove_link(name, neighbour)
        dn.network.rebuild_routes()
        controller.handle_authority_failure("s0")
        assert [pid for pid, state in controller._states.items() if not state.owners]
        for index in range(400):
            dst = f"h{index % 5}"
            if dst == "h3":
                continue
            dn.send("h3", Packet.from_fields(
                L, nw_dst=host_ips[dst], nw_proto=6, tp_src=1024 + index, tp_dst=80,
            ))
        dn.run(until=0.2)
        healed = [
            (action["partition"], action["target"])
            for action in plane.rebalancer.actions
            if action["reason"] == "orphan" and action["outcome"] == "migrating"
        ]
        assert sorted(healed) == [(0, "s3"), (1, "s3"), (2, "s3")]
        assert [controller.owners_of(pid) for pid in range(3)] == [["s3"]] * 3


class TestExportShape:
    def test_export_is_schema_stable(self):
        dn, _, _ = build_star()
        plane = attach_sharded_control_plane(
            dn.controller, n_shards=2, seed=4, spares=("s2",), rebalance=True,
        )
        dn.run(until=0.2)
        export = plane.export()
        assert export["schema"] == "difane-control-plane/1"
        assert {s["name"] for s in export["shards"]} == {"shard0", "shard1"}
        assert sum(len(s["partitions"]) for s in export["shards"]) == len(
            dn.controller._states
        )
        assert export["rebalancer"]["cycles"] > 0
        for key in ("leader", "term", "events", "channel", "migrations"):
            assert key in export


class TestRebalancerWindow:
    def test_denominator_counts_redirects_since_start(self):
        # Mixed traffic loads both authorities before the plane attaches;
        # afterwards only h1's partition (owned by s0) sees redirects.
        # The imbalance rule's denominator is the set of switches that
        # handled a redirect since start(), so s1 is not in it: every
        # window reads fairness 1.0, and history agrees with the
        # (absent) findings rather than reporting a sub-threshold value.
        topo = TopologyBuilder.star(4, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        dn = DifaneNetwork.build(
            topo, rules, L,
            authority_switches=["s0", "s1"],
            cache_capacity=0,
            redirect_rate=None,
        )
        controller = dn.controller
        assert {pid: state.owners for pid, state in controller._states.items()} == {
            0: ["s0"], 1: ["s1"],
        }
        hosts = sorted(host_ips)

        def send(src, dst, count, start, gap):
            for index in range(count):
                dn.send_at(start + index * gap, src, Packet.from_fields(
                    L, nw_dst=host_ips[dst], nw_proto=6,
                    tp_src=1024 + index, tp_dst=80,
                ))

        for dst in hosts:
            for src in hosts:
                if src != dst:
                    send(src, dst, 5, 0.0, 1e-4)
        dn.run(until=0.05)
        before = {name: dn.network.node(name).redirects_handled for name in ("s0", "s1")}
        assert before["s0"] > 0 and before["s1"] > 0

        plane = attach_sharded_control_plane(controller, n_shards=2, rebalance=True)
        now = dn.network.scheduler.now
        for src in hosts:
            if src != "h1":
                send(src, "h1", 40, now, 2e-3)
        dn.run(until=now + 0.12)
        assert dn.network.node("s1").redirects_handled == before["s1"]
        assert dn.network.node("s0").redirects_handled - before["s0"] >= 2 * IMBALANCE_MIN_LOAD

        history = plane.rebalancer.history
        assert len(history) >= 4
        assert [entry["fairness"] for entry in history] == [1.0] * len(history)
        assert [entry["findings"] for entry in history] == [[]] * len(history)
        assert plane.rebalancer.actions == []
