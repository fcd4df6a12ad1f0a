"""Chaos layer: lossy links, heartbeat detection, degradation, schedules."""

import dataclasses
import gc

import pytest

from repro.core import DifaneNetwork, PartitionInvariantError
from repro.experiments.chaos import run_chaos_soak
from repro.flowspace import FIVE_TUPLE_LAYOUT, Packet
from repro.net import ChaosSchedule, ChaosSpec, EventScheduler, TopologyBuilder
from repro.net.events import LANE_BLOCK
from repro.net.failures import FailureInjector
from repro.obs.attribution import attribute_drops
from repro.openflow.channel import ChannelFaultModel
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


def build_star(replication=2, loss=0.0, cache_capacity=0):
    topo = TopologyBuilder.star(4, hosts_per_leaf=1)
    if loss > 0:
        for a, b, data in topo.graph.edges(data=True):
            roles = {topo.graph.nodes[a]["role"], topo.graph.nodes[b]["role"]}
            if roles == {"switch"}:
                data["spec"] = dataclasses.replace(
                    data["spec"], loss_probability=loss
                )
    rules, host_ips = routing_policy_for_topology(topo, L)
    dn = DifaneNetwork.build(
        topo, rules, L,
        authority_switches=["s0", "s1"],
        replication=replication,
        cache_capacity=cache_capacity,
        redirect_rate=None,
        loss_seed=5,
    )
    return dn, topo, host_ips


def packet_to(host_ips, dst, sport):
    return Packet.from_fields(
        L, nw_src=0x0A0A0A0A, nw_dst=host_ips[dst], nw_proto=6,
        tp_src=sport, tp_dst=80,
    )


def host_on(topo, host_ips, switch):
    return next(h for h in host_ips if topo.host_attachment(h) == switch)


class TestInjectorIdempotence:
    def test_double_fail_link_is_a_noop(self):
        dn, topo, _ = build_star()
        injector = FailureInjector(dn.network)
        assert injector.fail_link("hub", "s2") is True
        assert injector.fail_link("hub", "s2") is False
        assert len(injector.events) == 1

    def test_double_restore_link_is_a_noop(self):
        dn, topo, _ = build_star()
        injector = FailureInjector(dn.network)
        injector.fail_link("hub", "s2")
        assert injector.restore_link("hub", "s2") is True
        assert injector.restore_link("hub", "s2") is False
        assert topo.has_link("hub", "s2")

    def test_double_fail_switch_is_a_noop(self):
        dn, topo, _ = build_star()
        injector = FailureInjector(dn.network)
        assert injector.fail_switch("s2") > 0
        assert injector.fail_switch("s2") == 0
        assert injector.failed_switches() == ["s2"]

    def test_double_restore_switch_is_a_noop(self):
        dn, topo, _ = build_star()
        injector = FailureInjector(dn.network)
        links_before = len(topo.links_of("s2"))
        injector.fail_switch("s2")
        assert injector.restore_switch("s2") == links_before
        assert injector.restore_switch("s2") == 0
        assert len(topo.links_of("s2")) == links_before

    def test_restore_preserves_link_spec(self):
        dn, topo, _ = build_star(loss=0.25)
        spec_before = topo.link_spec("hub", "s2")
        injector = FailureInjector(dn.network)
        injector.fail_switch("s2")
        injector.restore_switch("s2")
        assert topo.link_spec("hub", "s2") == spec_before
        assert spec_before.loss_probability == 0.25

    def test_fail_switch_marks_behaviour_dead(self):
        dn, _, _ = build_star()
        injector = FailureInjector(dn.network)
        injector.fail_switch("s2")
        assert dn.switch("s2").alive is False
        injector.restore_switch("s2")
        assert dn.switch("s2").alive is True


class TestLossyLinks:
    def test_total_loss_drops_everything_with_attribution(self):
        dn, topo, host_ips = build_star(loss=1.0, cache_capacity=64)
        src = host_on(topo, host_ips, "s2")
        for sport in range(1200, 1220):
            dn.send(src, packet_to(host_ips, host_on(topo, host_ips, "s3"), sport))
        dn.run()
        drops = dn.network.dropped()
        assert len(dn.network.delivered()) == 0
        assert drops
        assert all(d.drop_reason.startswith("link loss") for d in drops)
        assert attribute_drops(drops) == {"link-loss": len(drops)}

    def test_partial_loss_is_deterministic_in_the_seed(self):
        outcomes = []
        for _ in range(2):
            dn, topo, host_ips = build_star(loss=0.5, cache_capacity=64)
            src = host_on(topo, host_ips, "s2")
            dst = host_on(topo, host_ips, "s3")
            for sport in range(2000, 2080):
                dn.send(src, packet_to(host_ips, dst, sport))
            dn.run()
            outcomes.append(
                [(r.delivered, r.drop_reason) for r in dn.network.deliveries]
            )
        assert outcomes[0] == outcomes[1]
        delivered = sum(1 for ok, _ in outcomes[0] if ok)
        assert 0 < delivered < 80  # p=0.5 per hop: some live, some die

    def test_zero_loss_draws_no_randomness(self):
        dn, topo, _ = build_star(loss=0.0)
        for a, b, _spec in (triple for s in topo.switches()
                            for triple in topo.links_of(s)):
            link = dn.network.link(a, b)
            assert link.loss_probability == 0.0
            assert link.packets_lost == 0


class TestInvariantChecker:
    def test_passes_on_a_healthy_network(self):
        dn, _, _ = build_star()
        assert dn.controller.assert_all_partitions_owned() > 0

    def test_detects_dead_owner(self):
        dn, _, _ = build_star(replication=1)
        FailureInjector(dn.network).fail_switch("s0")
        with pytest.raises(PartitionInvariantError, match="dead"):
            dn.controller.assert_all_partitions_owned()

    def test_passes_again_after_reassignment(self):
        dn, _, _ = build_star(replication=1)
        FailureInjector(dn.network).fail_switch("s0")
        dn.controller.handle_authority_failure("s0")
        assert dn.controller.assert_all_partitions_owned() > 0

    def test_restore_after_reassignment_keeps_invariants(self):
        # The partition moved to s1 while s0 was down; bringing s0 back
        # (and reinstating it) must not corrupt ownership.
        dn, topo, host_ips = build_star(replication=1)
        injector = FailureInjector(dn.network)
        injector.fail_switch("s0")
        dn.controller.handle_authority_failure("s0")
        injector.restore_switch("s0")
        dn.controller.reinstate_authority("s0")
        assert "s0" in dn.controller.authority_switches
        assert dn.controller.assert_all_partitions_owned() > 0
        src = host_on(topo, host_ips, "s2")
        dst = host_on(topo, host_ips, "s3")
        for sport in range(3000, 3010):
            dn.send(src, packet_to(host_ips, dst, sport))
        dn.run()
        assert len(dn.network.delivered()) == 10


class TestHeartbeatDetection:
    def test_detection_latency_tracks_threshold_times_interval(self):
        dn, _, _ = build_star()
        interval, threshold = 0.02, 3
        dn.controller.connect_control_plane(
            heartbeat_interval_s=interval, miss_threshold=threshold,
        )
        injector = FailureInjector(dn.network)
        injector.fail_switch_at(0.2, "s0")
        dn.run(until=0.6)
        monitor = dn.controller.monitor
        assert [s for _, s in monitor.detections] == ["s0"]
        latency = monitor.detections[0][0] - 0.2
        # At least the deadline minus one beat of phase; at most deadline
        # plus a check period plus channel latency.
        assert threshold * interval - interval <= latency
        assert latency <= threshold * interval + interval + 0.01
        assert monitor.false_positives == 0

    def test_no_false_positives_under_bounded_delay(self):
        # Channel jitter up to one beat period: arrival gaps stay well
        # under the 3-interval deadline, so nothing may be declared dead.
        dn, _, _ = build_star()
        fm = ChannelFaultModel(extra_delay_s=0.02, seed=3)
        dn.controller.connect_control_plane(
            fault_model=fm, heartbeat_interval_s=0.02, miss_threshold=3,
        )
        dn.run(until=1.0)
        assert dn.controller.monitor.detections == []
        assert dn.controller.monitor.false_positives == 0

    def test_recovery_reinstates_the_authority(self):
        dn, _, _ = build_star()
        dn.controller.connect_control_plane(
            heartbeat_interval_s=0.02, miss_threshold=3,
        )
        injector = FailureInjector(dn.network)
        injector.fail_switch_at(0.2, "s0")
        injector.restore_switch_at(0.4, "s0")
        dn.run(until=0.8)
        monitor = dn.controller.monitor
        assert [s for _, s in monitor.detections] == ["s0"]
        assert [s for _, s in monitor.recoveries] == ["s0"]
        assert "s0" in dn.controller.authority_switches
        assert dn.controller.assert_all_partitions_owned() > 0


class TestGracefulDegradation:
    def kill_both_authorities(self, dn):
        injector = FailureInjector(dn.network)
        injector.fail_switch("s0")
        injector.fail_switch("s1")
        return injector

    def test_orphaned_partition_falls_back_to_controller(self):
        dn, topo, host_ips = build_star()
        dn.controller.connect_control_plane(max_retries=None)
        src = host_on(topo, host_ips, "s2")
        dst = host_on(topo, host_ips, "s3")
        self.kill_both_authorities(dn)
        for sport in range(4000, 4010):
            dn.send(src, packet_to(host_ips, dst, sport))
        dn.run()
        assert len(dn.network.delivered()) == 10
        assert sum(s.degraded_packets for s in dn.switches()) == 10
        assert dn.controller.degraded_packet_ins == 10
        assert all(r.via_controller for r in dn.network.delivered())

    def test_without_control_channel_orphans_drop_attributed(self):
        dn, topo, host_ips = build_star()
        src = host_on(topo, host_ips, "s2")
        dst = host_on(topo, host_ips, "s3")
        self.kill_both_authorities(dn)
        dn.send(src, packet_to(host_ips, dst, 4100))
        dn.run()
        drops = dn.network.dropped()
        assert len(drops) == 1
        assert drops[0].drop_reason == "authority unreachable"
        assert attribute_drops(drops) == {"black-hole": 1}


class TestChaosSchedule:
    def make(self, seed=9):
        dn, topo, _ = build_star()
        injector = FailureInjector(dn.network)
        fm = ChannelFaultModel(seed=seed)
        spec = ChaosSpec(seed=seed, duration_s=1.0)
        return ChaosSchedule.randomized(
            dn.network, injector, spec,
            kill_candidates=["s2", "s3"],
            authority_candidates=["s0", "s1"],
            fault_model=fm,
        )

    def test_same_seed_same_plan(self):
        assert self.make(seed=9).planned == self.make(seed=9).planned

    def test_different_seed_different_plan(self):
        assert self.make(seed=9).planned != self.make(seed=10).planned

    def test_all_events_inside_the_run_window(self):
        schedule = self.make()
        assert schedule.planned
        for time, _, _ in schedule.planned:
            assert 0.0 < time < 1.0

    def test_brownout_requires_fault_model(self):
        dn, _, _ = build_star()
        schedule = ChaosSchedule(dn.network, FailureInjector(dn.network))
        with pytest.raises(ValueError):
            schedule.brownout(0.1, 0.5, 0.2)


class TestChaosSoak:
    def test_soak_holds_the_robustness_targets(self):
        result = run_chaos_soak(rate=1500, duration=0.4)
        notes = result.notes
        assert notes["invariant_violations"] == 0
        assert notes["unattributed_drops"] == 0
        assert notes["unaccounted_packets"] == 0
        assert notes["detections"] >= 1  # the authority kill was noticed
        assert notes["delivered"] > 0.5 * 1500 * 0.4

    def test_soak_is_deterministic(self):
        a = run_chaos_soak(rate=800, duration=0.3, seed=21)
        b = run_chaos_soak(rate=800, duration=0.3, seed=21)
        assert a.table_rows == b.table_rows
        assert a.notes["drop_attribution"] == b.notes["drop_attribution"]
        assert a.notes["detection_latencies_s"] == b.notes["detection_latencies_s"]

    def test_rebalance_soak_builds_offered_packets_as_the_run_reaches_them(self, monkeypatch):
        """When C2's quick run (1,000 offered packets) enters the event
        loop, at most one lane block of them has been built."""
        from repro.experiments.registry import SPECS

        def live_packets():
            return {id(obj) for obj in gc.get_objects() if isinstance(obj, Packet)}

        gc.collect()
        before = live_packets()
        at_run = []
        run = EventScheduler.run

        def counting_run(self, *args, **kwargs):
            if not at_run:
                at_run.append(len(live_packets() - before))
            return run(self, *args, **kwargs)

        monkeypatch.setattr(EventScheduler, "run", counting_run)
        result = SPECS["C2"](quick=True)
        assert result.notes["delivered"] + result.notes["dropped"] == 1000
        assert at_run and at_run[0] <= LANE_BLOCK + 1


class TestKillRecoverKillRegression:
    """A dead authority's fragments cannot be uninstalled in place; the
    reinstate path must purge them so a kill→recover→kill cycle never
    double-counts the switch's rules or load."""

    def expected_occupancy(self, dn):
        installed = {}
        for state in dn.controller._states.values():
            for owner, fragments in state.installed.items():
                installed[owner] = installed.get(owner, 0) + len(fragments)
        return installed

    def test_reinstate_purges_stale_fragments(self):
        dn, _, _ = build_star(replication=1)
        injector = FailureInjector(dn.network)
        injector.fail_switch("s0")
        dn.controller.handle_authority_failure("s0")
        # Dead switch: the re-homed partition's fragments linger in its TCAM.
        assert dn.tcam_report()["s0"]["authority"] > 0
        injector.restore_switch("s0")
        dn.controller.reinstate_authority("s0")
        report = dn.tcam_report()
        assert report["s0"]["authority"] == 0
        expected = self.expected_occupancy(dn)
        for name, counts in report.items():
            assert counts["authority"] == expected.get(name, 0)

    def test_kill_recover_kill_cycle_stays_consistent(self):
        dn, _, _ = build_star(replication=1)
        injector = FailureInjector(dn.network)
        for _ in range(2):
            injector.fail_switch("s0")
            dn.controller.handle_authority_failure("s0")
            injector.restore_switch("s0")
            dn.controller.reinstate_authority("s0")
        # The candidate pool holds each authority exactly once...
        pool = dn.controller.authority_switches
        assert sorted(pool) == sorted(set(pool))
        # ...ownership is whole, and every switch's physical TCAM matches
        # the controller's installed records (no stale double-counting).
        assert dn.controller.assert_all_partitions_owned() > 0
        expected = self.expected_occupancy(dn)
        for name, counts in dn.tcam_report().items():
            assert counts["authority"] == expected.get(name, 0)

    def test_heartbeat_flap_does_not_duplicate_candidates(self):
        dn, _, _ = build_star(replication=1)
        dn.controller.connect_control_plane(
            heartbeat_interval_s=0.02, miss_threshold=3,
        )
        injector = FailureInjector(dn.network)
        # Two full kill→detect→recover→reinstate rounds through the monitor.
        injector.fail_switch_at(0.1, "s0")
        injector.restore_switch_at(0.4, "s0")
        injector.fail_switch_at(0.7, "s0")
        injector.restore_switch_at(1.0, "s0")
        dn.run(until=1.5)
        monitor = dn.controller.monitor
        assert [s for _, s in monitor.detections] == ["s0", "s0"]
        assert [s for _, s in monitor.recoveries] == ["s0", "s0"]
        pool = dn.controller.authority_switches
        assert sorted(pool) == sorted(set(pool))
        assert pool.count("s0") == 1
        assert dn.controller.assert_all_partitions_owned() > 0
        expected = self.expected_occupancy(dn)
        for name, counts in dn.tcam_report().items():
            assert counts["authority"] == expected.get(name, 0)


class TestShardKillChaos:
    def test_kill_shard_requires_a_plane(self):
        dn, _, _ = build_star()
        schedule = ChaosSchedule(dn.network, FailureInjector(dn.network))
        with pytest.raises(ValueError):
            schedule.kill_shard(0.1, "shard0")

    def test_shard_kills_extend_the_plan_without_perturbing_legacy_draws(self):
        from repro.core.shards import attach_sharded_control_plane

        def plan(shard_kills):
            dn, _, _ = build_star()
            plane = attach_sharded_control_plane(
                dn.controller, n_shards=2, seed=4, rebalance=False,
            )
            injector = FailureInjector(dn.network)
            spec = ChaosSpec(seed=9, duration_s=1.0, shard_kills=shard_kills)
            return ChaosSchedule.randomized(
                dn.network, injector, spec,
                kill_candidates=["s2", "s3"],
                authority_candidates=["s0", "s1"],
                fault_model=ChannelFaultModel(seed=9),
                shard_plane=plane,
                shard_candidates=sorted(plane.shards),
            ).planned

        baseline = plan(shard_kills=0)
        extended = plan(shard_kills=1)
        # Shard-kill draws come after every legacy draw, so the legacy
        # events of the plan are byte-identical (the combined plan is
        # time-sorted, so filter rather than prefix-compare).
        shard_kinds = {"kill-shard", "repair-shard"}
        legacy = [e for e in extended if e[1] not in shard_kinds]
        assert legacy == baseline
        extra = [e for e in extended if e[1] in shard_kinds]
        assert extra

    def test_scheduled_shard_kill_triggers_takeover(self):
        from repro.core.shards import attach_sharded_control_plane

        dn, _, _ = build_star()
        plane = attach_sharded_control_plane(
            dn.controller, n_shards=2, seed=4, lease_interval_s=0.02,
            rebalance=False,
        )
        injector = FailureInjector(dn.network)
        schedule = ChaosSchedule(
            dn.network, injector, shard_plane=plane,
        )
        schedule.kill_shard(0.1, "shard0", repair_at=0.5)
        dn.run(until=1.0)
        events = [e["event"] for e in plane.events]
        assert "shard-kill" in events
        assert "election" in events  # the surviving shard took the lease
        assert plane.term >= 1
        assert plane.leader_name == "shard1" or plane.shards["shard0"].alive
        # Every partition is owned by a live shard at the end.
        for pid, owner in sorted(plane.ownership.items()):
            assert plane.shards[owner].alive
