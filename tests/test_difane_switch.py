"""Behavioural tests for the DIFANE switch (ingress / transit / authority)."""

import random

import numpy as np
import pytest

from repro.core import DifaneNetwork
from repro.core.authority import DifaneSwitch
from repro.flowspace import (
    FIVE_TUPLE_LAYOUT, ActionList, Drop, Forward, Packet, Rule, SendToController,
    SetField,
)
from repro.flowspace.batch import PacketBatch
from repro.net import TopologyBuilder
from repro.net.failures import FailureInjector
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.zipf import ZipfSampler

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
    def _restore_context(self):
        previous = obs_context.current()
        yield
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

    def test_attributes_equal_counters_after_miss_failover_and_punt(self):
        """Partitions are owned by the pairs (s0, s1) and (s2, s3).  With
        s0, s1 and s2 dead, the (s2, s3) partitions fail over to s3 and the
        (s0, s1) ones are orphaned and punted to the controller; s3 lost
        its authority rules for h3, so those redirects miss there."""
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


# -- rare branches, end to end ---------------------------------------------------

def _host_pair_bursts(topology, host_ips, bursts, burst_size, hot_flows, seed):
    """``(time, ingress switch, PacketBatch)`` bursts 1 ms apart: Zipf(1)
    over ``hot_flows`` random host pairs, TCP from a random ephemeral port
    to port 80, one batch per (instant, source attachment switch)."""
    rng = random.Random(seed)
    hosts = list(host_ips)
    flows = []
    for _ in range(hot_flows):
        src, dst = rng.sample(hosts, 2)
        flows.append((topology.host_attachment(src), host_ips[src], host_ips[dst],
                      rng.randint(1024, 65535)))
    sampler = ZipfSampler(hot_flows, alpha=1.0, seed=seed + 1)
    schedule = []
    for burst in range(bursts):
        by_switch = {}
        for flow in sampler.sample_many(burst_size):
            by_switch.setdefault(flows[flow][0], []).append(flow)
        for switch, picked in by_switch.items():
            schedule.append((burst * 1e-3, switch, PacketBatch.from_fields(
                L, len(picked), flow_ids=picked,
                nw_src=[flows[f][1] for f in picked],
                nw_dst=[flows[f][2] for f in picked], nw_proto=6,
                tp_src=[flows[f][3] for f in picked], tp_dst=80,
            )))
    return schedule


def _vary_actions(rules):
    """The routing policy with its host rules cycled through SetField +
    Forward, Drop, no terminal action and SetField + SendToController; the
    trailing default drop is kept."""
    variants = (
        lambda port: ActionList(SetField("tp_src", 7), Forward(port)),
        lambda port: ActionList(Drop()),
        lambda port: ActionList(SetField("tp_dst", 8080)),
        lambda port: ActionList(SetField("tp_dst", 443), SendToController()),
    )
    return [
        Rule(rule.match, rule.priority,
             variants[index % len(variants)](rule.actions.final_forward().port))
        for index, rule in enumerate(rules[:-1])
    ] + rules[-1:]


def _run_workload(seed, leaf_count, hosts_per_leaf, hot_flows,
                  redirect_rate=None, loss=0.0, replication=1, kill=False,
                  control=False, authority_miss=False, actions=False):
    """One full DIFANE run of four 40-packet bursts; returns (metrics
    snapshot, per-packet outcomes, trace accounting).

    ``kill`` places the authorities on leaves s0 and s1 and fails s0 before
    the first burst: its partitions fail over (``replication=2``), punt to
    the controller (``control``) or drop as unreachable.
    ``authority_miss`` strips every authority's default-drop fragments and
    the rules for every other host, so those redirects miss there.
    """
    context = fresh_run_context(trace=True, telemetry=True)
    topo = TopologyBuilder.star(leaf_count=leaf_count, hosts_per_leaf=hosts_per_leaf)
    rules, host_ips = routing_policy_for_topology(topo, L, seed=seed)
    if actions:
        rules = _vary_actions(rules)
    placement = {"authority_switches": ["s0", "s1"]} if kill else {"authority_count": 2}
    facade = DifaneNetwork.build(
        topo, rules, L, cache_capacity=64, redirect_rate=redirect_rate,
        replication=replication, **placement,
    )
    schedule = _host_pair_bursts(
        topo, host_ips, bursts=4, burst_size=40, hot_flows=hot_flows, seed=seed,
    )
    if control:
        facade.controller.connect_control_plane()
    if kill:
        FailureInjector(facade.network).fail_switch("s0")
    if authority_miss:
        stripped = {None} | set(list(host_ips)[::2])
        for switch in facade.switches():
            for rule in list(switch.pipeline.authority.table.rules):
                forward = rule.actions.final_forward()
                if (forward and forward.port) in stripped:
                    switch.uninstall_rule(rule)
    if loss:
        for link in facade.network._links.values():
            link.loss_probability = loss
    for time, switch, batch in schedule:
        facade.send_batch_at(time, switch, batch)
    facade.run()
    outcomes = [
        (r.packet_id, r.delivered, r.drop_reason) for r in facade.network.deliveries
    ]
    snapshot = context.metrics.snapshot(exclude_prefixes=("artifact_cache_",))
    return snapshot, outcomes, context.tracer.accounting()


#: The rare decisions of the packet path, then a lossy fabric and queueing
#: at a redirect station, each with the counters or drop reasons that show
#: a run took it.
_BRANCHES = [
    ({"replication": 2, "kill": True}, ("difane_failovers_total",)),
    ({"kill": True, "control": True}, ("difane_degraded_packets_total",)),
    ({"kill": True}, ("authority unreachable",)),
    ({"authority_miss": True}, ("authority miss", "difane_unmatched_total")),
    ({"actions": True},
     ("policy drop", "no terminal action", "punt without controller")),
    ({}, ("difane_cache_hits_total", "difane_redirects_handled_total")),
    ({"redirect_rate": 800_000.0}, ("station_completed_total",)),
    ({"loss": 0.02}, ("link loss",)),
]


@pytest.mark.parametrize(
    "config, evidence", _BRANCHES,
    ids=[",".join(config) or "clean" for config, _ in _BRANCHES],
)
def test_rare_branches_are_taken_and_conserve_packets(config, evidence):
    """Each branch, on a draw known to take it: the evidence shows, and
    every injected packet ends delivered or dropped exactly once."""
    previous = obs_context.current()
    try:
        snapshot, outcomes, trace = _run_workload(11, 4, 2, 24, **config)
    finally:
        obs_context.install(previous)
    counters = snapshot["counters"]
    taken = {reason for *_, reason in outcomes if reason}
    taken |= {key.split("{")[0] for key, value in counters.items() if value}
    for sign in evidence:
        assert any(name.startswith(sign) for name in taken), sign
    injected = counters["packets_injected_total"]
    delivered = counters.get("packets_delivered_total", 0)
    dropped = sum(
        value for key, value in counters.items()
        if key.startswith("packets_dropped_total")
    )
    # Known leak, kept visible: a packet that entered at the dead switch
    # s0 is punted, and the controller's PacketOut back to s0 vanishes
    # with its dead receiver without being counted lost (ROADMAP item 14).
    down = {
        event: counters.get(
            f"control_channel_events_total{{direction=down,event={event}}}", 0
        )
        for event in ("attempted", "delivered", "lost")
    }
    leaked = down["attempted"] - down["delivered"] - down["lost"]
    assert (leaked > 0) == (config == {"kill": True, "control": True})
    assert injected == 4 * 40
    assert injected == delivered + dropped + leaked
    assert delivered + dropped == len(outcomes)
    assert len({packet_id for packet_id, *_ in outcomes}) == len(outcomes)
    assert trace["ingress"] == injected
    assert trace["delivered"] + trace["dropped"] == len(outcomes)
    assert trace["evicted"] == 0
