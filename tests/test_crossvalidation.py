"""Cross-validation between independent implementations of the same thing.

Two pairs of implementations must agree:

1. the trace-driven wildcard cache simulator vs the event-driven DIFANE
   ingress cache (same policy, same header stream, same capacity, both
   LRU) — miss counts must match up to in-flight install races, which a
   spaced-out replay eliminates;
2. SetField-rewriting policies must behave identically through DIFANE's
   cached path and the proactive baseline.
"""

import pytest

from repro.baselines import ProactiveNetwork, ReplayTrace, simulate_wildcard_cache
from repro.core import DifaneNetwork
from repro.flowspace import (
    Drop,
    FIVE_TUPLE_LAYOUT,
    Forward,
    Match,
    Packet,
    Rule,
    SetField,
    Ternary,
)
from repro.net import TopologyBuilder
from repro.workloads.classbench import generate_classbench
from repro.workloads.traffic import flow_headers_for_policy, packet_sequence

L = FIVE_TUPLE_LAYOUT


class TestCacheSimulatorVsEventDriven:
    @pytest.mark.parametrize("cache_size", [25, 100])
    def test_miss_rates_agree(self, cache_size):
        policy = generate_classbench("acl", count=200, seed=29, layout=L)
        flows = flow_headers_for_policy(policy, 300, seed=30)
        headers = packet_sequence(flows, 1500, alpha=1.0, seed=31)

        predicted = simulate_wildcard_cache(ReplayTrace(policy, L, headers), cache_size)

        topo = TopologyBuilder.star(2, hosts_per_leaf=1)
        dn = DifaneNetwork.build(
            topo, policy, L,
            authority_switches=["hub"],
            cache_capacity=cache_size,
        )
        # Space packets out far beyond the install latency so the live
        # system sees the same sequential cache state the simulator does.
        for index, bits in enumerate(headers):
            packet = Packet(L, bits)
            dn.network.scheduler.schedule_at(
                index * 5e-3, dn.network.inject_from_host, "h0", packet
            )
        dn.run()
        ingress = dn.switch("s0")
        live_misses = ingress.redirects_out
        # The simulators share LRU semantics; small divergence can come
        # from fragment-shape differences (win_fragment subtraction order
        # inside the partition), so allow a tight tolerance.
        assert live_misses == pytest.approx(predicted.misses, rel=0.1, abs=5)


class TestSetFieldSemantics:
    def build_policy(self, host_ips):
        """A load-balancer style policy: rewrite dst IP, then forward."""
        vip = 0x0A00FF01
        hosts = sorted(host_ips)
        backend_a, backend_b = hosts[0], hosts[1]
        rules = [
            # VIP traffic from even sources -> backend A.
            Rule(
                Match.build(L, nw_dst=Ternary.exact(vip, 32),
                            nw_src="x" * 31 + "0"),
                priority=100,
                actions=[SetField("nw_dst", host_ips[backend_a]),
                         Forward(backend_a)],
            ),
            # VIP traffic from odd sources -> backend B.
            Rule(
                Match.build(L, nw_dst=Ternary.exact(vip, 32),
                            nw_src="x" * 31 + "1"),
                priority=99,
                actions=[SetField("nw_dst", host_ips[backend_b]),
                         Forward(backend_b)],
            ),
            Rule(Match.any(L), 0, Drop()),
        ]
        return vip, backend_a, backend_b, rules

    def test_rewrites_survive_caching(self):
        topo = TopologyBuilder.star(3, hosts_per_leaf=1)
        host_ips = {h: 0x0A000001 + i for i, h in enumerate(topo.hosts())}
        vip, backend_a, backend_b, rules = self.build_policy(host_ips)
        dn = DifaneNetwork.build(
            topo, rules, L, authority_switches=["hub"], cache_capacity=64,
        )
        pn = ProactiveNetwork.build(topo, rules, L)

        outcomes = {"difane": [], "proactive": []}
        for system, facade in (("difane", dn), ("proactive", pn)):
            for source in (2, 3, 4, 5, 6, 7):
                packet = Packet.from_fields(
                    L, nw_src=source, nw_dst=vip, nw_proto=6,
                    tp_src=1000 + source, tp_dst=80,
                )
                facade.send("h2", packet)
                facade.run()
                record = facade.network.deliveries[-1]
                outcomes[system].append(
                    (record.delivered, record.endpoint, packet.field("nw_dst"))
                )
        assert outcomes["difane"] == outcomes["proactive"]
        # Even sources went to backend A, odd to backend B.
        endpoints = [endpoint for _, endpoint, _ in outcomes["difane"]]
        assert endpoints == [backend_a, backend_b] * 3
        # And the rewrite actually happened on the wire.
        for _, endpoint, dst in outcomes["difane"]:
            assert dst == host_ips[endpoint]

    def test_second_flow_hits_cache_with_rewrite(self):
        topo = TopologyBuilder.star(3, hosts_per_leaf=1)
        host_ips = {h: 0x0A000001 + i for i, h in enumerate(topo.hosts())}
        vip, backend_a, _, rules = self.build_policy(host_ips)
        dn = DifaneNetwork.build(
            topo, rules, L, authority_switches=["hub"], cache_capacity=64,
        )
        for sport in (1111, 2222):
            packet = Packet.from_fields(
                L, nw_src=2, nw_dst=vip, nw_proto=6, tp_src=sport, tp_dst=80
            )
            dn.send("h2", packet)
            dn.run()
        ingress = dn.switch("s2")
        assert ingress.cache_hits == 1
        assert dn.network.delivered()[-1].endpoint == backend_a
