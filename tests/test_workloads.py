"""Tests for workload generation: Zipf, ClassBench, policies, traffic, traces."""

import math
import random

import numpy as np
import pytest

from repro.flowspace import Drop, Forward, Packet, RuleTable, FIVE_TUPLE_LAYOUT
from repro.net import TopologyBuilder
from repro.workloads import (
    Trace,
    ZipfSampler,
    campus_policy,
    generate_classbench,
    packet_sequence,
    routing_policy_for_topology,
    vpn_policy,
)
from repro.workloads.traffic import (
    TimedPacket,
    flow_headers_for_policy,
    host_pair_packets,
    poisson_arrivals,
    zipf_host_pair_packets,
)
from repro.workloads.zipf import zipf_cdf

L = FIVE_TUPLE_LAYOUT


def _per_flow_reference(host_ips, count, rate, seed, flow_packets,
                        deterministic_arrivals, zipf, alpha=1.2):
    """The one-flow-at-a-time loops the bulk generators replaced: one
    scalar Zipf draw and one keyword-packed header per flow."""
    rng = random.Random(seed)
    hosts = list(host_ips)
    zipf_rng = np.random.default_rng(seed)
    cdf = zipf_cdf(len(hosts), alpha)
    if deterministic_arrivals:
        start_times = [i / rate for i in range(count)]
    else:
        gap_rng = random.Random(seed + 1)
        start_times = []
        t = 0.0
        for _ in range(count):
            t += gap_rng.expovariate(rate)
            start_times.append(t)
    result = []
    for flow_id, start in enumerate(start_times):
        if zipf:
            dst = hosts[int(np.searchsorted(cdf, zipf_rng.random()))]
            src = rng.choice([host for host in hosts if host != dst])
        else:
            src, dst = rng.sample(hosts, 2)
        header_kwargs = dict(
            nw_src=host_ips[src], nw_dst=host_ips[dst], nw_proto=6,
            tp_src=rng.randint(1024, 65535), tp_dst=80,
        )
        for p_index in range(flow_packets):
            packet = Packet.from_fields(L, flow_id=flow_id, **header_kwargs)
            result.append(TimedPacket(start + p_index * 1e-6, src, packet))
    return result


class TestZipf:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, alpha=1.0)
        total = sum(sampler.probability(r) for r in range(100))
        assert total == pytest.approx(1.0)

    def test_rank_zero_most_popular(self):
        sampler = ZipfSampler(100, alpha=1.0)
        assert sampler.probability(0) > sampler.probability(50)

    def test_alpha_zero_is_uniform(self):
        sampler = ZipfSampler(10, alpha=0.0)
        probs = [sampler.probability(r) for r in range(10)]
        assert all(p == pytest.approx(0.1) for p in probs)

    def test_sample_distribution_skews(self):
        sampler = ZipfSampler(1000, alpha=1.2, seed=1)
        draws = sampler.sample_many(5000)
        head = sum(1 for d in draws if d < 10)
        assert head / len(draws) > 0.3

    def test_deterministic_by_seed(self):
        a = ZipfSampler(50, alpha=1.0, seed=7).sample_many(100)
        b = ZipfSampler(50, alpha=1.0, seed=7).sample_many(100)
        assert a == b

    def test_shuffle_decorrelates_rank(self):
        plain = ZipfSampler(100, alpha=1.5, seed=3, shuffle=False)
        assert plain.sample_many(50).count(0) > 0
        shuffled = ZipfSampler(100, alpha=1.5, seed=3, shuffle=True)
        # Sampling still works and stays in range.
        assert all(0 <= i < 100 for i in shuffled.sample_many(50))

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(5, alpha=-1)
        with pytest.raises(IndexError):
            ZipfSampler(5).probability(5)


class TestClassBench:
    def test_requested_size(self):
        for count in (10, 100, 500):
            rules = generate_classbench("acl", count=count, seed=0)
            assert len(rules) == count

    def test_default_rule_is_catch_all(self):
        rules = generate_classbench("acl", count=50, seed=0)
        assert rules[-1].match.ternary.is_wildcard()
        assert rules[-1].priority == 0

    def test_deterministic(self):
        a = generate_classbench("fw", count=100, seed=5)
        b = generate_classbench("fw", count=100, seed=5)
        assert [r.match.ternary for r in a] == [r.match.ternary for r in b]

    def test_seeds_differ(self):
        a = generate_classbench("acl", count=100, seed=1)
        b = generate_classbench("acl", count=100, seed=2)
        assert [r.match.ternary for r in a] != [r.match.ternary for r in b]

    def test_profiles_differ(self):
        acl = generate_classbench("acl", count=200, seed=3)
        ipc = generate_classbench("ipc", count=200, seed=3)
        avg_wild = lambda rules: sum(
            r.match.ternary.wildcard_bits() for r in rules
        ) / len(rules)
        # IPC rules are much more specific than ACL rules.
        assert avg_wild(ipc) < avg_wild(acl)

    def test_priorities_non_increasing(self):
        rules = generate_classbench("acl", count=100, seed=4)
        priorities = [r.priority for r in rules]
        assert priorities == sorted(priorities, reverse=True)

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            generate_classbench("bogus")

    def test_overlap_structure_exists(self):
        """Prefix reuse must create real dependency chains."""
        rules = generate_classbench("acl", count=200, seed=6)
        depths = []
        for i, rule in enumerate(rules):
            depths.append(
                sum(1 for other in rules[:i] if other.match.intersects(rule.match))
            )
        average = sum(depths) / len(depths)
        assert average > 1.0  # real overlap, not a disjoint ruleset
        assert max(depths) >= 10  # at least one long chain

    def test_mix_of_actions(self):
        rules = generate_classbench("fw", count=300, seed=7)
        denies = sum(1 for r in rules if any(isinstance(a, Drop) for a in r.actions))
        assert 0 < denies < len(rules)


class TestPolicies:
    def test_campus_size_formula(self):
        rules = campus_policy(departments=4, subnets_per_department=3,
                              acl_rules_per_department=5)
        assert len(rules) == 4 * (5 + 3) + 1

    def test_campus_default_deny_last(self):
        rules = campus_policy(departments=2)
        assert rules[-1].match.ternary.is_wildcard()
        assert rules[-1].actions.is_drop

    def test_vpn_size(self):
        rules = vpn_policy(customers=5, sites_per_customer=3)
        assert len(rules) == 5 * 9 + 1

    def test_vpn_customers_disjoint(self):
        rules = vpn_policy(customers=4, sites_per_customer=2)
        # Site rules of different customers never overlap.
        c0 = rules[0]
        c_last = rules[-2]
        assert not c0.match.intersects(c_last.match)

    def test_routing_policy_covers_hosts(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=2)
        rules, host_ips = routing_policy_for_topology(topo, L)
        assert set(host_ips) == set(topo.hosts())
        table = RuleTable(L, rules)
        for host, ip in host_ips.items():
            bits = L.pack_values(nw_dst=ip)
            winner = table.lookup_bits(bits)
            forward = winner.actions.final_forward()
            assert forward is not None and forward.port == host

    def test_routing_policy_acl_layered_on_top(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, L, acl_rules=5, seed=1)
        assert len(rules) == 5 + 2 + 1
        assert all(r.actions.is_drop for r in rules[:5])

    def test_routing_policy_needs_hosts(self):
        topo = TopologyBuilder.linear(2, hosts_per_switch=0)
        with pytest.raises(ValueError):
            routing_policy_for_topology(topo, L)


class TestTraffic:
    def test_flow_headers_match_policy(self):
        policy = generate_classbench("acl", count=50, seed=8)
        table = RuleTable(L, policy)
        headers = flow_headers_for_policy(policy, 100, seed=0)
        assert len(headers) == 100
        matched = sum(1 for h in headers if table.lookup_bits(h) is not None)
        assert matched == 100  # policy has a catch-all

    def test_packet_sequence_popularity(self):
        flows = list(range(100))
        seq = packet_sequence(flows, 5000, alpha=1.3, seed=1)
        counts = {}
        for f in seq:
            counts[f] = counts.get(f, 0) + 1
        top = max(counts.values())
        assert top > 5000 / 100 * 3  # clearly non-uniform

    def test_packet_sequence_deterministic(self):
        flows = list(range(10))
        assert packet_sequence(flows, 100, seed=2) == packet_sequence(flows, 100, seed=2)

    def test_poisson_arrivals_rate(self):
        times = poisson_arrivals(1000.0, 2.0, seed=3)
        assert 1600 < len(times) < 2400
        assert all(0 <= t < 2.0 for t in times)
        assert times == sorted(times)

    def test_host_pair_packets(self):
        topo = TopologyBuilder.linear(3, hosts_per_switch=1)
        _, host_ips = routing_policy_for_topology(topo, L)
        timed = host_pair_packets(topo, host_ips, L, count=20, rate=100.0,
                                  seed=4, flow_packets=2)
        assert len(timed) == 40
        for tp in timed:
            assert tp.packet.field("nw_dst") in host_ips.values()
            assert tp.source_host in host_ips

    @pytest.mark.parametrize("deterministic", [False, True], ids=["poisson", "paced"])
    @pytest.mark.parametrize("flow_packets", [1, 3])
    @pytest.mark.parametrize("n_hosts", [2, 3, 8, 17])
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("zipf", [False, True], ids=["uniform", "zipf"])
    def test_bulk_generators_keep_per_flow_draws(
        self, zipf, seed, n_hosts, flow_packets, deterministic
    ):
        host_ips = {f"h{i}": 0x0A000000 + 7 * i + 1 for i in range(n_hosts)}
        kwargs = dict(count=60, rate=500.0, seed=seed, flow_packets=flow_packets,
                      deterministic_arrivals=deterministic)
        generator = zipf_host_pair_packets if zipf else host_pair_packets
        expected = _per_flow_reference(host_ips, zipf=zipf, **kwargs)
        actual = generator(None, host_ips, L, **kwargs)

        def signature(timed):
            first = timed[0].packet.packet_id
            return [
                (t.time, t.source_host, t.packet.header_bits, t.packet.flow_id,
                 t.packet.size_bytes, t.packet.packet_id - first)
                for t in timed
            ]

        assert len(actual) == 60 * flow_packets
        assert signature(actual) == signature(expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0, 1.0)
        with pytest.raises(ValueError):
            packet_sequence([], 10)
        with pytest.raises(ValueError):
            flow_headers_for_policy([], 10)


class TestTrace:
    def test_from_headers_round_trip(self, tmp_path):
        headers = [random.Random(0).getrandbits(104) for _ in range(50)]
        trace = Trace.from_headers(headers, rate=1000.0, layout_width=104)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.header_sequence() == headers
        assert loaded.layout_width == 104
        assert len(loaded) == 50

    def test_from_events_sorts(self):
        trace = Trace.from_events([(2.0, 1, 64), (1.0, 2, 64)], layout_width=16)
        assert list(trace.times) == [1.0, 2.0]
        assert trace.headers == [2, 1]

    def test_duration(self):
        trace = Trace.from_headers([1, 2, 3, 4], rate=2.0, layout_width=16)
        assert trace.duration() == pytest.approx(1.5)

    def test_replay_invokes_send(self):
        trace = Trace.from_headers([1, 2, 3], rate=10.0, layout_width=L.width)
        sent = []
        count = trace.replay(L, lambda t, p: sent.append((t, p.header_bits)))
        assert count == 3
        assert [bits for _, bits in sent] == [1, 2, 3]

    def test_replay_layout_mismatch(self):
        from repro.flowspace import TWO_FIELD_LAYOUT
        trace = Trace.from_headers([1], rate=1.0, layout_width=104)
        with pytest.raises(ValueError):
            trace.replay(TWO_FIELD_LAYOUT, lambda t, p: None)

    def test_column_validation(self):
        import numpy as np
        with pytest.raises(ValueError):
            Trace(times=np.array([1.0]), headers=[1, 2], sizes=np.array([64]),
                  layout_width=16)
        with pytest.raises(ValueError):
            Trace(times=np.array([2.0, 1.0]), headers=[1, 2],
                  sizes=np.array([64, 64]), layout_width=16)
