"""Performance microbenchmarks of the core data structures & algorithms.

Unlike the figure benches (single-shot experiments), these are real
microbenchmarks: pytest-benchmark runs them repeatedly and reports
statistically meaningful timings.  They guard the hot paths:

* ternary set operations (the inner loop of everything),
* rule-table lookup on a ClassBench classifier,
* per-miss cache-rule generation (the authority switch's critical path),
* the full partitioner on a 10K-rule policy.
"""

import json
import random
import statistics
import time

import pytest
from conftest import RESULTS_DIR, run_once

from repro.core import generate_cache_rule, partition_policy
from repro.flowspace import RuleTable, Ternary
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.workloads.classbench import generate_classbench

LAYOUT = FIVE_TUPLE_LAYOUT


@pytest.fixture(scope="module")
def classifier():
    return generate_classbench("acl", count=2000, seed=17, layout=LAYOUT)


@pytest.fixture(scope="module")
def lookup_table(classifier):
    return RuleTable(LAYOUT, classifier)


def _random_ternary(rng, width):
    mask = rng.getrandbits(width)
    return Ternary(rng.getrandbits(width) & mask, mask, width)


def test_perf_ternary_intersection(benchmark):
    rng = random.Random(0)
    width = LAYOUT.width
    pairs = [
        (_random_ternary(rng, width), _random_ternary(rng, width))
        for _ in range(256)
    ]

    def run():
        total = 0
        for a, b in pairs:
            if a.intersects(b):
                total += 1
        return total

    benchmark(run)


def test_perf_ternary_subtract(benchmark):
    rng = random.Random(1)
    width = LAYOUT.width
    pairs = []
    while len(pairs) < 64:
        a = _random_ternary(rng, width)
        b = _random_ternary(rng, width)
        if a.intersects(b):
            pairs.append((a, b))

    benchmark(lambda: [a.subtract(b) for a, b in pairs])


def test_perf_table_lookup(benchmark, classifier, lookup_table):
    rng = random.Random(2)
    probes = [rule.match.ternary.sample(rng) for rule in classifier[:512]]

    def run():
        hits = 0
        for bits in probes:
            if lookup_table.lookup_bits(bits) is not None:
                hits += 1
        return hits

    result = benchmark(run)
    assert result == len(probes)  # the classifier has a catch-all


def test_perf_cache_rule_generation(benchmark, classifier, lookup_table):
    """Per-miss cost at an authority switch (win-fragment walk)."""
    rng = random.Random(3)
    ordered = list(lookup_table.rules)
    cases = []
    while len(cases) < 64:
        bits = rng.getrandbits(LAYOUT.width)
        winner = lookup_table.lookup_bits(bits)
        if winner is not None:
            cases.append((winner, bits))

    def run():
        produced = 0
        for winner, bits in cases:
            if generate_cache_rule(ordered, winner, bits) is not None:
                produced += 1
        return produced

    result = benchmark(run)
    assert result == len(cases)


def test_perf_obs_overhead(benchmark, archive):
    """Price the observability layer on a full simulation hot path.

    Runs one identical DIFANE workload four ways — registry disabled,
    registry enabled (the default every experiment now runs with),
    registry + telemetry, and registry + packet tracing — and archives
    the relative cost.  Host noise drifts over seconds, so the modes are
    timed interleaved: each round runs all four, starting one mode later
    than the round before, and the modes are compared by their medians
    over the rounds.  The design target is <5% for metrics-on with
    tracing disabled (per-packet counters are collected: the registry
    reads its owners' attributes only when it is read, so the hot path
    adds no call); the hard gate is set generously at 15% to stay robust
    to shared-machine timing noise while the archived number records
    what was actually measured.
    """
    from repro.core.controller import DifaneNetwork
    from repro.flowspace.packet import Packet
    from repro.net.topology import TopologyBuilder
    from repro.obs import context as obs_context
    from repro.obs import fresh_run_context
    from repro.workloads.policies import routing_policy_for_topology

    def run_workload() -> int:
        topo = TopologyBuilder.star(4, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
        dn = DifaneNetwork.build(
            topo, rules, LAYOUT, authority_switches=["hub"], cache_capacity=256,
        )
        count = 4_000
        for index in range(count):
            flow = index % 64  # mostly cache hits: the steady-state hot path
            packet = Packet.from_fields(
                LAYOUT,
                flow_id=flow,
                nw_src=0x0A000000 | flow,
                nw_dst=host_ips["h2"],
                nw_proto=6,
                tp_src=1024 + flow,
                tp_dst=80,
            )
            dn.send_at(index * 1e-5, "h0", packet)
        dn.run()
        return len(dn.network.delivered())

    modes = (
        dict(metrics_enabled=False),
        dict(metrics_enabled=True),
        dict(metrics_enabled=True, telemetry=True),
        dict(metrics_enabled=True, trace=True),
    )

    def timed(context_kwargs) -> float:
        fresh_run_context(**context_kwargs)
        started = time.perf_counter()
        delivered = run_workload()
        elapsed = time.perf_counter() - started
        assert delivered > 0
        return elapsed

    def compare(rounds: int = 9):
        samples = [[] for _ in modes]
        previous = obs_context.current()
        try:
            for round_index in range(rounds):
                for offset in range(len(modes)):
                    mode = (round_index + offset) % len(modes)
                    samples[mode].append(timed(modes[mode]))
        finally:
            obs_context.install(previous)
        baseline, metrics_on, telemetry_on, traced = (
            statistics.median(times) for times in samples
        )
        return {
            "workload": "star-4 DIFANE, 4000 packets, 64 hot flows; "
                        f"median of {rounds} interleaved rounds",
            "baseline_s": round(baseline, 4),
            "metrics_s": round(metrics_on, 4),
            "telemetry_s": round(telemetry_on, 4),
            "trace_s": round(traced, 4),
            "metrics_overhead": round(metrics_on / baseline - 1.0, 4),
            # Telemetry sampling is priced against metrics-on (its
            # precondition): the marginal cost of window bookkeeping in
            # the scheduler loop at the default cadence.
            "telemetry_overhead": round(telemetry_on / metrics_on - 1.0, 4),
            "trace_overhead": round(traced / baseline - 1.0, 4),
        }

    report = run_once(benchmark, compare)

    lines = [
        "Observability overhead on the simulation hot path",
        "",
        f"workload: {report['workload']}",
        f"{'configuration':<24} {'seconds':>8} {'overhead':>9}",
        f"{'obs disabled':<24} {report['baseline_s']:>8.3f} {'—':>9}",
        f"{'metrics on':<24} {report['metrics_s']:>8.3f} "
        f"{report['metrics_overhead']:>8.1%}",
        f"{'metrics + telemetry':<24} {report['telemetry_s']:>8.3f} "
        f"{report['telemetry_overhead']:>8.1%}",
        f"{'metrics + trace':<24} {report['trace_s']:>8.3f} "
        f"{report['trace_overhead']:>8.1%}",
        "",
        "telemetry overhead is relative to metrics-on; others to disabled",
    ]
    archive("obs-overhead", "\n".join(lines))
    (RESULTS_DIR / "obs-overhead.json").write_text(json.dumps(report, indent=2) + "\n")

    assert report["metrics_overhead"] < 0.15, (
        f"metrics-on overhead {report['metrics_overhead']:.1%} exceeds the gate"
    )
    assert report["telemetry_overhead"] < 0.05, (
        f"telemetry sampling overhead {report['telemetry_overhead']:.1%} "
        "exceeds the 5% gate at the default cadence"
    )


def test_perf_cache_ops(benchmark, archive):
    """Indexed cache bookkeeping vs the linear-scan oracle at 4K entries.

    The :class:`CacheManager` index refactor replaces three per-install
    scans (occupancy, duplicate detection, victim selection) with an
    occupancy counter, a ``(match, actions)`` map, and a lazy-stale heap.
    Both managers are pre-filled to a 4096-entry capacity (untimed), then
    driven through an identical mixed workload — evicting installs and
    duplicate refreshes — and must finish with byte-identical survivors
    and counters.  The gate: the indexed manager clears 10x the scan
    manager's rate (measured ~70x on this workload).
    """
    from repro.switch import Tcam
    from repro.switch.cache import CacheManager, EvictionPolicy, ScanCacheManager

    capacity = 4_096
    churn = 512

    def make_rule(i):
        from repro.flowspace import Forward, Match, Rule
        from repro.flowspace.rule import RuleKind

        return Rule(
            Match.build(LAYOUT, nw_src=Ternary.exact(i, 32)), 5, Forward("x"),
            kind=RuleKind.CACHE,
        )

    def drive(cls):
        m = cls(Tcam(LAYOUT), capacity=capacity, policy=EvictionPolicy.LRU)
        for i in range(capacity):
            m.install(make_rule(i), now=float(i))
        ops = []
        for i in range(churn):
            ops.append(make_rule(capacity + i))          # evicting install
            ops.append(make_rule(capacity // 2 + i))     # duplicate refresh
        started = time.perf_counter()
        clock = float(capacity)
        for rule in ops:
            clock += 1.0
            m.install(rule, now=clock)
        elapsed = time.perf_counter() - started
        return m, len(ops), elapsed

    def compare():
        indexed, n_ops, indexed_s = drive(CacheManager)
        scan, _, scan_s = drive(ScanCacheManager)
        assert [
            (str(r.match), r.installed_at, r.last_hit_at)
            for r in indexed.cache_rules()
        ] == [
            (str(r.match), r.installed_at, r.last_hit_at)
            for r in scan.cache_rules()
        ]
        assert indexed.occupancy() == scan.occupancy() == capacity
        assert (indexed.inserted, indexed.evicted) == (scan.inserted, scan.evicted)
        return {
            "capacity": capacity,
            "timed_ops": n_ops,
            "indexed_s": round(indexed_s, 4),
            "scan_s": round(scan_s, 4),
            "indexed_ops_per_s": round(n_ops / indexed_s, 1),
            "scan_ops_per_s": round(n_ops / scan_s, 1),
            "speedup": round(scan_s / indexed_s, 2),
        }

    report = run_once(benchmark, compare)

    lines = [
        "Cache-manager install bookkeeping: indexed vs linear-scan oracle",
        "",
        f"capacity {report['capacity']}, {report['timed_ops']} mixed ops "
        "(evicting installs + duplicate refreshes)",
        f"{'manager':<12} {'seconds':>9} {'ops/s':>12}",
        f"{'indexed':<12} {report['indexed_s']:>9.4f} "
        f"{report['indexed_ops_per_s']:>12,.0f}",
        f"{'scan':<12} {report['scan_s']:>9.4f} "
        f"{report['scan_ops_per_s']:>12,.0f}",
        "",
        f"speedup: {report['speedup']}x",
    ]
    archive("perf-cache-ops", "\n".join(lines))
    (RESULTS_DIR / "perf-cache-ops.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    assert report["speedup"] >= 10.0, (
        f"indexed cache ops only {report['speedup']}x over the scan oracle"
    )


def test_perf_partitioner_10k(benchmark):
    """Partition a 10K-rule classifier into 64 leaves (controller path)."""
    policy = generate_classbench("acl", count=10_000, seed=19, layout=LAYOUT)

    result = benchmark.pedantic(
        lambda: partition_policy(policy, LAYOUT, num_partitions=64),
        rounds=1,
        iterations=1,
    )
    assert len(result.partitions) == 64
    assert result.duplication_factor < 8.0


def test_perf_slots_structs(benchmark):
    """Construction cost of the per-packet hot structs after __slots__.

    ``DeliveryRecord`` and ``TimedPacket`` are built once per packet on
    the scalar path; __slots__ drops the per-instance ``__dict__``.  The
    benchmark times the real classes and prints the delta against
    dict-based doppelgangers built in place.
    """
    from repro.net.simnet import DeliveryRecord
    from repro.flowspace.packet import Packet
    from repro.workloads.traffic import TimedPacket

    class DictRecord:  # the pre-refactor shape: attributes in a __dict__
        def __init__(self, packet_id, flow_id, created_at, finished_at,
                     delivered, hops, via_authority, via_controller,
                     ingress_switch, endpoint, drop_reason=None):
            self.packet_id = packet_id
            self.flow_id = flow_id
            self.created_at = created_at
            self.finished_at = finished_at
            self.delivered = delivered
            self.hops = hops
            self.via_authority = via_authority
            self.via_controller = via_controller
            self.ingress_switch = ingress_switch
            self.endpoint = endpoint
            self.drop_reason = drop_reason

    count = 2_000

    def build(cls):
        return [
            cls(i, i % 64, 0.0, 1e-3, True, 3, False, False, "e1", "h2")
            for i in range(count)
        ]

    # The hot structs must stay dict-free (the point of __slots__).
    sample = build(DeliveryRecord)[0]
    assert not hasattr(sample, "__dict__")
    packet = Packet.from_fields(LAYOUT, flow_id=0, nw_proto=6)
    assert not hasattr(packet, "__dict__")
    assert not hasattr(TimedPacket(0.0, "h1", packet), "__dict__")

    records = benchmark(lambda: build(DeliveryRecord))
    assert len(records) == count

    def best_of(cls, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            build(cls)
            best = min(best, time.perf_counter() - started)
        return best

    slots_s = best_of(DeliveryRecord)
    dict_s = best_of(DictRecord)
    print(
        f"\nDeliveryRecord x{count}: __slots__ {slots_s * 1e3:.2f} ms, "
        f"__dict__ {dict_s * 1e3:.2f} ms "
        f"({dict_s / slots_s:.2f}x slower with __dict__)"
    )
