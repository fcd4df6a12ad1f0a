"""Ablation experiments beyond the paper's headline evaluation.

DESIGN.md commits to ablating the design choices the system makes; these
five quantify them:

* :func:`run_eviction_ablation` — LRU vs FIFO vs RANDOM cache eviction
  at the ingress switches (the paper assumes LRU-style behaviour);
* :func:`run_prefetch_ablation` — installing sibling win-region
  fragments per miss (an extension the paper leaves open);
* :func:`run_zipf_sensitivity` — how the wildcard-cache advantage moves
  with traffic skew;
* :func:`run_partition_granularity` — partitions per authority switch:
  finer partitions balance redirect load at the cost of split overhead;
* :func:`run_rebalance_ablation` — re-packing partitions on measured
  redirect load after a traffic hotspot skews it (paper §4), moved by
  the online migrator.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.analysis.series import Series
from repro.baselines.microflow_cache import (
    ReplayTrace,
    simulate_microflow_cache,
    simulate_wildcard_cache,
)
from repro.core.controller import DifaneNetwork
from repro.core.partition import greedy_pack, partition_policy
from repro.core.shards import PartitionMigrator
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
from repro.net.topology import TopologyBuilder
from repro.switch.cache import EvictionPolicy
from repro.workloads.classbench import generate_classbench
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import flow_headers_for_policy, host_pair_packets
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "run_eviction_ablation",
    "run_prefetch_ablation",
    "run_zipf_sensitivity",
    "run_partition_granularity",
    "run_rebalance_ablation",
]

LAYOUT = FIVE_TUPLE_LAYOUT


def _campus_world(seed: int):
    topo = TopologyBuilder.three_tier_campus(
        core_count=2, distribution_count=3, access_per_distribution=3,
        hosts_per_access=2,
    )
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, acl_rules=10, seed=seed)
    return topo, rules, host_ips


def _zipfish_traffic(topo, host_ips, flows: int, packets_per_flow: int, seed: int):
    """Repeating host-pair flows with skewed popularity (hot pairs recur)."""
    rng = random.Random(seed)
    base = host_pair_packets(
        topo, host_ips, LAYOUT, count=flows, rate=4000.0, seed=seed,
        flow_packets=packets_per_flow,
    )
    return base


def _eviction_point(
    policy: EvictionPolicy, cache_capacity: int, flows: int, seed: int
):
    """One sweep point: hit rate and evictions under one eviction policy."""
    topo, rules, host_ips = _campus_world(seed)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT, authority_count=3,
        cache_capacity=cache_capacity, redirect_rate=None, eviction=policy,
    )
    for timed in _zipfish_traffic(topo, host_ips, flows, 3, seed + 1):
        dn.send_at(timed.time, timed.source_host, timed.packet)
    dn.run()
    return dn.cache_hit_rate(), sum(s.cache.evicted for s in dn.switches())


def run_eviction_ablation(
    cache_capacity: int = 12,
    flows: int = 400,
    seed: int = 31,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Cache hit rate per eviction policy on a live campus deployment.

    The cache is deliberately undersized (``cache_capacity`` entries per
    switch) so eviction decisions matter.
    """
    from repro.parallel.runner import SweepRunner

    policies = (EvictionPolicy.LRU, EvictionPolicy.FIFO, EvictionPolicy.RANDOM)
    results = SweepRunner(jobs).map(
        _eviction_point,
        [
            dict(policy=policy, cache_capacity=cache_capacity,
                 flows=flows, seed=seed)
            for policy in policies
        ],
    )
    rows = []
    series = Series("cache hit rate", x_label="policy index", y_label="hit rate")
    for index, (policy, (hit_rate, evictions)) in enumerate(zip(policies, results)):
        rows.append([policy.value, f"{hit_rate:.4f}", evictions])
        series.append(index, hit_rate)
    return ExperimentResult(
        name="A1-eviction",
        title=f"Cache eviction ablation ({cache_capacity}-entry ingress caches)",
        series=[series],
        table_headers=["eviction policy", "cache hit rate", "evictions"],
        table_rows=rows,
    )


def _prefetch_point(level: int, flows: int, seed: int):
    """One sweep point: redirect/install volume at one prefetch level."""
    topo, rules, host_ips = _campus_world(seed)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT, authority_count=3, cache_capacity=512,
        redirect_rate=None, prefetch_fragments=level,
    )
    # Traffic clustered around the denied service ports: win-region
    # fragments are tiny there, so flows of one (ingress, destination)
    # pair land in *different* fragments — the case where prefetching
    # siblings can convert future redirects into cache hits.
    rng = random.Random(seed + 2)
    hosts = sorted(host_ips)
    # Destinations must actually have port denies, else their win
    # regions are single fragments and prefetch is vacuous.
    denied_ips = {
        rule.match.field("nw_dst").value
        for rule in rules
        if rule.actions.is_drop and not rule.match.ternary.is_wildcard()
    }
    destinations = [h for h in hosts if host_ips[h] in denied_ips][:3]
    if not destinations:
        destinations = hosts[:3]
    services = [22, 445, 3306, 23, 161]
    for index in range(flows):
        src = rng.choice(hosts)
        dst = rng.choice(destinations)
        port = max(1, rng.choice(services) + rng.randint(-8, 8))
        packet = Packet.from_fields(
            LAYOUT, flow_id=index,
            nw_src=host_ips[src], nw_dst=host_ips[dst], nw_proto=6,
            tp_src=rng.randint(1024, 65535),
            tp_dst=port,
        )
        dn.send_at(index * 2.5e-4, src, packet)
    dn.run()
    total_redirects = dn.total_redirects()
    total_installs = sum(s.cache_installs_sent for s in dn.switches())
    return total_redirects, total_installs, dn.cache_hit_rate()


def run_prefetch_ablation(
    prefetch_levels: Optional[Sequence[int]] = None,
    flows: int = 250,
    seed: int = 37,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Redirect count and install volume as prefetch grows.

    Prefetching sibling fragments converts future misses into hits at the
    cost of extra installs (and cache pressure).
    """
    from repro.parallel.runner import SweepRunner

    prefetch_levels = list(prefetch_levels) if prefetch_levels else [1, 2, 4, 8]
    redirects = Series("redirects", x_label="prefetch fragments", y_label="count")
    installs = Series("cache installs", x_label="prefetch fragments", y_label="count")
    hit_rates = Series("hit rate", x_label="prefetch fragments", y_label="rate")
    rows = []
    results = SweepRunner(jobs).map(
        _prefetch_point,
        [dict(level=level, flows=flows, seed=seed) for level in prefetch_levels],
    )
    for level, (total_redirects, total_installs, hit_rate) in zip(
        prefetch_levels, results
    ):
        redirects.append(level, total_redirects)
        installs.append(level, total_installs)
        hit_rates.append(level, hit_rate)
        rows.append([level, total_redirects, total_installs, f"{hit_rate:.4f}"])
    return ExperimentResult(
        name="A2-prefetch",
        title="Prefetching sibling cache fragments",
        series=[redirects, installs, hit_rates],
        table_headers=["prefetch", "redirects", "installs", "hit rate"],
        table_rows=rows,
    )


def _zipf_point(
    alpha: float, cache_size: int, n_flows: int, n_packets: int, seed: int
):
    """One sweep point: both cache simulators at one traffic skew.

    The policy and packet sequence come from the artifact cache keyed by
    their generating parameters — a memory hit per point in the serial
    path, one build per worker process in the parallel path — and both
    replays share one trace, resolved once.
    """
    from repro.parallel.cache import classbench_ruleset, zipf_packet_sequence

    policy_params = {"profile": "acl", "count": 1000, "seed": seed}
    policy = classbench_ruleset(layout=LAYOUT, **policy_params)
    trace = ReplayTrace(policy, LAYOUT, zipf_packet_sequence(
        policy_params, LAYOUT, n_flows, seed + 1, n_packets, alpha, seed + 2
    ))
    w = simulate_wildcard_cache(trace, cache_size)
    m = simulate_microflow_cache(trace, cache_size)
    return w.miss_rate, m.miss_rate


def run_zipf_sensitivity(
    alphas: Optional[Sequence[float]] = None,
    cache_size: int = 100,
    n_flows: int = 1500,
    n_packets: int = 15_000,
    seed: int = 41,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Wildcard vs microflow miss rate across traffic skews."""
    from repro.parallel.runner import SweepRunner

    alphas = list(alphas) if alphas else [0.6, 0.8, 1.0, 1.2]
    wildcard = Series("DIFANE wildcard cache", x_label="zipf alpha", y_label="miss rate")
    microflow = Series("microflow cache", x_label="zipf alpha", y_label="miss rate")
    rows = []
    results = SweepRunner(jobs).map(
        _zipf_point,
        [
            dict(alpha=alpha, cache_size=cache_size, n_flows=n_flows,
                 n_packets=n_packets, seed=seed)
            for alpha in alphas
        ],
    )
    for alpha, (w_miss, m_miss) in zip(alphas, results):
        wildcard.append(alpha, w_miss)
        microflow.append(alpha, m_miss)
        rows.append([alpha, f"{w_miss:.4f}", f"{m_miss:.4f}"])
    return ExperimentResult(
        name="A3-zipf",
        title=f"Traffic-skew sensitivity ({cache_size}-entry cache)",
        series=[wildcard, microflow],
        table_headers=["zipf alpha", "wildcard miss", "microflow miss"],
        table_rows=rows,
    )


def run_partition_granularity(
    per_authority: Optional[Sequence[int]] = None,
    authority_count: int = 4,
    seed: int = 43,
) -> ExperimentResult:
    """Finer partitions balance authority load at a split-overhead cost.

    Measured analytically: partition a ClassBench policy with
    ``authority_count × g`` leaves, assign to switches, then estimate each
    switch's share of redirect load by sampling random flow headers.
    """
    per_authority = list(per_authority) if per_authority else [1, 2, 4, 8]
    from repro.core.partition import assign_partitions

    policy = generate_classbench("acl", count=1000, seed=seed, layout=LAYOUT)
    flows = flow_headers_for_policy(policy, 3000, seed=seed + 1)
    imbalance = Series(
        "load imbalance (max/mean)", x_label="partitions per authority",
        y_label="ratio",
    )
    overhead = Series(
        "duplication factor", x_label="partitions per authority", y_label="factor"
    )
    rows = []
    names = [f"auth{i}" for i in range(authority_count)]
    for granularity in per_authority:
        result = partition_policy(
            policy, LAYOUT, num_partitions=authority_count * granularity
        )
        assignment = assign_partitions(result.partitions, names)
        load = {name: 0 for name in names}
        for bits in flows:
            partition = result.find_partition(bits)
            load[assignment[partition.partition_id][0]] += 1
        mean_load = sum(load.values()) / len(load)
        ratio = max(load.values()) / mean_load if mean_load else 1.0
        imbalance.append(granularity, ratio)
        overhead.append(granularity, result.duplication_factor)
        rows.append([
            granularity, f"{ratio:.3f}", f"{result.duplication_factor:.3f}",
            result.max_partition_entries,
        ])
    return ExperimentResult(
        name="A4-granularity",
        title="Partitions per authority switch: balance vs split overhead",
        series=[imbalance, overhead],
        table_headers=["partitions/authority", "load imbalance",
                       "dup factor", "max entries/partition"],
        table_rows=rows,
    )


def run_rebalance_ablation(packets: int = 3000, seed: int = 71) -> ExperimentResult:
    """Load imbalance before and after a repack under a hotspot.

    The initial assignment balances TCAM entries over three authority
    switches; Zipf-hot destinations then concentrate redirects on one of
    them.  The repack packs partitions greedily on *measured* load
    (:func:`greedy_pack`) and hands each partition whose primary changes
    to the :class:`PartitionMigrator`.  Reports the imbalance on both
    sides, the partitions moved, the control messages the moves cost and
    the final owners per partition.
    """
    topo = TopologyBuilder.star(6, hosts_per_leaf=2)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_switches=["s0", "s1", "s2"],
        partitions_per_authority=8,
        cache_capacity=0,
        redirect_rate=None,
    )
    rng = random.Random(seed)
    hosts = sorted(host_ips)
    sampler = ZipfSampler(len(hosts), alpha=1.1, seed=seed + 1)
    for rank in sampler.sample_many(packets):
        dst = hosts[rank]
        src = rng.choice(hosts)
        if src == dst:
            continue
        dn.send(src, Packet.from_fields(
            LAYOUT, nw_src=rng.getrandbits(32), nw_dst=host_ips[dst],
            nw_proto=6, tp_src=rng.randint(1024, 65535), tp_dst=80,
        ))
    dn.run()

    controller = dn.controller
    before = controller.load_imbalance()
    messages_before = controller.control_messages
    migrator = PartitionMigrator(controller)
    assignment, _ = greedy_pack(
        controller.partition_loads(), controller.authority_switches
    )
    moved = sum(
        migrator.migrate(pid, target, reason="rebalance") is not None
        for pid, (target,) in assignment.items()
    )
    dn.run()  # the sources' fragments retire after the grace period
    cost = controller.control_messages - messages_before
    after = controller.load_imbalance()
    return ExperimentResult(
        name="A5-rebalance",
        title="Load-based repartitioning under Zipf-skewed traffic",
        table_headers=["metric", "value"],
        table_rows=[
            ["load imbalance before", f"{before:.3f}"],
            ["load imbalance after", f"{after:.3f}"],
            ["partitions moved", moved],
            ["control messages", cost],
        ],
        notes={
            "imbalance_before": before,
            "imbalance_after": after,
            "partitions_moved": moved,
            "control_messages": cost,
            "owners": [
                controller.owners_of(partition.partition_id)
                for partition in controller.partitions()
            ],
        },
    )
