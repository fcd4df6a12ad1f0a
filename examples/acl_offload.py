#!/usr/bin/env python
"""Scenario: offloading a large ACL that does not fit in one TCAM.

The paper's motivating workload: an operator has a classifier far larger
than any one switch's TCAM.  Proactively installing it everywhere needs
``len(policy)`` entries per switch; DIFANE partitions it over k authority
switches so each holds ≈ 1/k of the policy, ingress switches hold only a
tiny partition table plus a hot-traffic cache, and *every* packet still
gets classified entirely in the data plane.

This example partitions a 2,000-entry ClassBench-style ACL over 1..16
authority switches, prints the per-switch TCAM budget each configuration
needs, then replays Zipf traffic through a deployed 4-authority network
to show the resulting cache behaviour.

Run:  python examples/acl_offload.py
"""

from repro import FIVE_TUPLE_LAYOUT, partition_policy
from repro.analysis.report import render_table
from repro.baselines import ReplayTrace, simulate_microflow_cache, simulate_wildcard_cache
from repro.workloads.classbench import generate_classbench
from repro.workloads.traffic import flow_headers_for_policy, packet_sequence

LAYOUT = FIVE_TUPLE_LAYOUT


def partition_budget_table(policy):
    rows = []
    for k in (1, 2, 4, 8, 16):
        result = partition_policy(policy, LAYOUT, num_partitions=k)
        rows.append([
            k,
            result.max_partition_entries,
            result.total_entries,
            f"{result.duplication_factor:.3f}",
            k,  # one partition rule per partition at every ingress
        ])
    print(render_table(
        ["authority switches", "TCAM/switch (max)", "total entries",
         "split factor", "ingress partition entries"],
        rows,
        title="Partitioning a 2,000-entry ACL across authority switches",
    ))


def cache_comparison(policy):
    flows = flow_headers_for_policy(policy, 1000, seed=7)
    trace = ReplayTrace(
        policy, LAYOUT, packet_sequence(flows, 10_000, alpha=1.0, seed=8)
    )
    rows = []
    for size in (20, 100, 400):
        wildcard = simulate_wildcard_cache(trace, size)
        microflow = simulate_microflow_cache(trace, size)
        rows.append([
            size,
            f"{wildcard.miss_rate:.2%}",
            f"{microflow.miss_rate:.2%}",
        ])
    print()
    print(render_table(
        ["ingress cache entries", "DIFANE wildcard miss", "microflow miss"],
        rows,
        title="Ingress cache behaviour under Zipf traffic (10K packets)",
    ))


def main():
    policy = generate_classbench("acl", count=2000, seed=42, layout=LAYOUT)
    print(f"generated {len(policy)} ACL entries "
          f"(proactive baseline: {len(policy)} TCAM entries on EVERY switch)\n")
    partition_budget_table(policy)
    cache_comparison(policy)
    print("\nTakeaway: 8 authority switches bring the per-switch budget under")
    print("~1/4 of the policy while ingress switches hold only the partition")
    print("table plus a few hundred hot cache entries.")


if __name__ == "__main__":
    main()
