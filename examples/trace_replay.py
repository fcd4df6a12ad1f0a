#!/usr/bin/env python
"""Scenario: record a traffic trace, persist it, and replay it twice.

The paper evaluates cache behaviour by replaying a multi-day traffic
trace.  This example shows the equivalent workflow with the library's
:class:`~repro.workloads.trace.Trace`:

1. synthesize a Zipf-popular flow mix over a ClassBench ACL;
2. save it as a compressed ``.npz`` (reusable across runs);
3. replay the same trace through the wildcard-fragment and microflow
   cache simulators at several cache sizes;
4. replay its head through a live DIFANE network and compare the
   event-driven cache hit rate with the trace-driven prediction.

Run:  python examples/trace_replay.py
"""

import tempfile
from pathlib import Path

from repro import DifaneNetwork, FIVE_TUPLE_LAYOUT, Trace, TopologyBuilder
from repro.analysis.report import render_table
from repro.baselines import ReplayTrace, simulate_microflow_cache, simulate_wildcard_cache
from repro.flowspace import Packet
from repro.workloads.classbench import generate_classbench
from repro.workloads.traffic import flow_headers_for_policy, packet_sequence

LAYOUT = FIVE_TUPLE_LAYOUT


def main():
    policy = generate_classbench("acl", count=500, seed=21, layout=LAYOUT)
    flows = flow_headers_for_policy(policy, 800, seed=22)
    headers = packet_sequence(flows, 8000, alpha=1.1, seed=23)
    trace = Trace.from_headers(headers, rate=10_000.0, layout_width=LAYOUT.width)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campus_trace.npz"
        trace.save(path)
        loaded = Trace.load(path)
        print(f"trace: {len(loaded)} packets over {loaded.duration():.2f}s, "
              f"saved {path.stat().st_size / 1024:.0f} KiB\n")

        replay = ReplayTrace(policy, LAYOUT, loaded.header_sequence())
        rows = []
        for size in (10, 50, 200):
            wildcard = simulate_wildcard_cache(replay, size)
            microflow = simulate_microflow_cache(replay, size)
            rows.append([size, f"{wildcard.miss_rate:.2%}", f"{microflow.miss_rate:.2%}"])
        print(render_table(
            ["cache size", "wildcard miss", "microflow miss"],
            rows,
            title="Trace-driven cache replay",
        ))

        # Replay the head of the trace through a real DIFANE network whose
        # policy is the same ACL (single ingress; authority on the hub).
        topo = TopologyBuilder.star(2, hosts_per_leaf=1)
        dn = DifaneNetwork.build(
            topo, policy, LAYOUT,
            authority_switches=["hub"], cache_capacity=200,
        )

        def send(time, packet):
            dn.network.scheduler.schedule_at(
                time, dn.network.inject_from_host, "h0", packet
            )

        replayed = loaded.replay(LAYOUT, send, limit=2000)
        dn.run()
        ingress = dn.switch("s0")
        total = ingress.cache_hits + ingress.redirects_out
        live_miss = ingress.redirects_out / total if total else 0.0
        print(f"\nlive replay of first {replayed} packets: "
              f"event-driven miss rate {live_miss:.2%} at 200 cache entries")
        print("(trace-driven and event-driven rates agree up to warm-up and "
              "eviction-timing effects)")


if __name__ == "__main__":
    main()
