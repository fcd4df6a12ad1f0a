"""Ablation: load-based repartitioning under skewed traffic (paper §4).

The initial assignment balances TCAM entries; a traffic hotspot then
concentrates redirects on one authority switch.  ``rebalance()`` re-packs
partitions on *measured* load.  This bench quantifies the imbalance
before/after and the control-message cost of the move.
"""

import random

from conftest import run_once

from repro.analysis.report import render_table
from repro.core.controller import DifaneNetwork
from repro.flowspace import FIVE_TUPLE_LAYOUT, Packet
from repro.net import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.zipf import ZipfSampler

LAYOUT = FIVE_TUPLE_LAYOUT


def _run_rebalance_study():
    topo = TopologyBuilder.star(6, hosts_per_leaf=2)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_switches=["s0", "s1", "s2"],
        partitions_per_authority=8,
        cache_capacity=0,
        redirect_rate=None,
    )
    # Zipf-hot destinations: a few hosts draw most of the traffic.
    rng = random.Random(71)
    hosts = sorted(host_ips)
    sampler = ZipfSampler(len(hosts), alpha=1.1, seed=72)
    for rank in sampler.sample_many(3000):
        dst = hosts[rank]
        src = rng.choice(hosts)
        if src == dst:
            continue
        packet = Packet.from_fields(
            LAYOUT, nw_src=rng.getrandbits(32), nw_dst=host_ips[dst],
            nw_proto=6, tp_src=rng.randint(1024, 65535), tp_dst=80,
        )
        dn.send(src, packet)
    dn.run()

    controller = dn.controller
    before = controller.load_imbalance()
    messages_before = controller.control_messages
    moved = controller.rebalance()
    cost = controller.control_messages - messages_before
    after = controller.load_imbalance()
    return {
        "imbalance_before": before,
        "imbalance_after": after,
        "partitions_moved": moved,
        "control_messages": cost,
    }


def test_ablation_rebalance(benchmark, archive):
    stats = run_once(benchmark, _run_rebalance_study)
    text = render_table(
        ["metric", "value"],
        [
            ["load imbalance before", f"{stats['imbalance_before']:.3f}"],
            ["load imbalance after", f"{stats['imbalance_after']:.3f}"],
            ["partitions moved", stats["partitions_moved"]],
            ["control messages", stats["control_messages"]],
        ],
        title="Load-based repartitioning under Zipf-skewed traffic",
    )
    archive("A5-rebalance", text)
    assert stats["imbalance_after"] <= stats["imbalance_before"]
