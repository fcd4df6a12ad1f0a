"""Batch-native traffic generation — bursts born columnar.

The throughput experiments inject *bursts*: many same-instant packets at
one ingress switch.  The scalar generators build one :class:`Packet` (and
one :class:`TimedPacket`) per packet; this module builds the burst
directly as a :class:`~repro.flowspace.batch.PacketBatch`, one numpy
column per header field, so the columnar fast path never materializes
per-packet objects on the generation side either.

The scalar representation stays reachable as a *compatibility view*:
:meth:`TimedBatch.timed_packets` materializes the exact per-packet
schedule (same packet ids, same headers, same instants), which is what
the equivalence property test feeds the oracle path.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

import numpy as np

from repro.flowspace.batch import PacketBatch
from repro.flowspace.fields import HeaderLayout
from repro.workloads.traffic import TimedPacket
from repro.workloads.zipf import ZipfSampler

__all__ = ["TimedBatch", "host_pair_batches", "stream_host_pair_batches"]


class TimedBatch:
    """One scheduled same-instant burst at an ingress switch."""

    __slots__ = ("time", "switch", "batch")

    def __init__(self, time: float, switch: str, batch: PacketBatch):
        self.time = time
        self.switch = switch
        self.batch = batch

    def timed_packets(self) -> List[TimedPacket]:
        """The scalar compatibility view of this burst.

        One :class:`TimedPacket` per packet, all at this burst's instant;
        ``source_host`` is the ingress switch because batches are injected
        switch-side (:meth:`SimNetwork.inject_batch_at_switch`), skipping
        the host hop.
        """
        return [
            TimedPacket(self.time, self.switch, packet)
            for packet in self.batch.packets()
        ]

    def __len__(self) -> int:
        return len(self.batch)

    def __repr__(self) -> str:
        return f"<TimedBatch t={self.time} switch={self.switch} n={len(self.batch)}>"


def stream_host_pair_batches(
    topology,
    host_ips: Dict[str, int],
    layout: HeaderLayout,
    bursts: int,
    burst_size: int,
    interval_s: float = 1e-3,
    hot_flows: int = 64,
    alpha: float = 1.0,
    seed: int = 0,
    size_bytes: int = 64,
    start_time: float = 0.0,
) -> Iterator[TimedBatch]:
    """Zipf-popular host-pair bursts, built columnar and yielded lazily.

    Draws ``hot_flows`` distinct host-pair microflows (random source /
    destination hosts, random ephemeral source port, TCP to port 80 — the
    same shape as :func:`host_pair_packets`), then emits ``bursts`` bursts
    of ``burst_size`` packets, ``interval_s`` apart, with per-packet flows
    sampled Zipf(``alpha``) from the hot set.  Each burst is grouped by
    the source host's attachment switch into one :class:`TimedBatch` per
    (instant, ingress switch) — header columns are assembled with numpy
    fancy indexing over the flow definition arrays, no per-packet Python
    objects.

    Deterministic for a given ``seed`` regardless of columnar mode or
    consumption pace: the flow pool, the Zipf draws and the packet-id
    reservation order are all fixed by the schedule, not by how (or when)
    the batches are later executed — ``list(...)`` of this generator is
    exactly :func:`host_pair_batches`.
    """
    if bursts < 0:
        raise ValueError(f"bursts must be non-negative, got {bursts}")
    if burst_size < 1:
        raise ValueError(f"burst_size must be positive, got {burst_size}")
    if hot_flows < 1:
        raise ValueError(f"hot_flows must be positive, got {hot_flows}")
    hosts = list(host_ips)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    rng = random.Random(seed)
    flow_sources: List[str] = []
    nw_src = np.empty(hot_flows, dtype=np.int64)
    nw_dst = np.empty(hot_flows, dtype=np.int64)
    tp_src = np.empty(hot_flows, dtype=np.int64)
    for flow_id in range(hot_flows):
        src, dst = rng.sample(hosts, 2)
        flow_sources.append(src)
        nw_src[flow_id] = host_ips[src]
        nw_dst[flow_id] = host_ips[dst]
        tp_src[flow_id] = rng.randint(1024, 65535)
    attachment = {host: topology.host_attachment(host) for host in hosts}
    flow_switches = [attachment[source] for source in flow_sources]
    sampler = ZipfSampler(hot_flows, alpha=alpha, seed=seed + 1)
    for burst in range(bursts):
        time = start_time + burst * interval_s
        flows = np.array(sampler.sample_many(burst_size), dtype=np.int64)
        by_switch: Dict[str, List[int]] = {}
        for position, flow in enumerate(flows):
            by_switch.setdefault(flow_switches[flow], []).append(position)
        for switch, positions in by_switch.items():
            selected = flows[positions]
            batch = PacketBatch.from_fields(
                layout,
                len(positions),
                flow_ids=[int(flow) for flow in selected],
                size_bytes=size_bytes,
                nw_src=nw_src[selected],
                nw_dst=nw_dst[selected],
                nw_proto=6,
                tp_src=tp_src[selected],
                tp_dst=80,
            )
            yield TimedBatch(time, switch, batch)


def host_pair_batches(
    topology,
    host_ips: Dict[str, int],
    layout: HeaderLayout,
    bursts: int,
    burst_size: int,
    interval_s: float = 1e-3,
    hot_flows: int = 64,
    alpha: float = 1.0,
    seed: int = 0,
    size_bytes: int = 64,
    start_time: float = 0.0,
) -> List[TimedBatch]:
    """The materialized view of :func:`stream_host_pair_batches`."""
    return list(
        stream_host_pair_batches(
            topology,
            host_ips,
            layout,
            bursts,
            burst_size,
            interval_s=interval_s,
            hot_flows=hot_flows,
            alpha=alpha,
            seed=seed,
            size_bytes=size_bytes,
            start_time=start_time,
        )
    )
