"""Streaming million-host workload generation.

Every earlier generator materializes its full schedule as a Python list,
which caps soaks near 10^4 hosts: a million-host run would build millions
of per-packet objects before the first event fires.  This module keeps
the *schedule* virtual instead.  A :class:`StreamSpec` fixes the whole
workload — host population, topology shape, skew, diurnal cycle, flash
crowds, mobility churn — and :func:`epoch_bursts` derives any epoch's
bursts from ``(spec.seed, epoch)`` alone (via :func:`derive_seed`, the
same device the sweep runner uses).  Consequences:

* **bounded memory** — an experiment holds one epoch's bursts at a time
  (:func:`feed_epochs` generates each epoch's ``Packet`` bursts from an
  event at that epoch's instant), never the whole trace;
* **random access** — epoch ``e`` can be generated without generating
  epochs ``0..e-1``, so shards, resumes and spot-checks are all exact;
* **mode equivalence** — the materialized view is literally
  ``list(stream_bursts(spec))``, so streaming-vs-materialized
  byte-identity is structural, and the equivalence test only has to pin
  that the *scheduling* of the two views matches.

Hosts are virtual: the topology holds only edge switches (plus one sink
host each, so routing rules have real endpoints) and authority switches.
Host ``i`` lives at address ``BASE | (i % E) << host_bits | i // E`` —
round-robin over edge switches, so the Zipf head spreads across the
fabric while each switch's address block stays one aligned prefix that
:func:`streaming_policy` can cover with wildcard rules.

The expensive precomputed parts go through the artifact cache: the Zipf
CDF (via :func:`~repro.workloads.zipf.zipf_cdf`) and the wildcard policy
(memory tier only — downstream partitioning relies on ``Rule`` identity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.flowspace.action import Drop, Forward
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT, HeaderLayout, parse_ip
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Match, Rule
from repro.flowspace.ternary import Ternary
from repro.net.links import LinkSpec
from repro.net.topology import Topology
from repro.parallel.seeds import derive_seed
from repro.workloads.zipf import zipf_cdf

__all__ = [
    "StreamSpec",
    "streaming_topology",
    "streaming_policy",
    "host_addresses",
    "epoch_bursts",
    "stream_bursts",
    "feed_epochs",
]

#: A same-instant burst: ``(time, ingress switch, packets)``.
Burst = Tuple[float, str, List[Packet]]

#: All virtual hosts live under this /8.
BASE_ADDRESS = parse_ip("10.0.0.0")

# splitmix64 finalizer constants (public domain; Steele et al.).  Python
# ints premixed modulo 2**64 so the numpy uint64 arithmetic below wraps
# without ever widening.
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_MIX_EPOCH_MULT = 0x9E3779B97F4A7C15
_MIX_EPOCH_ADD = 0xD1B54A32D192ED03
_WORD = 1 << 64


def _mix(values: np.ndarray, salt: int) -> np.ndarray:
    """splitmix64-finalize ``values`` under ``salt`` (vectorized, exact).

    A stateless pseudorandom mapping — the mobility model needs "which
    switch is host h visiting in epoch e" to be a pure function of
    ``(h, e)`` so any epoch regenerates identically in isolation.
    """
    x = values.astype(np.uint64) + np.uint64(
        (salt * _MIX_EPOCH_MULT + _MIX_EPOCH_ADD) % _WORD
    )
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_MULT_1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_MULT_2)
    x ^= x >> np.uint64(31)
    return x


@dataclass
class StreamSpec:
    """The complete, seed-closed description of a streaming workload.

    Every generated byte is a function of this spec: two processes with
    equal specs stream equal bursts, shard-by-epoch included.
    """

    hosts: int = 1_000_000
    edge_switches: int = 8
    authority_switches: int = 2
    #: Wildcard routing rules per edge switch (power of two): each covers
    #: an equal slice of the switch's host block, so the policy has
    #: ``edge_switches * rules_per_switch`` cacheable rules and the Zipf
    #: head drives realistic cache churn instead of one catch-all hit.
    rules_per_switch: int = 64
    alpha: float = 1.0
    epochs: int = 600
    #: Base packets per epoch (the diurnal factor scales around it).
    burst_size: int = 512
    epoch_interval_s: float = 1e-3
    seed: int = 0
    #: Diurnal load: per-epoch packet count = burst_size *
    #: ``(1 + amplitude * sin(2π epoch / period))``, floored at 1.
    diurnal_amplitude: float = 0.5
    diurnal_period_epochs: int = 100
    #: Flash crowds: every ``flash_every_epochs`` a fresh hotset of
    #: ``flash_hotset_size`` destinations absorbs ``flash_share`` of the
    #: traffic for ``flash_length_epochs``.  0 disables.
    flash_every_epochs: int = 50
    flash_length_epochs: int = 5
    flash_hotset_size: int = 64
    flash_share: float = 0.5
    #: Fraction of packets whose source has "moved": their ingress switch
    #: is re-drawn pseudorandomly per (host, epoch) instead of the home
    #: attachment — churning ingress cache locality.
    mobility_rate: float = 0.02
    size_bytes: int = 64
    start_time: float = 0.0

    def __post_init__(self):
        if self.hosts < 2:
            raise ValueError(f"need at least two hosts, got {self.hosts}")
        if self.edge_switches < 1:
            raise ValueError("need at least one edge switch")
        if self.rules_per_switch < 1 or self.rules_per_switch & (self.rules_per_switch - 1):
            raise ValueError(
                f"rules_per_switch must be a power of two, got {self.rules_per_switch}"
            )
        if self.rules_per_switch > (1 << self.host_bits):
            raise ValueError("rules_per_switch exceeds the per-switch address block")
        if self.edge_switches << self.host_bits > (1 << 24):
            raise ValueError("host population does not fit the 10.0.0.0/8 block")
        if not 0.0 <= self.flash_share <= 1.0:
            raise ValueError(f"flash_share must be in [0, 1], got {self.flash_share}")
        if not 0.0 <= self.mobility_rate <= 1.0:
            raise ValueError(f"mobility_rate must be in [0, 1], got {self.mobility_rate}")

    # -- address layout ----------------------------------------------------
    @property
    def host_bits(self) -> int:
        """Address bits reserved for hosts within one edge switch's block."""
        per_switch = -(-self.hosts // self.edge_switches)  # ceil
        return max(1, (per_switch - 1).bit_length())

    def edge_name(self, index: int) -> str:
        return f"e{index}"

    def sink_name(self, index: int) -> str:
        return f"sink{index}"

    def authority_name(self, index: int) -> str:
        return f"a{index}"

    def authority_names(self) -> List[str]:
        return [self.authority_name(i) for i in range(self.authority_switches)]

    # -- per-epoch derived state ------------------------------------------
    def epoch_packet_count(self, epoch: int) -> int:
        """Diurnal packet budget of ``epoch`` (deterministic, closed form)."""
        phase = 2.0 * math.pi * epoch / self.diurnal_period_epochs
        factor = 1.0 + self.diurnal_amplitude * math.sin(phase)
        return max(1, int(round(self.burst_size * factor)))

    def flash_hotset(self, epoch: int) -> Optional[np.ndarray]:
        """The flash-crowd destination hotset active in ``epoch``, if any.

        Hotsets are drawn per flash id from its own derived seed, so a
        flash looks the same from every epoch inside its window.
        """
        if self.flash_every_epochs <= 0 or self.flash_length_epochs <= 0:
            return None
        if epoch % self.flash_every_epochs >= self.flash_length_epochs:
            return None
        flash_id = epoch // self.flash_every_epochs
        if flash_id == 0:
            return None  # no flash before the first full period
        rng = np.random.default_rng(derive_seed(self.seed, ("flash", flash_id)))
        # integers() with replacement: a permutation-free draw, so the
        # hotset costs O(size), not O(hosts).
        return rng.integers(0, self.hosts, size=self.flash_hotset_size)


def host_addresses(spec: StreamSpec, indices: np.ndarray) -> np.ndarray:
    """Vectorized virtual-host address: round-robin switch, packed block."""
    indices = np.asarray(indices, dtype=np.int64)
    switch = indices % spec.edge_switches
    within = indices // spec.edge_switches
    return BASE_ADDRESS | (switch << spec.host_bits) | within


def streaming_topology(spec: StreamSpec) -> Topology:
    """The physical fabric under the virtual host population.

    A core switch, ``edge_switches`` edge switches each with one sink
    host (the concrete endpoint all of that switch's virtual hosts
    deliver to), and ``authority_switches`` authority switches — O(E)
    nodes however many virtual hosts the spec declares.
    """
    topo = Topology()
    core_spec = LinkSpec(propagation_s=20e-6, bandwidth_bps=10e9)
    topo.add_switch("core")
    for index in range(spec.edge_switches):
        edge = topo.add_switch(spec.edge_name(index))
        topo.add_link("core", edge, core_spec)
        topo.add_host(spec.sink_name(index), edge)
    for index in range(spec.authority_switches):
        authority = topo.add_switch(spec.authority_name(index))
        topo.add_link("core", authority, core_spec)
    return topo


def _build_streaming_policy(spec: StreamSpec, layout: HeaderLayout) -> List[Rule]:
    rules: List[Rule] = []
    slice_bits = spec.host_bits - (spec.rules_per_switch - 1).bit_length()
    prefix_len = 32 - slice_bits
    for switch in range(spec.edge_switches):
        block = BASE_ADDRESS | (switch << spec.host_bits)
        for index in range(spec.rules_per_switch):
            value = block | (index << slice_bits)
            match = Match(
                layout,
                layout.pack_match(nw_dst=Ternary.from_prefix(value, prefix_len, 32)),
            )
            rules.append(Rule(match, 10, Forward(spec.sink_name(switch))))
    rules.append(Rule(Match.any(layout), 0, Drop()))
    return rules


def streaming_policy(
    spec: StreamSpec, layout: HeaderLayout = FIVE_TUPLE_LAYOUT
) -> List[Rule]:
    """Wildcard routing over the virtual address plan, default deny.

    Each edge switch's block splits into ``rules_per_switch`` aligned
    prefixes forwarding to that switch's sink.  Memory-tier cached only:
    partitioning and cache installs match on ``Rule`` identity, which a
    disk pickle round-trip would silently break.
    """
    from repro.parallel.cache import artifact_cache

    params = {
        "hosts": spec.hosts,
        "edge_switches": spec.edge_switches,
        "rules_per_switch": spec.rules_per_switch,
        "layout": [[field.name, field.width] for field in layout.fields],
    }
    return artifact_cache().get(
        "streaming-policy",
        params,
        lambda: _build_streaming_policy(spec, layout),
        disk=False,
    )


def epoch_bursts(
    spec: StreamSpec, epoch: int, layout: HeaderLayout = FIVE_TUPLE_LAYOUT
) -> List[Burst]:
    """Epoch ``epoch``'s bursts — derivable without any other epoch.

    All randomness comes from ``derive_seed(spec.seed, ("stream-epoch",
    epoch))``; draw order within the epoch is fixed (destinations, flash
    replacement, sources, ports, mobility), so the function is a pure
    map from ``(spec, epoch)`` to bursts.  One ``(time, switch, packets)``
    burst per ingress switch with traffic this epoch, emitted in switch
    order.  The packets draw their ids from the global counter here, in
    burst order, so the ids an epoch consumes do not depend on when its
    bursts are injected.
    """
    rng = np.random.default_rng(derive_seed(spec.seed, ("stream-epoch", epoch)))
    count = spec.epoch_packet_count(epoch)
    cdf = zipf_cdf(spec.hosts, spec.alpha)
    destinations = np.searchsorted(cdf, rng.random(count)).astype(np.int64)
    flash = spec.flash_hotset(epoch)
    if flash is not None and spec.flash_share > 0.0:
        redirected = rng.random(count) < spec.flash_share
        hits = int(redirected.sum())
        if hits:
            destinations[redirected] = flash[rng.integers(0, len(flash), size=hits)]
    sources = rng.integers(0, spec.hosts, size=count)
    tp_src = rng.integers(1024, 65536, size=count)
    ingress = (sources % spec.edge_switches).astype(np.int64)
    if spec.mobility_rate > 0.0:
        moved = rng.random(count) < spec.mobility_rate
        if moved.any():
            ingress[moved] = (
                _mix(sources[moved], epoch) % np.uint64(spec.edge_switches)
            ).astype(np.int64)
    time = spec.start_time + epoch * spec.epoch_interval_s
    source_addresses = host_addresses(spec, sources)
    destination_addresses = host_addresses(spec, destinations)
    fixed = layout.pack_values(nw_proto=6, tp_dst=80)
    src_at, dst_at, port_at = map(layout.offset, ("nw_src", "nw_dst", "tp_src"))
    out: List[Burst] = []
    for switch in np.unique(ingress):
        positions = np.nonzero(ingress == switch)[0]
        packets = [
            # Flow identity = destination host: what the cache, the
            # top-k sketch and the Zipf skew are all keyed on.
            Packet(layout, fixed | src << src_at | dst << dst_at | port << port_at,
                   flow, spec.size_bytes)
            for src, dst, port, flow in zip(
                source_addresses[positions].tolist(),
                destination_addresses[positions].tolist(),
                tp_src[positions].tolist(),
                destinations[positions].tolist(),
            )
        ]
        out.append((time, spec.edge_name(int(switch)), packets))
    return out


def stream_bursts(
    spec: StreamSpec, layout: HeaderLayout = FIVE_TUPLE_LAYOUT
) -> Iterator[Burst]:
    """All epochs' bursts, lazily — the streaming view of the workload.

    ``list(stream_bursts(spec))`` *is* the materialized view; peak
    memory of the lazy form is one epoch's bursts.
    """
    for epoch in range(spec.epochs):
        yield from epoch_bursts(spec, epoch, layout)


def feed_epochs(
    dn, spec: StreamSpec, on_burst: Optional[Callable[[List[Packet]], None]] = None
) -> None:
    """Schedule one event at each epoch's instant that generates the
    epoch's bursts and hands each to ``dn.send_batch_at`` (after
    ``on_burst(packets)``, if given), so no epoch exists before its
    instant.  The epoch interval dwarfs the longest event chain, so the
    event sequence equals that of ``stream_bursts`` scheduled up front.
    """
    scheduler = dn.network.scheduler
    for epoch in range(spec.epochs):
        when = spec.start_time + epoch * spec.epoch_interval_s
        scheduler.schedule_at(when, _feed_epoch, dn, spec, epoch, on_burst)


def _feed_epoch(dn, spec: StreamSpec, epoch: int, on_burst) -> None:
    for time, switch, packets in epoch_bursts(spec, epoch):
        if on_burst is not None:
            on_burst(packets)
        dn.send_batch_at(time, switch, packets)
