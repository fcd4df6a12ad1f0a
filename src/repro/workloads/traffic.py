"""Traffic generation: flows, packet sequences and timed arrivals.

Three levels, matching what each experiment needs:

* **flow headers** — concrete 5-tuples drawn to hit a given policy
  (weighted by each rule's flow-space share, like the paper's synthetic
  weight assignment, or uniformly);
* **packet sequences** — an ordered stream of headers with Zipf flow
  popularity, for the trace-driven cache simulators;
* **timed arrivals** — Poisson or deterministic arrival processes of
  single-packet flows, for the event-driven throughput and delay
  experiments (the paper's stress test is exactly "one packet per flow at
  rate R").
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "TimedPacket",
    "flow_headers_for_policy",
    "packet_sequence",
    "poisson_arrivals",
    "host_pair_packets",
    "zipf_host_pair_packets",
]


class TimedPacket:
    """One scheduled packet injection.

    Workload generators build one of these per packet, so it is a
    ``__slots__`` class (no per-instance dict) rather than a dataclass.
    """

    __slots__ = ("time", "source_host", "packet")

    def __init__(self, time: float, source_host: str, packet: Packet):
        self.time = time
        self.source_host = source_host
        self.packet = packet

    def __repr__(self) -> str:
        return (
            f"TimedPacket(time={self.time!r}, "
            f"source_host={self.source_host!r}, packet={self.packet!r})"
        )


def flow_headers_for_policy(
    rules: Sequence[Rule],
    count: int,
    seed: int = 0,
    weight_by_size: bool = True,
    skip_terminal_default: bool = True,
) -> List[int]:
    """Draw ``count`` distinct-ish flow headers that exercise ``rules``.

    Each flow picks a rule (weighted by the rule match's flow-space size
    when ``weight_by_size`` — the paper's weighting — else uniformly) and
    samples a concrete header inside the match.  Headers may actually hit
    a higher-priority overlapping rule; that is realistic and harmless.
    The catch-all default rule is excluded by default so traffic
    concentrates on the interesting part of the policy.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rng = random.Random(seed)
    candidates = list(rules)
    if skip_terminal_default and len(candidates) > 1 and candidates[-1].match.ternary.is_wildcard():
        candidates = candidates[:-1]
    if not candidates:
        raise ValueError("no rules to draw traffic from")
    if weight_by_size:
        # Weight by flow-space share, rescaled relative to the widest rule
        # so the ratios stay in float range (headers are >100 bits wide).
        max_free = max(rule.match.ternary.wildcard_bits() for rule in candidates)
        weights = [
            max(2.0 ** (rule.match.ternary.wildcard_bits() - max_free), 1e-12)
            for rule in candidates
        ]
    else:
        weights = [1.0] * len(candidates)
    # Accumulated once: ``choices`` would redo it per flow, with the same draws.
    cum_weights = list(accumulate(weights))
    headers = []
    for _ in range(count):
        rule = rng.choices(candidates, cum_weights=cum_weights, k=1)[0]
        headers.append(rule.match.ternary.sample(rng))
    return headers


def packet_sequence(
    flow_headers: Sequence[int],
    length: int,
    alpha: float = 1.0,
    seed: int = 0,
) -> List[int]:
    """A stream of ``length`` headers with Zipf(alpha) flow popularity.

    Flow popularity rank is decoupled from the order of ``flow_headers``
    via a seeded shuffle, so popular flows are spread across the policy.
    """
    if not flow_headers:
        raise ValueError("need at least one flow header")
    sampler = ZipfSampler(len(flow_headers), alpha=alpha, seed=seed, shuffle=True)
    return [flow_headers[i] for i in sampler.sample_many(length)]


def poisson_arrivals(
    rate: float,
    duration: float,
    seed: int = 0,
) -> List[float]:
    """Arrival times of a Poisson process of ``rate``/s over ``duration`` s."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    rng = random.Random(seed)
    times = []
    t = rng.expovariate(rate)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate)
    return times


def _start_times(count: int, rate: float, seed: int, deterministic: bool) -> Iterator[float]:
    if deterministic:
        return (i / rate for i in range(count))
    # Exactly `count` Poisson arrivals: accumulate exponential gaps.
    expovariate = random.Random(seed + 1).expovariate
    return accumulate(expovariate(rate) for _ in range(count))


def _timed_flows(
    layout: HeaderLayout,
    host_ips: Dict[str, int],
    rng: random.Random,
    start_times: Iterator[float],
    pairs: Iterator[Sequence[str]],
    flow_packets: int,
) -> Iterator[TimedPacket]:
    """One TCP flow of ``flow_packets`` packets per start time, each built
    as it is pulled.

    ``pairs`` must be lazy: each ``(src, dst)`` draw from ``rng`` has to
    land before that flow's ``tp_src`` draw, as in a per-flow loop.  The
    constant fields and each host's address word are packed (and
    range-checked) once, at the first pull; a flow only ORs in its
    ephemeral port.
    """
    base = layout.pack_values(nw_proto=6, tp_dst=80)
    layout.pack_values(tp_src=65535)  # the widest port randint can draw
    tp_offset = layout.offset("tp_src")
    src_words = {host: layout.pack_values(nw_src=ip) for host, ip in host_ips.items()}
    dst_words = {host: base | layout.pack_values(nw_dst=ip) for host, ip in host_ips.items()}
    randint = rng.randint
    for flow_id, (start, (src, dst)) in enumerate(zip(start_times, pairs)):
        bits = src_words[src] | dst_words[dst] | (randint(1024, 65535) << tp_offset)
        for p_index in range(flow_packets):
            yield TimedPacket(start + p_index * 1e-6, src, Packet(layout, bits, flow_id))


def host_pair_packets(
    topology,
    host_ips: Dict[str, int],
    layout: HeaderLayout,
    count: int,
    rate: float,
    seed: int = 0,
    flow_packets: int = 1,
    deterministic_arrivals: bool = False,
) -> Iterator[TimedPacket]:
    """Timed packets between random host pairs of ``topology``, in time
    order and built as they are pulled (``list(...)`` for a list).

    Every flow is ``flow_packets`` back-to-back packets (1 µs apart) from a
    random source host to a random destination host, with the destination
    host's address in ``nw_dst`` (so the routing policy from
    :func:`routing_policy_for_topology` forwards it) and random ephemeral
    ports (so each flow is a distinct microflow — the paper's stress
    pattern).
    """
    rng = random.Random(seed)
    hosts = list(host_ips)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    start_times = _start_times(count, rate, seed, deterministic_arrivals)
    pairs = (rng.sample(hosts, 2) for _ in range(count))
    return _timed_flows(layout, host_ips, rng, start_times, pairs, flow_packets)


def zipf_host_pair_packets(
    topology,
    host_ips: Dict[str, int],
    layout: HeaderLayout,
    count: int,
    rate: float,
    alpha: float = 1.2,
    seed: int = 0,
    flow_packets: int = 1,
    deterministic_arrivals: bool = False,
) -> Iterator[TimedPacket]:
    """Like :func:`host_pair_packets`, but with Zipf-skewed destinations.

    Destination hosts are drawn from ``Zipf(alpha)`` over the host list
    order (the first host is the hottest), sources uniformly from the
    rest.  Because routing rules key on ``nw_dst``, the skew propagates
    straight through the policy cut into per-partition redirect load —
    the workload that trips the authority-imbalance detector and gives
    a rebalancer something real to fix.
    """
    rng = random.Random(seed)
    hosts = list(host_ips)
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    sampler = ZipfSampler(len(hosts), alpha=alpha, seed=seed, shuffle=False)
    start_times = _start_times(count, rate, seed, deterministic_arrivals)
    # The sampler owns its numpy Generator, so one bulk draw yields the
    # ranks of `count` single draws; `rng` sees the same per-flow calls.
    dsts = [hosts[rank] for rank in sampler.sample_many(count)]
    others = {dst: [host for host in hosts if host != dst] for dst in set(dsts)}
    pairs = ((rng.choice(others[dst]), dst) for dst in dsts)
    return _timed_flows(layout, host_ips, rng, start_times, pairs, flow_packets)
