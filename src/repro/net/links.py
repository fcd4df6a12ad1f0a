"""Point-to-point links.

A :class:`Link` carries packets between two named nodes with a delay of
``propagation + size / bandwidth`` seconds.  Links are unidirectional at
the object level; topologies create one per direction.  Per-link counters
feed the utilization analysis in the stretch and throughput experiments.

Fault model
-----------
A link may be *lossy* (``loss_probability``) and *jittery*
(``jitter_s``, uniform extra latency).  Both default to zero, in which
case the link draws no random numbers and behaves exactly like the
reliable fabric the original experiments assume.  Randomness comes from
a per-link RNG seeded from the network seed and the link's endpoints, so
two runs with the same seed lose exactly the same packets regardless of
event interleaving on other links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush as _heappush
from typing import Callable, Dict, Optional

from repro.net.events import JOINED, EventScheduler

__all__ = ["LinkSpec", "Link"]


@dataclass(frozen=True)
class LinkSpec:
    """Physical parameters of a link.

    Attributes
    ----------
    propagation_s:
        One-way propagation delay in seconds (default 50 µs — a metro span;
        the campus builder uses shorter values).
    bandwidth_bps:
        Capacity in bits per second (default 1 Gb/s).
    loss_probability:
        Independent per-packet drop probability (default 0 — lossless).
    jitter_s:
        Maximum uniform extra latency per packet (default 0 — no jitter).
    """

    propagation_s: float = 50e-6
    bandwidth_bps: float = 1e9
    loss_probability: float = 0.0
    jitter_s: float = 0.0

    def transfer_delay(self, size_bytes: int) -> float:
        """Total latency for one packet of ``size_bytes`` (jitter excluded)."""
        return self.propagation_s + (size_bytes * 8.0) / self.bandwidth_bps


class Link:
    """A unidirectional link delivering packets after the spec's delay."""

    __slots__ = ("source", "destination", "spec", "scheduler", "deliver",
                 "on_loss", "loss_probability", "jitter_s", "_rng", "_delays",
                 "packets_carried", "bytes_carried", "packets_lost")

    def __init__(
        self,
        source: str,
        destination: str,
        spec: LinkSpec,
        scheduler: EventScheduler,
        deliver: Callable,
        on_loss: Optional[Callable] = None,
        seed: int = 0,
    ):
        self.source = source
        self.destination = destination
        self.spec = spec
        self.scheduler = scheduler
        #: Callback invoked as ``deliver(packet)`` on arrival; the network
        #: binds it to the destination's receiver.
        self.deliver = deliver
        #: Callback invoked as ``on_loss(link, packet)`` when loss eats a packet.
        self.on_loss = on_loss
        #: Live fault parameters; start from the spec but stay mutable so a
        #: chaos schedule can flap loss on an existing link mid-run.
        self.loss_probability = spec.loss_probability
        self.jitter_s = spec.jitter_s
        # String-seeded Random uses sha512 of the seed, so the stream is
        # stable across processes (unlike hash(), which is salted).
        self._rng = random.Random(f"{seed}:{source}->{destination}")
        #: ``size_bytes -> spec.transfer_delay(size_bytes)`` for the sizes
        #: this link has carried (the spec is frozen, so entries never go
        #: stale; packet sizes are a handful of distinct values).
        self._delays: Dict[int, float] = {}
        self.packets_carried = 0
        self.bytes_carried = 0
        self.packets_lost = 0

    def send(self, packet) -> None:
        """Start transmitting ``packet``; it arrives after the link delay."""
        size = packet.size_bytes
        self.packets_carried += 1
        self.bytes_carried += size
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            self.packets_lost += 1
            if self.on_loss is not None:
                self.on_loss(self, packet)
            return
        delay = self._delays.get(size)
        if delay is None:
            delay = self.spec.transfer_delay(size)
            if not delay >= 0:  # also rejects NaN, which would poison the heap order
                raise ValueError(f"link {self.source}->{self.destination} has delay {delay}")
            self._delays[size] = delay
        if self.jitter_s > 0.0:
            delay += self._rng.uniform(0.0, self.jitter_s)
        # The scheduler's push, inlined; equal-time ones join (DESIGN.md).
        scheduler = self.scheduler
        now = scheduler.now
        when = now + delay
        entry = scheduler._open
        sequence = next(scheduler._sequence)
        if entry is not None and entry[0] == when > now:
            if entry[2] is not JOINED:
                entry[2], entry[3] = JOINED, [(entry[2], entry[3][0])]
            entry[3].append((self.deliver, packet))
        else:
            scheduler._open = entry = [when, sequence, self.deliver, (packet,)]
            _heappush(scheduler._heap, entry)

    def __repr__(self) -> str:
        return f"<Link {self.source}->{self.destination} {self.packets_carried}pkts>"
