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
from typing import Callable, Dict, Optional

import numpy as np

from repro.net.events import EventScheduler

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
                 "deliver_batch", "on_loss", "loss_probability", "jitter_s",
                 "_rng", "_delays", "_pending", "_pending_at",
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
        deliver_batch: Optional[Callable] = None,
    ):
        self.source = source
        self.destination = destination
        self.spec = spec
        self.scheduler = scheduler
        #: Callback invoked as ``deliver(destination, packet)`` on arrival.
        self.deliver = deliver
        #: Batch arrival callback ``deliver_batch(destination, batches)``,
        #: handed every batch that arrives in one event; ``None`` degrades
        #: :meth:`send_batch` to per-packet arrivals.
        self.deliver_batch = deliver_batch
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
        #: The batches of the newest not-yet-fired clean batch event and
        #: its arrival instant: a same-arrival send joins it.
        self._pending: Optional[list] = None
        self._pending_at = 0.0
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
            delay = self._delays[size] = self.spec.transfer_delay(size)
        if self.jitter_s > 0.0:
            delay += self._rng.uniform(0.0, self.jitter_s)
        self.scheduler.schedule(delay, self.deliver, self.destination, packet)

    def _delay(self, size: int) -> float:
        delay = self._delays.get(size)
        if delay is None:
            delay = self._delays[size] = self.spec.transfer_delay(size)
        return delay

    def send_batch(self, batch) -> None:
        """Transmit a whole same-instant batch over this link.

        On a clean link (no loss, no jitter) a uniform-size batch costs
        no numpy reduction and at most one event: a send whose arrival
        instant equals that of the link's still-pending batch event joins
        that event, so ``deliver_batch`` sees one list per (link, instant)
        however many sub-batches a switch forwarded.

        Otherwise counters, loss and jitter draws happen per packet **in
        packet order**, so the link's private RNG stream advances exactly
        as the scalar per-packet path would — a chaos run loses the same
        packets in either mode (with both faults on, a batch's loss draws
        all precede its jitter draws).  With jitter off, survivors arrive
        as one batch event per distinct packet size; jitter forces
        per-packet arrival times and degrades to per-packet delivery.
        """
        count = len(batch)
        self.packets_carried += count
        size = batch.uniform_size
        if (
            size is not None
            and self.loss_probability <= 0.0
            and self.jitter_s <= 0.0
            and self.deliver_batch is not None
        ):
            self.bytes_carried += count * size
            delay = self._delay(size)
            arrival = self.scheduler.now + delay
            if self._pending is not None and self._pending_at == arrival:
                self._pending.append(batch)
                return
            self._pending = [batch]
            self._pending_at = arrival
            self.scheduler.schedule_batch(delay, self._deliver_pending, self._pending)
            return
        self.bytes_carried += int(batch.size_bytes.sum())
        survivors = batch
        if self.loss_probability > 0.0:
            draw = self._rng.random
            probability = self.loss_probability
            lost = [i for i in range(count) if draw() < probability]
            if lost:
                self.packets_lost += len(lost)
                if self.on_loss is not None:
                    for packet in batch.select(np.array(lost)).packets():
                        self.on_loss(self, packet)
                if len(lost) == count:
                    return
                keep = np.ones(count, dtype=bool)
                keep[lost] = False
                survivors = batch.select(np.nonzero(keep)[0])
        if self.jitter_s > 0.0 or self.deliver_batch is None:
            for packet in survivors.packets():
                delay = self._delay(packet.size_bytes)
                if self.jitter_s > 0.0:
                    delay += self._rng.uniform(0.0, self.jitter_s)
                self.scheduler.schedule(delay, self.deliver, self.destination, packet)
            return
        if size is not None:
            by_size = [(size, survivors)]
        else:
            sizes = survivors.size_bytes
            by_size = [
                (size, survivors.select(np.nonzero(sizes == size)[0]))
                for size in np.unique(sizes).tolist()
            ]
        for size, sub in by_size:
            self.scheduler.schedule_batch(
                self._delay(size), self.deliver_batch, self.destination, [sub]
            )

    def _deliver_pending(self, batches: list) -> None:
        """A clean batch event fires: detach its list (a later send must
        start a new event, not join a delivered one) and hand it over."""
        if self._pending is batches:
            self._pending = None
        self.deliver_batch(self.destination, batches)

    def __repr__(self) -> str:
        return f"<Link {self.source}->{self.destination} {self.packets_carried}pkts>"
