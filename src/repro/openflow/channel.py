"""The switch ↔ controller control channel.

A :class:`ControlChannel` models the out-of-band TCP session OpenFlow
uses: a fixed one-way latency each direction (the paper's testbed measured
several milliseconds of controller round trip; propagation is one part,
controller processing the other — the processing half lives in
:class:`repro.baselines.nox.NoxController`'s CPU queue).

Message ordering per direction is FIFO, which NOX relies on: its
microflow FlowMod reaches the switch before the PacketOut that
re-injects the punted packet.

Fault model and reliability
---------------------------
By default the channel is perfect and this module behaves exactly as it
always has.  Attaching a :class:`ChannelFaultModel` makes individual
*transmissions* unreliable (independent drop probability, optional extra
delay), and flips the channel into reliable mode: every message gets a
per-direction sequence number, the sender retransmits on an ack timeout
with capped exponential backoff plus jitter, and the receiver suppresses
duplicates before invoking the handler — so cache-install and
partition-update handlers stay idempotent under duplicates and
reordering.  Counters expose attempted vs. delivered messages, retries,
duplicates and permanent losses.

With faults the per-direction FIFO guarantee no longer holds (a
retransmitted message can overtake a later one); handlers behind a
faulty channel must not rely on ordering.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.net.events import EventScheduler, ScheduledEvent
from repro.obs import context as _obs_context
from repro.obs.registry import Collectable
from repro.openflow.messages import Message

__all__ = ["ControlChannel", "ChannelFaultModel"]

#: Default one-way control channel latency (seconds).  Calibrated so the
#: NOX first-packet RTT lands near the ~10 ms the paper reports once
#: controller processing is added.
DEFAULT_CONTROL_LATENCY_S = 2e-3


@dataclass
class ChannelFaultModel:
    """Per-transmission unreliability of a control session.

    Attributes
    ----------
    drop_probability:
        Independent probability that any single transmission (data,
        retransmission, or ack) is lost.  Mutable, so a chaos schedule
        can raise it for a brownout window and restore it afterwards.
    extra_delay_s:
        Maximum uniform extra latency added per transmission.
    seed:
        Seeds the private RNG; same seed → same drop/delay stream.
    drop_pattern:
        Optional deterministic prefix: each transmission consumes one
        boolean (``True`` = drop) until the pattern is exhausted, after
        which the probabilistic model takes over.  Exists for tests that
        need exact drop placement.
    """

    drop_probability: float = 0.0
    extra_delay_s: float = 0.0
    seed: int = 0
    drop_pattern: Optional[Sequence[bool]] = None
    _rng: random.Random = field(init=False, repr=False, compare=False, default=None)
    _pattern_index: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        self._rng = random.Random(f"chan:{self.seed}")

    def drops_transmission(self) -> bool:
        """Decide the fate of the next transmission (consumes randomness)."""
        if self.drop_pattern is not None and self._pattern_index < len(self.drop_pattern):
            verdict = bool(self.drop_pattern[self._pattern_index])
            self._pattern_index += 1
            return verdict
        if self.drop_probability <= 0.0:
            return False
        return self._rng.random() < self.drop_probability

    def transmission_delay(self) -> float:
        """Extra latency for the next transmission (consumes randomness)."""
        if self.extra_delay_s <= 0.0:
            return 0.0
        return self._rng.uniform(0.0, self.extra_delay_s)


class _Pending:
    """Sender-side state of one unacked reliable message."""

    __slots__ = ("message", "attempts", "timer", "timeout_s", "on_acked")

    def __init__(self, message: Message, timeout_s: float,
                 on_acked: Optional[Callable[[], None]] = None):
        self.message = message
        self.attempts = 1
        self.timer: Optional[ScheduledEvent] = None
        self.timeout_s = timeout_s
        self.on_acked = on_acked


class ControlChannel(Collectable):
    """One switch's control session to the controller.

    Parameters
    ----------
    fault_model:
        ``None`` (default) keeps the channel perfect and the behaviour
        identical to the pre-fault implementation.
    reliable:
        Enable the ack/retransmit/dedup machinery.  Default: on exactly
        when a fault model is attached.
    retx_timeout_s:
        Initial ack timeout before the first retransmission; defaults to
        four one-way latencies (comfortably above the RTT).
    max_retries:
        Retransmissions per message before declaring it permanently
        lost; ``None`` retries forever (delivery is then guaranteed for
        any drop probability below 1).
    backoff_factor / backoff_cap_s:
        Exponential backoff multiplier per retry and its cap.
    """

    #: Per-direction statistics as (registry event, :meth:`counters` key,
    #: attribute stem): attempted unique messages (``messages_up`` /
    #: ``messages_down``), unique deliveries, and the fault breakdown.
    _STATS = (
        ("attempted", "attempted", "messages"),
        ("delivered", "delivered", "delivered"),
        ("retry", "retries", "retries"),
        ("duplicate", "duplicates", "duplicates"),
        ("lost", "lost", "lost"),
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        switch_name: str,
        to_controller: Callable[[Message], None],
        to_switch: Callable[[Message], None],
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
        fault_model: Optional[ChannelFaultModel] = None,
        reliable: Optional[bool] = None,
        retx_timeout_s: Optional[float] = None,
        max_retries: Optional[int] = 8,
        backoff_factor: float = 2.0,
        backoff_cap_s: float = 0.5,
        metrics=None,
    ):
        self.scheduler = scheduler
        self.switch_name = switch_name
        self._to_controller = to_controller
        self._to_switch = to_switch
        self.latency_s = latency_s
        self.fault_model = fault_model
        self.reliable = (fault_model is not None) if reliable is None else reliable
        self.retx_timeout_s = (
            4.0 * latency_s if retx_timeout_s is None else retx_timeout_s
        )
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.backoff_cap_s = backoff_cap_s
        self._backoff_rng = random.Random(f"backoff:{switch_name}")
        # Per-direction sequence numbers, unacked sends, and receiver dedup.
        self._next_seq = {"up": 0, "down": 0}
        self._pending: Dict[Tuple[str, int], _Pending] = {}
        self._seen: Dict[str, Set[int]] = {"up": set(), "down": set()}
        #: Liveness of each direction's *receiver* ("down" = the switch
        #: side, "up" = the controller side).  A dead receiver neither
        #: processes deliveries nor returns acks — see set_endpoint_alive.
        self.endpoint_alive: Dict[str, bool] = {"up": True, "down": True}
        #: Called as ``on_lost(direction, message)`` when a message is
        #: abandoned (retries exhausted, or dropped on an unreliable send).
        self.on_lost: Optional[Callable[[str, Message], None]] = None
        # The ``_STATS`` counters, one attribute per direction, which the
        # run's registry reads (summed over channels: no switch label,
        # matching control_plane_counters()).
        registry = metrics if metrics is not None else _obs_context.current_registry()
        self._profiler = _obs_context.current_profiler()
        for direction in ("up", "down"):
            for event, _, stem in self._STATS:
                setattr(self, f"{stem}_{direction}", 0)
                registry.collect(
                    "control_channel_events_total", self, f"{stem}_{direction}",
                    direction=direction, event=event,
                )

    # -- public API -----------------------------------------------------------
    def send_to_controller(
        self,
        message: Message,
        reliable: Optional[bool] = None,
        on_acked: Optional[Callable[[], None]] = None,
    ) -> None:
        """Switch-side send; arrives at the controller after the latency."""
        self.messages_up += 1
        self._timed_send("up", message,
                         self.reliable if reliable is None else reliable, on_acked)

    def send_to_switch(
        self,
        message: Message,
        reliable: Optional[bool] = None,
        on_acked: Optional[Callable[[], None]] = None,
    ) -> None:
        """Controller-side send; arrives at the switch after the latency."""
        self.messages_down += 1
        self._timed_send("down", message,
                         self.reliable if reliable is None else reliable, on_acked)

    def _timed_send(self, direction: str, message: Message, reliable: bool,
                    on_acked: Optional[Callable[[], None]] = None) -> None:
        profiler = self._profiler
        if profiler is not None and profiler.enabled:
            started = _time.perf_counter()
            self._send(direction, message, reliable, on_acked)
            profiler.observe("channel-send", _time.perf_counter() - started)
        else:
            self._send(direction, message, reliable, on_acked)

    def counters(self) -> Dict[str, int]:
        """The attempted/delivered/retry/duplicate/lost breakdown."""
        return {
            f"{key}_{direction}": getattr(self, f"{stem}_{direction}")
            for _, key, stem in self._STATS
            for direction in ("up", "down")
        }

    # -- transmission mechanics -------------------------------------------------
    def _send(self, direction: str, message: Message, reliable: bool,
              on_acked: Optional[Callable[[], None]] = None) -> None:
        if not reliable and self.fault_model is None:
            # Fast path: the original perfect-FIFO channel, untouched.
            self.scheduler.schedule(self.latency_s, self._deliver_unreliable,
                                    direction, message)
            if on_acked is not None:
                # Perfect channel: the ack returns one RTT after the send —
                # but only a live receiver acks (checked at delivery time).
                self.scheduler.schedule(
                    self.latency_s, self._maybe_ack_unreliable, direction, on_acked
                )
            return
        if not reliable:
            if self.fault_model.drops_transmission():
                self._count_lost(direction, message)
                return
            delay = self.latency_s + self.fault_model.transmission_delay()
            self.scheduler.schedule(delay, self._deliver_unreliable, direction, message)
            if on_acked is not None:
                self.scheduler.schedule(
                    delay, self._maybe_ack_unreliable, direction, on_acked
                )
            return
        seq = self._next_seq[direction]
        self._next_seq[direction] += 1
        pending = _Pending(message, self.retx_timeout_s, on_acked)
        self._pending[(direction, seq)] = pending
        self._transmit(direction, seq, pending)

    def _transmit(self, direction: str, seq: int, pending: _Pending) -> None:
        """One physical attempt of a reliable message, plus its ack timer."""
        if not self._drops():
            delay = self.latency_s + self._extra_delay()
            self.scheduler.schedule(delay, self._deliver_reliable,
                                    direction, seq, pending.message)
        jitter = pending.timeout_s * 0.1 * self._backoff_rng.random()
        pending.timer = self.scheduler.schedule(
            pending.timeout_s + jitter, self._ack_timeout, direction, seq
        )

    def _ack_timeout(self, direction: str, seq: int) -> None:
        pending = self._pending.get((direction, seq))
        if pending is None:
            return  # acked in the meantime
        if self.max_retries is not None and pending.attempts > self.max_retries:
            del self._pending[(direction, seq)]
            self._count_lost(direction, pending.message)
            return
        pending.attempts += 1
        pending.timeout_s = min(
            pending.timeout_s * self.backoff_factor, self.backoff_cap_s
        )
        self.__dict__[f"retries_{direction}"] += 1
        profiler = self._profiler
        if profiler is not None and profiler.enabled:
            started = _time.perf_counter()
            self._transmit(direction, seq, pending)
            profiler.observe("channel-retransmit", _time.perf_counter() - started)
        else:
            self._transmit(direction, seq, pending)

    def set_endpoint_alive(self, direction: str, alive: bool) -> None:
        """Mark one direction's receiver dead or alive.

        A dead receiver swallows every in-flight transmission silently —
        no handler runs, no ack returns, so reliable senders keep
        retrying until the endpoint is restored (or their retry budget
        runs out).  Callers that kill an endpoint usually also call
        :meth:`drain_pending` to settle what the dead side had in flight.
        """
        if direction not in self.endpoint_alive:
            raise ValueError(f"unknown direction {direction!r}")
        self.endpoint_alive[direction] = alive

    def _deliver_reliable(self, direction: str, seq: int, message: Message) -> None:
        if not self.endpoint_alive[direction]:
            return  # receiver is dead: no delivery, no ack
        # Ack every reception — the sender may have missed the previous ack.
        if not self._drops():
            delay = self.latency_s + self._extra_delay()
            self.scheduler.schedule(delay, self._ack_arrived, direction, seq)
        seen = self._seen[direction]
        if seq in seen:
            self.__dict__[f"duplicates_{direction}"] += 1
            return
        seen.add(seq)
        self._hand_over(direction, message)

    def _ack_arrived(self, direction: str, seq: int) -> None:
        pending = self._pending.pop((direction, seq), None)
        if pending is None:
            return
        if pending.timer is not None:
            pending.timer.cancel()
        if pending.on_acked is not None:
            pending.on_acked()

    def _maybe_ack_unreliable(self, direction: str,
                              on_acked: Callable[[], None]) -> None:
        """Fire an unreliable send's ack one latency on — dead receivers
        never ack, which is what makes lease-ack staleness emergent even
        on a fault-free channel."""
        if self.endpoint_alive[direction]:
            self.scheduler.schedule(self.latency_s, on_acked)

    def _deliver_unreliable(self, direction: str, message: Message) -> None:
        if not self.endpoint_alive[direction]:
            return  # receiver is dead: the transmission vanishes
        self._hand_over(direction, message)

    def _hand_over(self, direction: str, message: Message) -> None:
        if direction == "up":
            self.delivered_up += 1
            self._to_controller(message)
        else:
            self.delivered_down += 1
            self._to_switch(message)

    def _count_lost(self, direction: str, message: Message) -> None:
        self.__dict__[f"lost_{direction}"] += 1
        if self.on_lost is not None:
            self.on_lost(direction, message)

    def _drops(self) -> bool:
        return self.fault_model is not None and self.fault_model.drops_transmission()

    def _extra_delay(self) -> float:
        return 0.0 if self.fault_model is None else self.fault_model.transmission_delay()

    def pending_messages(self) -> List[Message]:
        """Reliable messages still awaiting an ack (diagnostics)."""
        return [p.message for p in self._pending.values()]

    def drain_pending(self) -> Dict[str, int]:
        """Abort all unacked retransmit state — the endpoint died mid-flight.

        Cancels every pending ack timer so no retry fires against a dead
        endpoint.  A pending message whose sequence number the receiver
        has already seen was *delivered* (only the ack was outstanding):
        its completion callback still fires and nothing is counted lost.
        Everything else is counted permanently lost through the same
        ``lost`` counter / ``on_lost`` hook as retry exhaustion, so
        ``attempted == delivered + lost`` reconciles exactly for the
        drained messages.
        """
        drained = {"delivered": 0, "lost": 0}
        for key in sorted(self._pending):
            direction, seq = key
            pending = self._pending.pop(key)
            if pending.timer is not None:
                pending.timer.cancel()
            if seq in self._seen[direction]:
                drained["delivered"] += 1
                if pending.on_acked is not None:
                    pending.on_acked()
            else:
                drained["lost"] += 1
                self._count_lost(direction, pending.message)
        return drained

    def __repr__(self) -> str:
        return (
            f"<ControlChannel {self.switch_name} up={self.messages_up} "
            f"down={self.messages_down} lat={self.latency_s * 1e3:.2f}ms>"
        )
