"""Deterministic discrete-event scheduling.

Two pieces:

* :class:`EventScheduler` — a heap-based event loop with stable ordering
  (events at equal times fire in scheduling order), cancellation, and a
  bounded run.  All simulation time is in **seconds** (floats).
* :class:`ServiceStation` — a single-server FIFO queue with a fixed service
  rate and bounded queue, the canonical M/D/1-style building block.  The
  NOX controller's CPU (≈50 K flow setups/s) and a DIFANE authority
  switch's redirect capacity (≈800 K flows/s) are both modelled as service
  stations; saturation and loss behaviour — the core of the paper's
  throughput figures — fall out of the queueing dynamics rather than being
  hard-coded.
"""

from __future__ import annotations

import itertools
import time as _time
from collections import deque
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Deque, Iterable, List, Optional, Tuple

from repro.obs import context as _obs_context
from repro.obs.registry import Collectable

__all__ = ["EventScheduler", "ScheduledEvent", "ServiceStation"]

_INF = float("inf")

#: The callback slot of a heap entry holding several equal-time link
#: deliveries; its args slot is their ``[(deliver, packet), ...]`` list.
JOINED = object()

#: Entries a lazily fed lane pulls from its stream each time it drains.
LANE_BLOCK = 256


class ScheduledEvent(list):
    """Handle for a scheduled callback; supports cancellation.

    The handle *is* the heap entry: a list ``[time, sequence, callback,
    args]`` with no ``__lt__`` of its own, so the heap orders entries by
    C list comparison.  ``sequence`` is unique per scheduler, which means
    a comparison is decided by ``(time, sequence)`` and never reaches the
    callback or its arguments.  Read the fields through the properties;
    only the scheduler indexes the list.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        """Simulation time the event fires at."""
        return self[0]

    @property
    def sequence(self) -> int:
        """Scheduling order, the tie-break among equal times."""
        return self[1]

    @property
    def callback(self) -> Optional[Callable]:
        """The callable to fire; ``None`` once cancelled."""
        return self[2]

    @property
    def args(self) -> Tuple:
        """Positional arguments the callback fires with."""
        return self[3]

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self[2] is None

    def cancel(self) -> None:
        """Prevent the callback from firing (no-op if already fired)."""
        self[2] = None


class EventScheduler:
    """A heap-based discrete-event loop.

    Determinism: events fire in ``(time, scheduling order)`` order, so two
    runs with the same inputs produce identical traces — property tests and
    benchmarks rely on this.  ``Link.send`` pushes its own handle-less
    entries, and equal-time deliveries share one (DESIGN.md "Event loop").
    """

    def __init__(self, profiler=None, telemetry=None):
        self._heap: List[ScheduledEvent] = []
        #: The in-order lane behind its head, and its last entry's time
        #: (``None`` while no lane head is on the heap).
        self._lane: Deque[ScheduledEvent] = deque()
        self._lane_tail: Optional[float] = None
        #: The open stream: [callback, iterator, next sequence, end sequence].
        self._stream: Optional[list] = None
        #: The last ``Link.send`` entry, open to joins until another insertion.
        self._open: Optional[list] = None
        self._sequence = itertools.count()
        #: Current simulation time in seconds (a plain attribute: no frame).
        self.now = 0.0
        self._events_processed = 0
        #: Optional wall-time profiler; when enabled, each callback's
        #: duration lands in a per-callback stage histogram.  Defaults
        #: to the run context's profiler (a no-op unless profiling on).
        self.profiler = profiler if profiler is not None else _obs_context.current_profiler()
        #: Optional telemetry recorder; when enabled, the run loop closes
        #: a sampling window whenever an event crosses the next window
        #: boundary.  Defaults to the run context's recorder (disabled
        #: unless the run asked for telemetry).
        self.telemetry = (
            telemetry if telemetry is not None else _obs_context.current_telemetry()
        )
        #: Probes sampled at each window close: callables returning
        #: gauge-like levels (cache occupancy, cumulative evictions)
        #: keyed by rendered metric name.  Components register themselves
        #: at attach time; probes are per-scheduler so sequential
        #: simulations in one run never sample each other's state.
        self.telemetry_probes: List[Callable[[], dict]] = []
        self._telemetry_index = 0

    def add_probe(self, probe: Callable[[], dict]) -> None:
        """Register a telemetry probe sampled at every window close."""
        self.telemetry_probes.append(probe)

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far (for sanity checks)."""
        return self._events_processed

    def schedule(self, delay: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, which would poison the heap order
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        event = ScheduledEvent(
            (self.now + delay, next(self._sequence), callback, args)
        )
        self._open = None
        _heappush(self._heap, event)
        return event

    def schedule_at(self, time: float, callback: Callable, *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute simulation ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = ScheduledEvent((time, next(self._sequence), callback, args))
        self._open = None
        _heappush(self._heap, event)
        return event

    def schedule_in_order(self, time: float, callback: Callable, *args: Any) -> None:
        """:meth:`schedule_at` for traffic offered in time order, kept off the heap.

        The entry takes its sequence now but waits in a deque; only the
        lane's head is on the heap, and it promotes the next entry when it
        fires, so the fire order is unchanged (DESIGN.md "Event loop").
        An entry earlier than the lane's tail, or made while a stream is
        open, goes onto the heap.  Lane entries cannot be cancelled, so no
        handle is returned.
        """
        if not time >= self.now:  # also rejects NaN
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        event = ScheduledEvent((time, next(self._sequence), callback, args))
        self._open = None
        tail = self._lane_tail
        if self._stream is not None:
            _heappush(self._heap, event)
        elif tail is None:
            self._lane_tail = time
            self._promote(event)
        elif time >= tail:
            self._lane_tail = time
            self._lane.append(event)
        else:
            _heappush(self._heap, event)

    def stream_in_order(self, callback: Callable, entries: Iterable, count: int) -> None:
        """:meth:`schedule_in_order` of ``callback(*args)`` for ``count``
        ``(time, args)`` pairs of ``entries``, pulled :data:`LANE_BLOCK` at a
        time as the lane drains.  The ``count`` sequence numbers are taken
        now, so each entry fires at the ``(time, sequence)`` it would have
        had up front; times must not decrease nor precede the lane's tail.
        """
        if self._stream is not None:
            raise ValueError("a stream is already open")
        start = next(self._sequence)
        self._open = None
        self._sequence = itertools.count(start + count)
        self._stream = [callback, iter(entries), start, start + count]
        if self._lane_tail is None and self._pull():
            self._promote(self._lane.popleft())

    def _pull(self) -> bool:
        """Refill the drained lane from the stream; False if none was left."""
        callback, entries, sequence, end = stream = self._stream
        tail = self.now if self._lane_tail is None else self._lane_tail
        lane = self._lane
        for time, args in itertools.islice(entries, min(LANE_BLOCK, end - sequence)):
            if not time >= tail:  # also rejects NaN
                raise ValueError(f"stream time {time} precedes {tail}")
            lane.append(ScheduledEvent((time, sequence, callback, args)))
            sequence += 1
            tail = time
        stream[2] = sequence
        if len(lane) < LANE_BLOCK or sequence == end:  # drained
            self._stream = None
            if next(entries, None) is not None:
                raise ValueError("stream yields more entries than its count")
        if lane:
            self._lane_tail = tail
        return bool(lane)

    def _promote(self, event: ScheduledEvent) -> None:
        """Put lane entry ``event`` on the heap as the lane's head."""
        event[3] = (event[2], event[3])
        event[2] = self._fire_lane_head
        self._open = None
        _heappush(self._heap, event)

    def _fire_lane_head(self, callback: Callable, args: Tuple) -> None:
        """The lane head's callback: promote the next entry, then fire."""
        lane = self._lane
        if lane or (self._stream is not None and self._pull()):
            self._promote(lane.popleft())
        else:
            self._lane_tail = None
        callback(*args)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the loop; returns the number of callbacks fired.

        Stops when the heap drains, when the next event would fire after
        ``until``, or after ``max_events`` callbacks (a runaway guard).
        The clock then advances to ``until`` unless a live event at or
        before it is still pending (a ``max_events`` stop), so time never
        jumps past an event that has yet to fire.

        The loop body is the hottest code in every experiment, so what is
        fixed for the call is decided before it: the ``None`` tests on
        ``until`` / ``max_events`` become comparisons against infinity,
        and the disabled-profiler fast path (every run except
        ``--profile``) pays no per-event timer reads or attribute chases.
        """
        fired = 0
        heap = self._heap
        pop = _heappop
        horizon = _INF if until is None else until
        limit = _INF if max_events is None else max_events
        profiler = self.profiler
        # One branch outside the loop: profiler enablement is fixed at
        # run-context creation, never toggled mid-run.
        profiling = profiler is not None and profiler.enabled
        # Same hoisting for telemetry: the disabled path (every run unless
        # --telemetry) pays one truth test per event, nothing else.  An
        # event at or past the deadline closes the elapsed window(s)
        # *before* firing, so a window's counter deltas come exactly from
        # the events inside it.
        recorder = self.telemetry
        sampling = recorder is not None and recorder.enabled
        if sampling:
            tele_index = self._telemetry_index
            tele_deadline = recorder.deadline(tele_index)
            probes = self.telemetry_probes
        while heap:
            event = heap[0]
            when = event[0]
            if when > horizon or fired >= limit:
                break
            pop(heap)
            callback = event[2]
            if callback is None:
                continue
            if sampling and when >= tele_deadline:
                tele_index, tele_deadline = recorder.roll(tele_index, when, probes)
            self.now = when
            if callback is JOINED:
                fired += self._fire_joined(event, limit - fired, profiling)
                continue
            if profiling:
                # A lane head is named after the callback it fires.
                named = event[3][0] if callback == self._fire_lane_head else callback
                _observed(profiler, named, callback, event[3])
            else:
                callback(*event[3])
            fired += 1
        self._events_processed += fired
        if until is not None and self.now < until:
            # A ``max_events`` stop can leave events at or before ``until``
            # on the heap; only live ones hold the clock back.
            while heap and heap[0][2] is None:
                pop(heap)
            if not heap or heap[0][0] > until:
                self.now = until
        if sampling:
            # Attribute the residual deltas to the trailing (partial)
            # window; the cursor persists so a continuing run keeps
            # accumulating into the same absolute-time series.
            self._telemetry_index = recorder.flush(tele_index, probes)
        return fired

    def _fire_joined(self, event: list, budget: float, profiling: bool) -> int:
        """Fire up to ``budget`` members of joined ``event`` in order; the
        rest (after a ``max_events`` stop or a raise) go back on the heap."""
        members, fired = event[3], 0
        try:
            for deliver, packet in members:
                if fired == budget:
                    break
                fired += 1
                if profiling:
                    _observed(self.profiler, deliver, deliver, (packet,))
                else:
                    deliver(packet)
        finally:
            if fired < len(members):
                event[3] = members[fired:]
                _heappush(self._heap, event)
        return fired

    def pending(self) -> int:
        """Number of not-yet-fired (and not cancelled) events."""
        unpulled = self._stream[3] - self._stream[2] if self._stream else 0
        live = (len(e[3]) if e[2] is JOINED else e[2] is not None for e in self._heap)
        return sum(live) + len(self._lane) + unpulled


def _observed(profiler, named: Callable, callback: Callable, args: Tuple) -> None:
    """``callback(*args)``, its wall time observed under ``named``'s name."""
    started = _time.perf_counter()
    callback(*args)
    name = getattr(named, "__qualname__", type(named).__name__)
    profiler.observe("callback:" + name, _time.perf_counter() - started)


class ServiceStation(Collectable):
    """A rate-limited single-server FIFO queue.

    Items arrive via :meth:`submit`; each takes ``1 / rate`` seconds of
    service, after which ``on_complete(item)`` is invoked.  Arrivals beyond
    ``queue_limit`` waiting items are dropped and counted (and reported to
    ``on_drop`` when provided).  This models any capacity-bound component:

    * the NOX controller CPU — flow setups queue and, under overload, drop;
    * an authority switch's ingress redirect capacity;
    * a software switch's packet-processing budget.
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        rate: float,
        on_complete: Callable[[Any], None],
        queue_limit: Optional[int] = None,
        on_drop: Optional[Callable[[Any], None]] = None,
        name: str = "station",
        metrics=None,
    ):
        if rate <= 0:
            raise ValueError(f"service rate must be positive, got {rate}")
        self.scheduler = scheduler
        self.rate = rate
        self.on_complete = on_complete
        self.on_drop = on_drop
        self.queue_limit = queue_limit
        self.name = name
        self._queue: Deque[Any] = deque()
        self._busy = False
        # Statistics.
        self.accepted = 0
        self.dropped = 0
        self.completed = 0
        self.busy_time = 0.0
        self._service_started: Optional[float] = None
        # The registry reads every station's tail loss and completions
        # into one canonical metrics snapshot (labelled by station name).
        registry = metrics if metrics is not None else _obs_context.current_registry()
        registry.collect("station_queue_drops_total", self, "dropped", station=name)
        registry.collect("station_completed_total", self, "completed", station=name)

    @property
    def queue_depth(self) -> int:
        """Items currently waiting (not including the one in service)."""
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving (≤ 1)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def submit(self, item: Any) -> bool:
        """Offer ``item``; returns False (and drops) when the queue is full."""
        if self.queue_limit is not None and len(self._queue) >= self.queue_limit:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(item)
            return False
        self.accepted += 1
        self._queue.append(item)
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        item = self._queue.popleft()
        service_time = 1.0 / self.rate
        self._service_started = self.scheduler.now
        self.scheduler.schedule(service_time, self._finish, item)

    def _finish(self, item: Any) -> None:
        self.completed += 1
        if self._service_started is not None:
            self.busy_time += self.scheduler.now - self._service_started
            self._service_started = None
        # Serve the next item before running the completion callback so a
        # callback that re-submits work cannot starve the queue ordering.
        self._start_next()
        self.on_complete(item)

    def __repr__(self) -> str:
        return (
            f"<ServiceStation {self.name} rate={self.rate:g}/s "
            f"queued={len(self._queue)} done={self.completed} dropped={self.dropped}>"
        )
