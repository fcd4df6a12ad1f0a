"""Unit tests for the event scheduler and service stations."""

import functools
import itertools
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import EventScheduler, ServiceStation
from repro.net import events
from repro.net.events import LANE_BLOCK
from repro.net.links import Link, LinkSpec
from repro.obs.profile import Profiler, STAGE_HISTOGRAM
from repro.obs.registry import MetricsRegistry


class TestScheduler:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(0.3, fired.append, "c")
        sched.schedule(0.1, fired.append, "a")
        sched.schedule(0.2, fired.append, "b")
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_schedule_order(self):
        sched = EventScheduler()
        fired = []
        for name in "abc":
            sched.schedule(1.0, fired.append, name)
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(0.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [0.5]
        assert sched.now == 0.5

    def test_run_until_stops_early(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, fired.append, "early")
        sched.schedule(5.0, fired.append, "late")
        sched.run(until=2.0)
        assert fired == ["early"]
        assert sched.now == 2.0  # clock advances to the horizon
        sched.run()
        assert fired == ["early", "late"]

    def test_cancel(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, fired.append, "x")
        handle.cancel()
        sched.run()
        assert fired == []
        assert sched.pending() == 0

    def test_schedule_during_run(self):
        sched = EventScheduler()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                sched.schedule(0.1, chain, n + 1)

        sched.schedule(0.0, chain, 0)
        sched.run()
        assert fired == [0, 1, 2, 3]

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(0.5, lambda: None)

    def test_max_events_guard(self):
        sched = EventScheduler()

        def forever():
            sched.schedule(0.1, forever)

        sched.schedule(0.0, forever)
        fired = sched.run(max_events=10)
        assert fired == 10

    def test_max_events_stop_does_not_jump_the_clock_past_pending_events(self):
        """run(until, max_events) used to leave now == until with events
        still pending before it: the next schedule_at was "in the past"
        and the next run() moved the clock backwards."""
        sched = EventScheduler()
        seen = []
        sched.schedule(2.0, lambda: seen.append(sched.now))
        sched.schedule(3.0, lambda: seen.append(sched.now))
        assert sched.run(until=10.0, max_events=1) == 1
        assert sched.now == 2.0
        sched.schedule_at(2.5, lambda: seen.append(sched.now))
        sched.run(until=10.0)
        assert seen == [2.0, 2.5, 3.0]
        assert sched.now == 10.0  # drained: now the horizon is reached

    def test_cancelled_events_do_not_hold_the_clock_back(self):
        sched = EventScheduler()
        sched.schedule(2.0, lambda: None)
        sched.schedule(3.0, lambda: None).cancel()
        sched.schedule(20.0, lambda: None)
        sched.run(until=10.0, max_events=1)
        assert sched.now == 10.0
        assert sched.pending() == 1

    @pytest.mark.parametrize("entry", ["schedule", "schedule_at"])
    def test_nan_time_rejected(self, entry):
        """NaN passed ``delay < 0``, fired first and set now = nan."""
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            getattr(sched, entry)(float("nan"), lambda: None)
        assert sched.pending() == 1
        sched.run()
        assert sched.now == 1.0

    def test_same_time_events_never_compare_their_arguments(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda arg: fired.append(arg), {"a": 1})
        sched.schedule(1.0, lambda arg: fired.append(arg), {"b": 2})
        sched.schedule_at(1.0, fired.append, object)
        sched.run()
        assert fired == [{"a": 1}, {"b": 2}, object]

    def test_handle_exposes_the_event_read_only(self):
        sched = EventScheduler()
        handle = sched.schedule(0.5, print, "x", 2)
        assert (handle.time, handle.sequence) == (0.5, 0)
        assert (handle.callback, handle.args) == (print, ("x", 2))
        assert not handle.cancelled
        with pytest.raises(AttributeError):
            handle.time = 0.0
        handle.cancel()
        assert handle.cancelled

    def test_profiled_run_records_a_stage_per_callback(self):
        registry = MetricsRegistry()
        sched = EventScheduler(profiler=Profiler(registry=registry, enabled=True))
        fired = []
        sched.schedule(0.1, fired.append, "bound")
        sched.schedule(0.2, functools.partial(fired.append, "partial"))
        sched.schedule(0.3, fired.append, "cancelled").cancel()
        assert sched.run() == 2
        assert fired == ["bound", "partial"]
        assert registry.value(STAGE_HISTOGRAM, stage="callback:list.append")["count"] == 1
        assert registry.value(STAGE_HISTOGRAM, stage="callback:partial")["count"] == 1

    def test_profiled_lane_entry_is_named_after_its_callback(self):
        registry = MetricsRegistry()
        sched = EventScheduler(profiler=Profiler(registry=registry, enabled=True))
        fired = []
        sched.schedule_in_order(0.1, fired.append, "a")
        sched.schedule_in_order(0.2, fired.append, "b")
        assert sched.run() == 2
        assert fired == ["a", "b"]
        assert registry.value(STAGE_HISTOGRAM, stage="callback:list.append")["count"] == 2


class TestInOrderLane:
    def test_entries_fire_in_order_and_count(self):
        sched = EventScheduler()
        fired = []
        for index in range(5):
            assert sched.schedule_in_order(index * 0.5, fired.append, index) is None
        assert sched.pending() == 5
        assert len(sched._heap) == 1  # only the lane's head
        assert sched.run(max_events=2) == 2
        assert (fired, sched.pending()) == ([0, 1], 3)
        assert sched.run() == 3
        assert fired == [0, 1, 2, 3, 4]
        assert sched.events_processed == 5

    def test_out_of_order_entry_takes_the_heap(self):
        sched = EventScheduler()
        fired = []
        sched.schedule_in_order(1.0, fired.append, "late")
        sched.schedule_in_order(2.0, fired.append, "later")
        sched.schedule_in_order(0.5, fired.append, "early")
        sched.run()
        assert fired == ["early", "late", "later"]

    def test_lane_entry_keeps_its_sequence_against_a_later_tie(self):
        """The entry waiting in the lane was scheduled before the
        ``schedule_at`` at the same float time, so it fires first (C2's
        ``sample_degraded`` ties with offered packets)."""
        sched = EventScheduler()
        fired = []
        sched.schedule_in_order(1.0, fired.append, "head")
        sched.schedule_in_order(2.0, fired.append, "lane")
        sched.schedule_at(2.0, fired.append, "later")
        sched.run()
        assert fired == ["head", "lane", "later"]

    def test_past_and_nan_times_rejected(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        sched.run()
        for when in (0.5, float("nan")):
            with pytest.raises(ValueError):
                sched.schedule_in_order(when, lambda: None)
        assert sched.pending() == 0


def stream(times):
    """``(time, args)`` stream entries whose one argument is their index."""
    return ((when, (index,)) for index, when in enumerate(times))


class TestLaneStream:
    def test_stream_fires_like_entries_scheduled_up_front(self):
        times = [index // 3 * 0.25 for index in range(3 * LANE_BLOCK)]
        upfront, lazy = EventScheduler(), EventScheduler()
        fired_upfront, fired_lazy = [], []
        for index, when in enumerate(times):
            upfront.schedule_in_order(when, fired_upfront.append, index)
        lazy.stream_in_order(fired_lazy.append, stream(times), len(times))
        for sched, fired in ((upfront, fired_upfront), (lazy, fired_lazy)):
            sched.schedule_at(0.25, fired.append, "tie")
            sched.run(until=10.0)
            sched.schedule_in_order(100.0, fired.append, "after")
            sched.run()
        assert fired_lazy == fired_upfront
        assert fired_lazy[-1] == "after" and len(fired_lazy) == len(times) + 2

    def test_pulled_entry_keeps_the_sequence_it_took_at_open(self):
        """Every entry was offered before the ``schedule_at`` at the same
        time, so all fire first, including those pulled after it."""
        sched = EventScheduler()
        fired = []
        count = 2 * LANE_BLOCK + 1
        sched.stream_in_order(fired.append, stream([1.0] * count), count)
        sched.schedule_at(1.0, fired.append, "later")
        sched.run()
        assert fired == list(range(count)) + ["later"]

    def test_pending_counts_unpulled_entries(self):
        sched = EventScheduler()
        fired = []
        count = 3 * LANE_BLOCK
        sched.stream_in_order(fired.append, stream(range(count)), count)
        assert len(sched._lane) < LANE_BLOCK  # only one block pulled
        assert sched.pending() == count
        sched.run(max_events=LANE_BLOCK + 5)
        assert sched.pending() == count - LANE_BLOCK - 5
        sched.run()
        assert (len(fired), sched.pending()) == (count, 0)

    def test_decreasing_time_raises(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.stream_in_order(print, stream([1.0, 0.5]), 2)
        late = EventScheduler()
        times = [1.0] * LANE_BLOCK + [0.5]
        late.stream_in_order(lambda index: None, stream(times), len(times))
        with pytest.raises(ValueError):
            late.run()

    def test_in_order_entry_during_a_stream_takes_the_heap(self):
        """An entry scheduled while the stream is open fires at its time,
        not behind the stream's unpulled entries."""
        sched = EventScheduler()
        fired = []
        count = 2 * LANE_BLOCK
        sched.stream_in_order(fired.append, stream(range(count)), count)
        # After the pulled block's tail, before the unpulled entries.
        sched.schedule_in_order(LANE_BLOCK + 0.5, fired.append, "between")
        assert len(sched._heap) == 2  # the lane's head and the new entry
        sched.run()
        assert fired.index("between") == LANE_BLOCK + 1 and len(fired) == count + 1

    def test_stream_longer_than_its_count_and_second_stream_raise(self):
        with pytest.raises(ValueError):
            EventScheduler().stream_in_order(print, stream([0.0, 1.0, 2.0]), 2)
        sched = EventScheduler()
        count = LANE_BLOCK + 1  # one entry is still unpulled
        sched.stream_in_order(print, stream(range(count)), count)
        with pytest.raises(ValueError):
            sched.stream_in_order(print, stream([3.0]), 1)


class Deliveries:
    """Link-style pushes onto a scheduler: ``push(delay, *args)`` sends a
    packet over a lossless link whose delay is exactly ``delay``, so
    ``Link.send`` puts a handle-less entry on the heap (or joins the open
    one) and ``deliver(*args)`` fires on arrival."""

    def __init__(self, sched, deliver):
        self.sched, self.links = sched, {}
        self.deliver = lambda packet: deliver(*packet.args)

    def push(self, delay, *args):
        link = self.links.get(delay)
        if link is None:
            spec = LinkSpec(propagation_s=delay, bandwidth_bps=float("inf"))
            link = self.links[delay] = Link("a", "b", spec, self.sched, self.deliver)
        link.send(SimpleNamespace(size_bytes=0, args=args))


class TestJoinedDeliveries:
    """Equal-time link deliveries share one heap entry; each regression
    below fails when the guard it names is taken out."""

    def test_equal_time_deliveries_share_one_entry_and_keep_their_order(self):
        sched = EventScheduler()
        fired = []
        links = Deliveries(sched, fired.append)
        for name in "abc":
            links.push(1.0, name)
        links.push(2.0, "d")
        assert len(sched._heap) == 2
        assert sched.run() == 4 and sched.events_processed == 4
        assert fired == ["a", "b", "c", "d"]

    def test_max_events_stops_inside_a_joined_entry(self):
        """The members not fired go back under the entry's (time, sequence)."""
        sched = EventScheduler()
        fired = []
        links = Deliveries(sched, fired.append)
        for index in range(4):
            links.push(1.0, index)
        assert sched.run(max_events=2) == 2
        assert (fired, sched.now, sched.pending()) == ([0, 1], 1.0, 2)
        sched.schedule_at(1.0, fired.append, "later")
        assert sched.run() == 3
        assert fired == [0, 1, 2, 3, "later"]
        assert sched.events_processed == 5

    def test_a_raising_member_leaves_the_rest_pending(self):
        sched = EventScheduler()
        fired = []

        def deliver(name):
            if name == "boom":
                raise RuntimeError(name)
            fired.append(name)

        links = Deliveries(sched, deliver)
        for name in ("a", "boom", "c", "d"):
            links.push(1.0, name)
        with pytest.raises(RuntimeError):
            sched.run()
        assert (fired, sched.pending()) == (["a"], 2)
        sched.run()
        assert fired == ["a", "c", "d"]

    def test_pending_counts_each_member(self):
        sched = EventScheduler()
        links = Deliveries(sched, lambda name: None)
        for name in "abc":
            links.push(0.5, name)
        assert len(sched._heap) == 1
        assert sched.pending() == 3

    def test_a_zero_delay_push_at_the_instant_an_entry_fired_does_not_join_it(self):
        """The fired entry is off the heap but still the one pushed last;
        a delivery joining it would never fire."""
        sched = EventScheduler()
        fired = []

        def deliver(name):
            fired.append(name)
            if name == "first":
                links.push(0.0, "same instant")

        links = Deliveries(sched, deliver)
        links.push(1.0, "first")
        assert sched.run() == 2
        assert fired == ["first", "same instant"]

    def test_an_equal_time_push_after_a_run_until_clean_up_is_not_lost(self):
        """``run(until)`` pops cancelled entries off the heap's top.  Only a
        handle-less link entry may be joined, so a delivery never joins a
        cancelled ``schedule`` entry that clean-up threw away."""
        sched = EventScheduler()
        fired = []
        links = Deliveries(sched, fired.append)
        sched.schedule(1.0, fired.append, "cancelled").cancel()
        sched.run(until=0.5)
        assert sched._heap == []
        links.push(0.5, "delivered")
        assert sched.run() == 1
        assert fired == ["delivered"]

    @pytest.mark.parametrize(
        "insert", ["schedule", "schedule_at", "schedule_in_order", "stream_in_order"]
    )
    def test_a_delivery_never_joins_across_another_insertion(self, insert):
        """Any insertion between two equal-time deliveries takes a sequence
        number between theirs, so it must fire between them.  The lane's
        head keeps a ``schedule_in_order`` entry in the deque and a stream
        unpulled, off the heap."""
        sched = EventScheduler()
        fired = []
        links = Deliveries(sched, fired.append)
        sched.schedule_in_order(0.5, fired.append, "lane head")
        links.push(1.0, "before")
        if insert == "schedule":
            sched.schedule(1.0, fired.append, insert)
        elif insert == "stream_in_order":
            sched.stream_in_order(fired.append, [(1.0, (insert,))], 1)
        else:
            getattr(sched, insert)(1.0, fired.append, insert)
        links.push(1.0, "after")
        sched.run()
        assert fired == ["lane head", "before", insert, "after"]

    def test_profiled_members_are_named_after_their_own_callbacks(self):
        registry = MetricsRegistry()
        sched = EventScheduler(profiler=Profiler(registry=registry, enabled=True))
        fired = []

        def arrive_here(packet):
            fired.append(packet.args)

        def arrive_there(packet):
            fired.append(packet.args)

        spec = LinkSpec(propagation_s=1.0, bandwidth_bps=float("inf"))
        here = Link("a", "b", spec, sched, arrive_here)
        there = Link("a", "c", spec, sched, arrive_there)
        for link in (here, there, here):
            link.send(SimpleNamespace(size_bytes=0, args=link.destination))
        assert len(sched._heap) == 1
        assert sched.run() == 3
        assert fired == ["b", "c", "b"]
        stage = "callback:TestJoinedDeliveries.test_profiled_members_are_named_after_" \
            "their_own_callbacks.<locals>.arrive_"
        assert registry.value(STAGE_HISTOGRAM, stage=stage + "here")["count"] == 2
        assert registry.value(STAGE_HISTOGRAM, stage=stage + "there")["count"] == 1

    def test_a_negative_link_delay_is_rejected(self):
        spec = LinkSpec(propagation_s=-1.0)
        link = Link("a", "b", spec, EventScheduler(), print)
        with pytest.raises(ValueError):
            link.send(SimpleNamespace(size_bytes=0))


# -- the scheduler contract, against a reference model ------------------------

class ReferenceScheduler:
    """The contract, restated without a heap: events fire in a stable sort
    by ``(time, scheduling order)``; ``order`` is allocated when the event
    is scheduled, which for a spawned event is when its parent fires.  A
    link delivery is an event like any other: joining equal-time
    deliveries must not show."""

    def __init__(self):
        self.now = 0.0
        self.events = []  # every event ever scheduled, in scheduling order
        self.log = []     # (order, time it fired at)
        self.processed = 0

    def add(self, time, spawn_delay=None, cancel_target=None,
            lane=False, spawn_lane=False, stream=None, link=False, spawn_link=False):
        self.events.append(SimpleNamespace(
            time=time, order=len(self.events), live=True,
            spawn_delay=spawn_delay, cancel_target=cancel_target,
            lane=lane, spawn_lane=spawn_lane, stream=stream,
            link=link, spawn_link=spawn_link,
        ))

    def add_stream(self, gaps):
        """A lazily fed stream is its entries scheduled in order at once:
        their orders are allocated when it opens.  They start at the
        later of now and the last in-order entry's time."""
        for when in stream_times(self.now, self.events, gaps):
            self.add(when, lane=True)

    def handled(self):
        """The events that have a handle; lane entries and link deliveries
        have none."""
        return [event for event in self.events if not (event.lane or event.link)]

    def cancel(self, index):
        """Cancel the ``index``-th event that has a handle (modulo their
        number)."""
        handled = self.handled()
        if handled:
            handled[index % len(handled)].live = False

    def live(self):
        return [event for event in self.events if event.live]

    def run(self, until=None, max_events=None):
        fired = 0
        while max_events is None or fired < max_events:
            live = self.live()
            if not live:
                break
            event = min(live, key=lambda event: (event.time, event.order))
            if until is not None and event.time > until:
                break
            event.live = False
            self.now = event.time
            self.log.append((event.order, self.now))
            fired += 1
            if event.spawn_delay is not None:
                self.add(self.now + event.spawn_delay, lane=event.spawn_lane,
                         link=event.spawn_link)
            if event.cancel_target is not None:
                self.cancel(event.cancel_target)
            if event.stream is not None:
                self.add_stream(event.stream)
        self.processed += fired
        if until is not None and self.now < until and not any(
            event.time <= until for event in self.live()
        ):
            self.now = until
        return fired


# Quarter-second grid: float sums are exact and equal-time ties are common.
TICKS = st.integers(0, 8).map(lambda n: n / 4.0)
MAYBE_TICKS = st.one_of(st.none(), TICKS)
INDEX = st.integers(0, 63)
#: A callback's follow-up: ``(delay, kind)``, scheduled when it fires.
SPAWN = st.one_of(st.none(), st.tuples(TICKS, st.sampled_from(["schedule", "link"])))
SCHEDULER_OPS = st.lists(
    st.one_of(
        # "link" is a handle-less Link.send delivery: a delay-0 one, one at
        # the instant of the delivery pushed last (a join), or neither.
        st.tuples(st.sampled_from(["schedule", "schedule_at", "link"]),
                  TICKS, SPAWN, st.one_of(st.none(), INDEX)),
        # Several insertions at one instant, M1's burst shape: joins, and
        # insertions between two deliveries that must not be joined across.
        st.tuples(st.just("burst"), TICKS,
                  st.lists(st.sampled_from(["schedule", "schedule_at", "link"]),
                           min_size=2, max_size=6)),
        st.tuples(st.just("cancel"), INDEX),
        st.tuples(st.just("run"), MAYBE_TICKS, st.one_of(st.none(), st.integers(0, 4))),
    ),
    min_size=12,  # hypothesis favours short lists; interleavings need length
    max_size=60,
)

#: Examples per contract property: the larger of 120 and the loaded
#: profile's budget, so CI's derandomized ``scheduler-contract`` profile
#: (tests/conftest.py) can raise it.
CONTRACT_EXAMPLES = max(120, settings().max_examples)


@settings(max_examples=CONTRACT_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=SCHEDULER_OPS)
def test_scheduler_fires_in_reference_order(ops):
    """Random interleavings of schedule / schedule_at / link deliveries /
    cancel / run(until) / run(max_events), with callbacks that schedule,
    send and cancel from inside the loop."""
    sched, model = EventScheduler(), ReferenceScheduler()
    handles, log, scheduled = [], [], [0]

    def place(entry, delay, spawn, cancel_target):
        args = (scheduled[0], spawn, cancel_target)
        scheduled[0] += 1
        if entry == "link":
            links.push(delay, *args)
        elif entry == "schedule":
            handles.append(sched.schedule(delay, fire, *args))
        else:
            handles.append(sched.schedule_at(sched.now + delay, fire, *args))

    def fire(order, spawn, cancel_target):
        log.append((order, sched.now))
        if spawn is not None:
            place(spawn[1], spawn[0], None, None)
        if cancel_target is not None and handles:
            handles[cancel_target % len(handles)].cancel()

    links = Deliveries(sched, fire)
    for op in ops:
        before = sched.now
        if op[0] == "cancel":
            if handles:
                handles[op[1] % len(handles)].cancel()
            model.cancel(op[1])
        elif op[0] == "run":
            until = None if op[1] is None else sched.now + op[1]
            assert sched.run(until=until, max_events=op[2]) == model.run(until, op[2])
        elif op[0] == "burst":
            for entry in op[2]:
                place(entry, op[1], None, None)
                model.add(model.now + op[1], link=entry == "link")
        else:
            entry, tick, spawn, cancel_target = op
            place(entry, tick, spawn, cancel_target)
            model.add(
                model.now + tick, None if spawn is None else spawn[0], cancel_target,
                link=entry == "link", spawn_link=spawn is not None and spawn[1] == "link",
            )
        assert log == model.log
        assert before <= sched.now == model.now
        assert sched.pending() == len(model.live())
        assert sched.events_processed == model.processed
        assert [(h.time, h.sequence) for h in handles] == [
            (event.time, event.order) for event in model.handled()
        ]


def stream_times(now, lane_events, gaps):
    """Stream entry times: ``gaps`` accumulated from the later of ``now``
    and the latest in-order entry, so the stream never starts before the
    lane's tail."""
    base = max([now] + [event.time for event in lane_events if event.lane])
    return [base + offset for offset in itertools.accumulate(gaps)]


LANE_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["schedule", "schedule_at", "schedule_in_order", "link"]),
                  TICKS, st.one_of(st.none(), st.tuples(
                      TICKS, st.sampled_from(["schedule", "schedule_in_order", "link"]))),
                  st.one_of(st.none(), INDEX)),
        st.tuples(st.just("burst"), TICKS, st.lists(
            st.sampled_from(["schedule", "schedule_at", "schedule_in_order", "link"]),
            min_size=2, max_size=6)),
        st.tuples(st.just("cancel"), INDEX),
        st.tuples(st.just("run"), MAYBE_TICKS, st.one_of(st.none(), st.integers(0, 4))),
        # A stream of gaps (0 makes equal-time ties), opened now or, with
        # a tick, by a heap event that fires during a run.
        st.tuples(st.just("stream"), st.lists(st.integers(0, 2).map(lambda n: n / 4.0),
                                              max_size=12), MAYBE_TICKS),
    ),
    min_size=12,
    max_size=60,
)


@settings(max_examples=CONTRACT_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=LANE_OPS, block=st.sampled_from([1, 2, 3, LANE_BLOCK]))
def test_in_order_lane_fires_in_reference_order(ops, block):
    """The in-order lane, in and out of order and from inside callbacks,
    and one lazily fed stream pulled ``block`` entries at a time, opened
    before or during a run, interleaved with schedule / schedule_at / link
    deliveries / cancel / run(until) / run(max_events): the same contract as the heap
    alone, with every stream entry where ``schedule_in_order`` up front
    would have put it."""
    sched, model = EventScheduler(), ReferenceScheduler()
    handles, log, scheduled = [], [], [0]
    in_order = []  # (time, lane) per entry this side placed, as model.events
    streams = []

    def place(entry, when, spawn, cancel_target, opener=None):
        args = (scheduled[0], spawn, cancel_target)
        scheduled[0] += 1
        in_order.append(SimpleNamespace(time=when, lane=entry == "schedule_in_order"))
        if opener is not None:
            handles.append(sched.schedule_at(when, open_stream, args[0], opener))
        elif entry == "schedule_in_order":
            assert sched.schedule_in_order(when, fire, *args) is None
        elif entry == "link":
            links.push(when - sched.now, *args)
        elif entry == "schedule":
            handles.append(sched.schedule(when - sched.now, fire, *args))
        else:
            handles.append(sched.schedule_at(when, fire, *args))

    def open_stream(order, gaps):
        if order is not None:
            log.append((order, sched.now))
        times = stream_times(sched.now, in_order, gaps)
        first = scheduled[0]
        scheduled[0] += len(times)
        in_order.extend(SimpleNamespace(time=when, lane=True) for when in times)
        sched.stream_in_order(
            fire, ((when, (first + i, None, None)) for i, when in enumerate(times)),
            len(times),
        )

    def fire(order, spawn, cancel_target):
        log.append((order, sched.now))
        if spawn is not None:
            delay, entry = spawn
            place(entry, sched.now + delay, None, None)
        if cancel_target is not None and handles:
            handles[cancel_target % len(handles)].cancel()

    links = Deliveries(sched, fire)
    with mock.patch.object(events, "LANE_BLOCK", block):
        for op in ops:
            before = sched.now
            if op[0] == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
                model.cancel(op[1])
            elif op[0] == "run":
                until = None if op[1] is None else sched.now + op[1]
                assert sched.run(until=until, max_events=op[2]) == model.run(until, op[2])
            elif op[0] == "stream":
                if streams:  # one stream an example: a second could overlap
                    continue
                streams.append(op)
                _, gaps, tick = op
                if tick is None:
                    open_stream(None, gaps)
                    model.add_stream(gaps)
                else:
                    place("schedule_at", sched.now + tick, None, None, opener=gaps)
                    model.add(model.now + tick, stream=gaps)
            elif op[0] == "burst":
                for entry in op[2]:
                    place(entry, sched.now + op[1], None, None)
                    model.add(model.now + op[1], lane=entry == "schedule_in_order",
                              link=entry == "link")
            else:
                entry, tick, spawn, cancel_target = op
                place(entry, sched.now + tick, spawn, cancel_target)
                model.add(
                    model.now + tick, None if spawn is None else spawn[0], cancel_target,
                    lane=entry == "schedule_in_order", link=entry == "link",
                    spawn_lane=spawn is not None and spawn[1] == "schedule_in_order",
                    spawn_link=spawn is not None and spawn[1] == "link",
                )
            assert log == model.log
            assert before <= sched.now == model.now
            assert sched.pending() == len(model.live())
            assert sched.events_processed == model.processed
            assert [(h.time, h.sequence) for h in handles] == [
                (event.time, event.order) for event in model.handled()
            ]


class TestServiceStation:
    def test_serves_at_rate(self):
        sched = EventScheduler()
        done = []
        station = ServiceStation(sched, rate=10.0, on_complete=lambda i: done.append(sched.now))
        for _ in range(3):
            station.submit("job")
        sched.run()
        assert done == pytest.approx([0.1, 0.2, 0.3])
        assert station.completed == 3

    def test_queue_limit_drops(self):
        sched = EventScheduler()
        dropped = []
        station = ServiceStation(
            sched, rate=1.0, on_complete=lambda i: None,
            queue_limit=2, on_drop=dropped.append,
        )
        accepted = [station.submit(i) for i in range(5)]
        # First job goes straight into service; 2 queue; rest drop.
        assert accepted == [True, True, True, False, False]
        assert dropped == [3, 4]
        sched.run()
        assert station.completed == 3
        assert station.dropped == 2

    def test_arrivals_during_service(self):
        sched = EventScheduler()
        done = []
        station = ServiceStation(sched, rate=2.0, on_complete=done.append)
        sched.schedule(0.0, station.submit, "a")
        sched.schedule(0.1, station.submit, "b")
        sched.run()
        assert done == ["a", "b"]
        assert sched.now == pytest.approx(1.0)

    def test_utilization(self):
        sched = EventScheduler()
        station = ServiceStation(sched, rate=10.0, on_complete=lambda i: None)
        station.submit("x")
        sched.run()
        assert station.utilization(1.0) == pytest.approx(0.1)
        assert station.utilization(0.0) == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ServiceStation(EventScheduler(), rate=0.0, on_complete=lambda i: None)

    def test_saturation_throughput_equals_rate(self):
        """Offered load 2× capacity: completions track the service rate."""
        sched = EventScheduler()
        done = []
        station = ServiceStation(
            sched, rate=100.0, on_complete=lambda i: done.append(sched.now),
            queue_limit=5,
        )
        # Offer 200/s for 1 simulated second.
        for i in range(200):
            sched.schedule(i / 200.0, station.submit, i)
        sched.run()
        span = done[-1] - done[0]
        measured_rate = (len(done) - 1) / span
        assert measured_rate == pytest.approx(100.0, rel=0.05)
        assert station.dropped > 0
