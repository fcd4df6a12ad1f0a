"""Tests for the OpenFlow substrate: messages, channel, controller base."""

import pytest

from repro.flowspace import Drop, FIVE_TUPLE_LAYOUT, Match, Packet, Rule
from repro.net import EventScheduler
from repro.openflow import (
    BarrierReply,
    BarrierRequest,
    ControlChannel,
    Controller,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    Heartbeat,
    PacketIn,
    StatsReply,
)

L = FIVE_TUPLE_LAYOUT


class TestMessages:
    def test_xids_unique_and_increasing(self):
        a = PacketIn(switch="s0", packet=Packet.from_fields(L))
        b = PacketIn(switch="s0", packet=Packet.from_fields(L))
        assert a.xid != b.xid
        assert b.xid > a.xid

    def test_flow_mod_defaults(self):
        message = FlowMod(switch="s0", command=FlowModCommand.ADD,
                          rule=Rule(Match.any(L), 1, Drop()))
        assert message.match is None


class TestChannel:
    def test_latency_each_direction(self):
        sched = EventScheduler()
        up, down = [], []
        channel = ControlChannel(
            sched, "s0",
            to_controller=lambda m: up.append(sched.now),
            to_switch=lambda m: down.append(sched.now),
            latency_s=1e-3,
        )
        message = BarrierRequest(switch="s0")
        channel.send_to_controller(message)
        sched.run()
        channel.send_to_switch(BarrierReply(switch="s0"))
        sched.run()
        assert up == [pytest.approx(1e-3)]
        assert down == [pytest.approx(2e-3)]
        assert channel.messages_up == 1
        assert channel.messages_down == 1

    def test_fifo_per_direction(self):
        sched = EventScheduler()
        order = []
        channel = ControlChannel(
            sched, "s0",
            to_controller=lambda m: order.append(m.xid),
            to_switch=lambda m: None,
        )
        first = BarrierRequest(switch="s0")
        second = BarrierRequest(switch="s0")
        channel.send_to_controller(first)
        channel.send_to_controller(second)
        sched.run()
        assert order == [first.xid, second.xid]


class FakeSwitch:
    def __init__(self, name):
        self.name = name
        self.received = []

    def receive_control(self, message):
        self.received.append(message)


class TestControllerBase:
    def test_connect_and_dispatch(self):
        sched = EventScheduler()
        seen = []

        class Probe(Controller):
            def handle_packet_in(self, message):
                seen.append(message)

        controller = Probe(sched, processing_rate=1000.0)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        channel.send_to_controller(PacketIn(switch="s0", packet=Packet.from_fields(L)))
        sched.run()
        assert len(seen) == 1
        assert controller.messages_received == 1

    def test_cpu_queue_overflow(self):
        sched = EventScheduler()
        dropped = []

        class Probe(Controller):
            def on_message_dropped(self, message):
                dropped.append(message)

        controller = Probe(sched, processing_rate=1.0, queue_limit=1)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        for _ in range(5):
            channel.send_to_controller(PacketIn(switch="s0", packet=Packet.from_fields(L)))
        sched.run(until=0.01)
        assert controller.messages_dropped >= 1
        assert len(dropped) == controller.messages_dropped

    def test_barrier_default_reply(self):
        sched = EventScheduler()
        controller = Controller(sched, processing_rate=1000.0)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        request = BarrierRequest(switch="s0")
        channel.send_to_controller(request)
        sched.run()
        assert len(switch.received) == 1
        reply = switch.received[0]
        assert isinstance(reply, BarrierReply)
        assert reply.request_xid == request.xid

    def test_stats_reply_default_ignored(self):
        sched = EventScheduler()
        controller = Controller(sched, processing_rate=1000.0)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        channel.send_to_controller(StatsReply(switch="s0"))
        sched.run()  # must not raise

    def test_default_hooks_ignore_what_they_do_not_handle(self):
        """The base controller's default hooks: a punted packet, a rule
        expiry, an unclassified message and a CPU-queue overflow are
        counted and otherwise ignored (nothing goes back to the switch)."""
        sched = EventScheduler()
        controller = Controller(sched, processing_rate=1.0, queue_limit=2)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        punt = PacketIn(switch="s0", packet=Packet.from_fields(L))
        expiry = FlowRemoved(switch="s0", rule=Rule(Match.any(L), 1, Drop()))
        # One in service, two queued, the fourth overflows the queue.
        for message in (punt, expiry, Heartbeat(switch="s0"), punt):
            channel.send_to_controller(message)
        sched.run()
        assert controller.messages_received == 4
        assert controller.messages_dropped == 1
        assert controller.cpu.completed == 3
        assert switch.received == []

    def test_cpu_utilization_probe(self):
        sched = EventScheduler()
        controller = Controller(sched, processing_rate=10.0)
        switch = FakeSwitch("s0")
        channel = controller.connect_switch(switch)
        channel.send_to_controller(BarrierRequest(switch="s0"))
        sched.run()
        assert controller.cpu.completed == 1
        assert controller.cpu.busy_time == pytest.approx(0.1)
