"""Tests for the OpenFlow substrate: messages, channel, and the NOX
controller's channels and CPU queue."""

import pytest

from repro.baselines.nox import NoxController
from repro.flowspace import Drop, FIVE_TUPLE_LAYOUT, Match, Packet, Rule
from repro.net import EventScheduler, SimNetwork
from repro.net.topology import Topology
from repro.openflow import (
    ControlChannel,
    FlowMod,
    FlowModCommand,
    Heartbeat,
    PacketIn,
)

L = FIVE_TUPLE_LAYOUT


class TestMessages:
    def test_xids_unique_and_increasing(self):
        a = PacketIn(switch="s0", packet=Packet.from_fields(L))
        b = PacketIn(switch="s0", packet=Packet.from_fields(L))
        assert a.xid != b.xid
        assert b.xid > a.xid

    def test_flow_mod_defaults(self):
        message = FlowMod(switch="s0", command=FlowModCommand.DELETE)
        assert message.rule is None


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
        channel.send_to_controller(Heartbeat(switch="s0"))
        sched.run()
        channel.send_to_switch(Heartbeat(switch="s0"))
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
        first = Heartbeat(switch="s0", beat=1)
        second = Heartbeat(switch="s0", beat=2)
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


def nox_controller(**kwargs):
    """A NOX controller over a one-switch network with an empty policy,
    connected to a switch that records what the controller sends it."""
    topo = Topology()
    topo.add_switch("s0")
    network = SimNetwork(topo)
    controller = NoxController(network.scheduler, network, L, [], **kwargs)
    switch = FakeSwitch("s0")
    return network, controller, switch, controller.connect_switch(switch)


def punt():
    return PacketIn(switch="s0", packet=Packet.from_fields(L))


class TestControllerBase:
    """The controller mechanics NOX's results rest on: channels, the CPU
    queue, dispatch and overload loss."""

    def test_connect_and_dispatch(self):
        network, controller, switch, channel = nox_controller(processing_rate=1000.0)
        assert controller.channels == {"s0": channel}
        channel.send_to_controller(punt())
        network.run()
        assert controller.messages_received == 1
        assert controller.cpu.completed == 1
        assert controller.policy_misses == 1
        assert [r.drop_reason for r in network.dropped()] == ["no policy rule"]

    def test_cpu_queue_overflow(self):
        network, controller, switch, channel = nox_controller(
            processing_rate=1.0, queue_limit=1
        )
        for _ in range(5):
            channel.send_to_controller(punt())
        network.run(until=0.01)
        assert controller.messages_dropped >= 1
        assert [r.drop_reason for r in network.dropped()] == (
            ["controller overloaded"] * controller.messages_dropped
        )

    def test_default_hooks_ignore_what_they_do_not_handle(self):
        """Every message takes CPU time; a punt is classified (here: no
        policy rule, so it is dropped), any other message is ignored, and
        a CPU-queue overflow is counted.  Nothing goes back to the switch."""
        network, controller, switch, channel = nox_controller(
            processing_rate=1.0, queue_limit=2
        )
        expiry = FlowMod(switch="s0", command=FlowModCommand.DELETE,
                         rule=Rule(Match.any(L), 1, Drop()))
        # One in service, two queued, the fourth overflows the queue.
        for message in (punt(), expiry, Heartbeat(switch="s0"), punt()):
            channel.send_to_controller(message)
        network.run()
        assert controller.messages_received == 4
        assert controller.messages_dropped == 1
        assert controller.cpu.completed == 3
        assert controller.policy_misses == 1
        assert controller.flow_setups == 0
        assert [r.drop_reason for r in network.dropped()] == [
            "controller overloaded", "no policy rule",
        ]
        assert switch.received == []

    def test_cpu_utilization_probe(self):
        network, controller, switch, channel = nox_controller(processing_rate=10.0)
        channel.send_to_controller(Heartbeat(switch="s0"))
        network.run()
        assert controller.cpu.completed == 1
        assert controller.cpu.busy_time == pytest.approx(0.1)
