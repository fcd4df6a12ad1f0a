"""Regression: controller-overload drops must be attributed, not lost.

The bug: :class:`~repro.net.events.ServiceStation` counted queue drops at
a saturated NOX controller, and the drop records carried the reason
``"controller overloaded"`` — but the experiment attribution table had no
entry for that prefix, so the loss landed in *unattributed* and every
saturated NOX baseline under-reported overload loss.  The attribution
table now lives in :mod:`repro.obs.attribution` and includes the prefix;
these tests pin the whole chain: station counter → drop record → bucket →
registry label.
"""

from __future__ import annotations

import pytest

from repro.baselines.nox import NoxNetwork
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
from repro.net.topology import Topology
from repro.obs import attribute_drops, attribute_reason
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.workloads.policies import routing_policy_for_topology


def test_controller_overloaded_reason_is_attributed():
    assert attribute_reason("controller overloaded") == "overload"
    assert attribute_reason("switch overloaded") == "overload"
    assert attribute_reason("authority overloaded") == "overload"
    assert attribute_reason("something novel") == "unattributed"


@pytest.fixture
def saturated_nox():
    """A NOX deployment whose controller CPU is guaranteed to tail-drop."""
    previous = obs_context.current()
    context = fresh_run_context()
    topo = Topology()
    topo.add_switch("s0")
    topo.add_switch("s1")
    topo.add_link("s0", "s1")
    topo.add_host("hsrc", "s0")
    topo.add_host("hdst", "s1")
    rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
    nn = NoxNetwork.build(
        topo,
        rules,
        FIVE_TUPLE_LAYOUT,
        controller_rate=500.0,   # tiny CPU budget
        controller_queue=4,      # and almost no queue
        control_latency_s=1e-3,
    )
    # 200 distinct microflows in 20 ms: every packet punts, the CPU can
    # serve ~10 of them, the queue holds 4 — most punts must tail-drop.
    for index in range(200):
        packet = Packet.from_fields(
            FIVE_TUPLE_LAYOUT,
            flow_id=index,
            nw_src=0x0A000000 | index,
            nw_dst=host_ips["hdst"],
            nw_proto=6,
            tp_src=1024 + index,
            tp_dst=80,
        )
        nn.send_at(index * 1e-4, "hsrc", packet)
    nn.run(until=2.0)
    yield nn, context
    obs_context.install(previous)


def test_saturated_nox_drops_are_attributed_to_overload(saturated_nox):
    nn, _ = saturated_nox
    dropped = nn.network.dropped()
    assert nn.controller.messages_dropped > 0, "fixture failed to saturate"
    attribution = attribute_drops(dropped)
    # THE regression: before the fix these drops were "unattributed".
    assert attribution.get("unattributed", 0) == 0
    assert attribution["overload"] == nn.controller.messages_dropped
    overloaded = [r for r in dropped if r.drop_reason == "controller overloaded"]
    assert len(overloaded) == nn.controller.messages_dropped


def test_overload_counters_reconcile_across_surfaces(saturated_nox):
    """Station counter, registry label and controller stat all agree."""
    nn, context = saturated_nox
    metrics = context.metrics
    station_drops = metrics.value(
        "station_queue_drops_total", station="controller.cpu"
    )
    assert station_drops == nn.controller.messages_dropped
    assert (
        metrics.value("packets_dropped_total", reason="overload")
        == nn.controller.messages_dropped
    )


def test_throughput_summary_surfaces_overload():
    """Experiment summaries must state the overload loss, not imply it."""
    from repro.experiments.throughput import run_throughput

    # Enough flows to overflow the controller's 1024-deep CPU queue at a
    # rate far beyond its service capacity.
    result = run_throughput(rates=[1.2e6], flows_per_point=1500)
    assert result.notes["nox_overload_drops"] > 0
    assert "overload" in result.notes["nox_drop_attribution"]
    assert result.notes["nox_drop_attribution"].get("unattributed", 0) == 0
