"""E2 — flow-setup throughput: one authority switch vs. the NOX controller.

The paper's headline microbenchmark: blast single-packet flows (every
packet a brand-new microflow, so every packet takes the miss path) through
one ingress switch and measure sustained goodput.

* **DIFANE** — misses detour through one authority switch; goodput climbs
  with offered load until it saturates at the switch's redirect capacity
  (≈800 K flows/s on the paper's prototype).
* **NOX** — misses punt to the controller; goodput saturates at the
  controller CPU (≈50 K setups/s), an order of magnitude earlier.

Topology: ``hsrc — s0 — auth — s1 — hdst`` (the authority switch sits on
the path, as in the paper's testbed, so the detour adds no extra hops and
the experiment isolates pure setup capacity).

All rates are scaled by ``scale`` (default 1/100) with time stretched
inversely — queueing dynamics are invariant under that rescaling — and
results are reported normalized back to full scale.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence

from repro.analysis.series import Series
from repro.baselines.nox import NoxNetwork
from repro.core.controller import DifaneNetwork
from repro.experiments.common import (
    CALIBRATION,
    Calibration,
    ExperimentResult,
)
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
from repro.net.topology import Topology
from repro.obs.attribution import attribute_drops
from repro.workloads.policies import routing_policy_for_topology

__all__ = ["run_throughput", "DEFAULT_RATES"]

#: Full-scale offered loads (single-packet flows per second).
DEFAULT_RATES = [25e3, 50e3, 100e3, 200e3, 400e3, 800e3, 1.2e6]

LAYOUT = FIVE_TUPLE_LAYOUT


def _build_topology() -> Topology:
    topo = Topology()
    topo.add_switch("s0")
    topo.add_switch("auth")
    topo.add_switch("s1")
    topo.add_link("s0", "auth")
    topo.add_link("auth", "s1")
    topo.add_host("hsrc", "s0")
    topo.add_host("hdst", "s1")
    return topo


def _unique_flow_packets(count: int, dst_ip: int) -> List[Packet]:
    """``count`` packets, each a distinct microflow toward ``dst_ip``."""
    packets = []
    for index in range(count):
        packets.append(
            Packet.from_fields(
                LAYOUT,
                flow_id=index,
                nw_src=(index & 0xFFFFFFFF) | 0x0A000000,
                nw_dst=dst_ip,
                nw_proto=6,
                tp_src=1024 + (index % 60000),
                tp_dst=80,
            )
        )
    return packets


def span_goodput(delivered, scale: float) -> float:
    """Full-scale goodput of ``delivered`` records (in delivery order).

    Goodput is measured over the *delivery span* (first to last successful
    delivery): under light load that equals the offered rate, under
    saturation it equals the bottleneck's service rate — robust to the
    post-window queue drain either way.
    """
    if len(delivered) < 2:
        return 0.0
    span = delivered[-1].finished_at - delivered[0].finished_at
    if span <= 0:
        return 0.0
    return (len(delivered) - 1) / span / scale


def _measure_goodput(facade, packets, rate_scaled: float, scale: float) -> float:
    """Inject ``packets`` at ``rate_scaled``; return full-scale goodput."""
    for index, packet in enumerate(packets):
        facade.send_at(index / rate_scaled, "hsrc", packet)
    facade.run()
    return span_goodput(facade.network.delivered(), scale)


def run_throughput(
    rates: Optional[Sequence[float]] = None,
    flows_per_point: int = 1500,
    scale: float = 0.01,
    calibration: Calibration = CALIBRATION,
) -> ExperimentResult:
    """Sweep offered load; return DIFANE and NOX goodput series.

    Parameters
    ----------
    rates:
        Full-scale offered loads (flows/s); defaults to
        :data:`DEFAULT_RATES`.
    flows_per_point:
        Distinct single-packet flows injected per rate point.
    scale:
        Rate scaling factor (see module docstring).
    """
    rates = list(rates) if rates is not None else list(DEFAULT_RATES)
    difane_series = Series(
        "DIFANE", x_label="offered load (flows/s)", y_label="goodput (flows/s)"
    )
    nox_series = Series(
        "NOX", x_label="offered load (flows/s)", y_label="goodput (flows/s)"
    )
    # Attributed losses across the whole sweep: saturated runs shed load
    # (queue tail drops), and the summary must say where it went rather
    # than leaving the deficit implicit in the goodput curve.
    difane_drops: Counter = Counter()
    nox_drops: Counter = Counter()

    for rate in rates:
        rate_scaled = rate * scale

        topo = _build_topology()
        rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
        dn = DifaneNetwork.build(
            topo,
            rules,
            LAYOUT,
            authority_switches=["auth"],
            cache_capacity=0,  # every flow is new: isolate the miss path
            redirect_rate=calibration.authority_redirect_rate * scale,
        )
        packets = _unique_flow_packets(flows_per_point, host_ips["hdst"])
        difane_series.append(rate, _measure_goodput(dn, packets, rate_scaled, scale))
        difane_drops.update(attribute_drops(dn.network.dropped()))

        topo = _build_topology()
        rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
        nn = NoxNetwork.build(
            topo,
            rules,
            LAYOUT,
            controller_rate=calibration.controller_rate * scale,
            controller_queue=calibration.controller_queue,
            control_latency_s=calibration.control_latency_s,
        )
        packets = _unique_flow_packets(flows_per_point, host_ips["hdst"])
        nox_series.append(rate, _measure_goodput(nn, packets, rate_scaled, scale))
        nox_drops.update(attribute_drops(nn.network.dropped()))

    result = ExperimentResult(
        name="E2-throughput",
        title="Flow-setup throughput: one authority switch vs NOX controller",
        series=[difane_series, nox_series],
        notes={
            "scale": scale,
            "flows_per_point": flows_per_point,
            "difane_capacity": calibration.authority_redirect_rate,
            "nox_capacity": calibration.controller_rate,
            "difane_drop_attribution": dict(sorted(difane_drops.items())),
            "nox_drop_attribution": dict(sorted(nox_drops.items())),
            "difane_overload_drops": int(difane_drops.get("overload", 0)),
            "nox_overload_drops": int(nox_drops.get("overload", 0)),
        },
    )
    result.notes["difane_peak"] = max(difane_series.y)
    result.notes["nox_peak"] = max(nox_series.y)
    return result
