"""E3 — setup throughput scales with the number of authority switches.

The architectural payoff: DIFANE's miss-handling capacity is the *sum* of
its authority switches, because the flow space is partitioned across them
and misses go directly to the owning switch.  NOX's capacity is one
controller, however many switches punt to it.

Topology: a hub switch; ``k`` authority switches and ``n_ingress`` ingress
switches (each with a source host) around it; 16 destination hosts on a
far switch so that flow-space partitions — which cut on destination bits
for a routing policy — spread traffic across all k authority switches.

Offered load per point is ``1.5 × k × (per-switch capacity)``, i.e. always
50% beyond aggregate capacity, so the measured goodput *is* the capacity.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from repro.analysis.series import Series
from repro.baselines.nox import NoxNetwork
from repro.core.controller import DifaneNetwork
from repro.experiments.common import (
    CALIBRATION,
    Calibration,
    ExperimentResult,
)
from repro.experiments.throughput import span_goodput
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
from repro.net.topology import Topology
from repro.workloads.policies import routing_policy_for_topology

__all__ = ["run_scaling"]

LAYOUT = FIVE_TUPLE_LAYOUT


def _build_topology(k_authorities: int, n_ingress: int, n_dst_hosts: int) -> Topology:
    topo = Topology()
    topo.add_switch("hub")
    for index in range(k_authorities):
        name = topo.add_switch(f"auth{index}")
        topo.add_link("hub", name)
    for index in range(n_ingress):
        name = topo.add_switch(f"in{index}")
        topo.add_link("hub", name)
        topo.add_host(f"src{index}", name)
    egress = topo.add_switch("egress")
    topo.add_link("hub", egress)
    for index in range(n_dst_hosts):
        topo.add_host(f"dst{index}", egress)
    return topo


def _inject_unique_flows(facade, host_ips, n_ingress: int, count: int, rate: float, seed: int) -> None:
    """Spray ``count`` unique single-packet flows over ingresses and dsts."""
    rng = random.Random(seed)
    dst_hosts = sorted(h for h in host_ips if h.startswith("dst"))
    for index in range(count):
        src = f"src{index % n_ingress}"
        dst = rng.choice(dst_hosts)
        packet = Packet.from_fields(
            LAYOUT,
            flow_id=index,
            nw_src=0x0A000000 | index,
            nw_dst=host_ips[dst],
            nw_proto=6,
            tp_src=1024 + (index % 60000),
            tp_dst=80,
        )
        facade.send_at(index / rate, src, packet)


def _scaling_point(
    k: int,
    flows_per_point: int,
    n_ingress: int,
    scale: float,
    calibration: Calibration,
) -> tuple:
    """One sweep point: saturated goodput of both architectures at ``k``.

    Module-level and fully parameterized (seeds derive from ``k``, never
    from execution order) so the sweep runner can fan points out across
    worker processes with byte-identical results.
    """
    offered_scaled = 1.5 * k * calibration.authority_redirect_rate * scale

    topo = _build_topology(k, n_ingress, n_dst_hosts=16)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    dn = DifaneNetwork.build(
        topo,
        rules,
        LAYOUT,
        authority_switches=[f"auth{i}" for i in range(k)],
        cache_capacity=0,
        partitions_per_authority=4,
        redirect_rate=calibration.authority_redirect_rate * scale,
    )
    _inject_unique_flows(dn, host_ips, n_ingress, flows_per_point, offered_scaled, seed=k)
    dn.run()
    difane_goodput = span_goodput(dn.network.delivered(), scale)

    topo = _build_topology(k, n_ingress, n_dst_hosts=16)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    nn = NoxNetwork.build(
        topo,
        rules,
        LAYOUT,
        controller_rate=calibration.controller_rate * scale,
        controller_queue=calibration.controller_queue,
        control_latency_s=calibration.control_latency_s,
    )
    _inject_unique_flows(nn, host_ips, n_ingress, flows_per_point, offered_scaled, seed=k)
    nn.run()
    return difane_goodput, span_goodput(nn.network.delivered(), scale)


def run_scaling(
    authority_counts: Optional[Sequence[int]] = None,
    flows_per_point: int = 1500,
    n_ingress: int = 4,
    scale: float = 0.01,
    calibration: Calibration = CALIBRATION,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Measure saturated goodput as authority switches are added.

    Returns two series over ``k``: DIFANE (≈ linear in k) and NOX (flat at
    the controller's capacity however large k grows).  ``jobs`` fans the
    ``k`` points out over worker processes (output is identical to the
    serial run; see :mod:`repro.parallel.runner`).
    """
    from repro.parallel.runner import SweepRunner

    authority_counts = list(authority_counts) if authority_counts else [1, 2, 3, 4]
    difane_series = Series(
        "DIFANE", x_label="# authority switches", y_label="goodput (flows/s)"
    )
    nox_series = Series(
        "NOX", x_label="# authority switches", y_label="goodput (flows/s)"
    )

    goodputs = SweepRunner(jobs).map(
        _scaling_point,
        [
            dict(k=k, flows_per_point=flows_per_point, n_ingress=n_ingress,
                 scale=scale, calibration=calibration)
            for k in authority_counts
        ],
    )
    for k, (difane_goodput, nox_goodput) in zip(authority_counts, goodputs):
        difane_series.append(k, difane_goodput)
        nox_series.append(k, nox_goodput)

    result = ExperimentResult(
        name="E3-scaling",
        title="Flow-setup throughput vs number of authority switches",
        series=[difane_series, nox_series],
        notes={"scale": scale, "flows_per_point": flows_per_point, "n_ingress": n_ingress},
    )
    return result
