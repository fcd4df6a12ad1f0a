"""A6 — failover transient: authority switch death under live traffic.

Paper §4.3: partitions are replicated, and the partition rules at every
ingress switch list the backups, so when a primary authority switch dies
the ingress switches fail over **in the data plane**.  The alternative —
no replication, controller-driven recovery — loses every redirected
packet between the failure and the controller's repair.

This experiment runs steady traffic (cache disabled, so every packet
takes the authority path), kills the primary mid-run, and measures the
delivered-rate timeline and packet loss for both designs:

* ``replicated``: replication=2, pure data-plane failover, the controller
  is never involved;
* ``controller-repair``: replication=1; the controller is handed the
  failure at ``failure_time + detection_delay_s`` and re-points
  partitions to a surviving switch.

Heartbeat detection, where the delay is emergent, is measured by the
chaos soaks (C1, C2-STATIC).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional

from repro.analysis.series import Series
from repro.analysis.timeline import OutcomeTimeline
from repro.core.controller import DifaneNetwork
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
from repro.net.failures import FailureInjector
from repro.net.topology import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import TimedPacket

__all__ = ["run_failover_transient"]

LAYOUT = FIVE_TUPLE_LAYOUT


def _run_one(
    replication: int,
    detection_delay_s: Optional[float],
    rate: float,
    duration: float,
    failure_time: float,
    seed: int,
    bin_width_s: float,
):
    """One run; returns the network facade, read by an OutcomeTimeline."""
    topo = TopologyBuilder.star(4, hosts_per_leaf=1)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=seed)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_switches=["s0", "s1"],
        replication=replication,
        partitions_per_authority=2,
        cache_capacity=0,
        redirect_rate=None,
    )
    dn.network.read_outcomes_with(OutcomeTimeline(bin_width_s))
    FailureInjector(dn.network).fail_switch_at(failure_time, "s0")
    if detection_delay_s is not None:
        dn.network.scheduler.schedule_at(
            failure_time + detection_delay_s,
            dn.controller.handle_authority_failure,
            "s0",
        )

    hosts = [h for h in sorted(host_ips) if topo.host_attachment(h) not in ("s0",)]
    count = int(rate * duration)

    def offered() -> Iterator[TimedPacket]:
        rng = random.Random(seed + 1)
        for index in range(count):
            src = hosts[index % len(hosts)]
            dst = rng.choice([h for h in hosts if h != src])
            packet = Packet.from_fields(
                LAYOUT, flow_id=index,
                nw_src=rng.getrandbits(32), nw_dst=host_ips[dst], nw_proto=6,
                tp_src=rng.randint(1024, 65535), tp_dst=80,
            )
            yield TimedPacket(index / rate, src, packet)

    dn.send_all(offered(), count)
    dn.run()
    return dn


def run_failover_transient(
    rate: float = 5_000.0,
    duration: float = 0.4,
    failure_time: float = 0.2,
    detection_delay_s: float = 0.05,
    bin_width_s: float = 0.02,
    seed: int = 47,
) -> ExperimentResult:
    """Compare data-plane failover against controller-driven repair."""
    replicated, repaired = (
        _run_one(replication, delay, rate, duration, failure_time, seed, bin_width_s)
        for replication, delay in ((2, None), (1, detection_delay_s))
    )

    series: List[Series] = []
    rows = []
    for label, dn in (("data-plane failover", replicated),
                      ("controller repair", repaired)):
        outcomes = dn.network.deliveries
        series.append(outcomes.series(label))
        failovers = sum(s.failovers for s in dn.switches())
        rows.append([
            label,
            outcomes.delivered,
            outcomes.dropped,
            failovers,
            dn.controller.control_messages,
        ])

    result = ExperimentResult(
        name="A6-failover-transient",
        title="Authority failure under load: data-plane failover vs controller repair",
        series=series,
        table_headers=["design", "delivered", "dropped",
                       "data-plane failovers", "control msgs"],
        table_rows=rows,
    )
    result.notes = {
        "rate": rate,
        "failure_time": failure_time,
        "detection_delay_s": detection_delay_s,
        "replicated_drops": int(rows[0][2]),
        "repair_drops": int(rows[1][2]),
    }
    return result
