"""E4 — first-packet delay: data-plane detour vs controller round trip.

The paper's latency claim: a cache-miss packet in DIFANE pays one extra
*data-plane* hop through the authority switch (sub-millisecond), while in
NOX it pays a control-channel round trip plus controller queueing
(≈10 ms).  Packets after the first hit the installed rule and see plain
forwarding delay in both systems.

We run both architectures over the same three-tier campus topology and
flow workload (two packets per flow, the second after the install has
surely landed) and report the delay populations:

* ``DIFANE first`` / ``DIFANE subsequent``
* ``NOX first`` / ``NOX subsequent``

as CDX series plus summary rows.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.series import Series
from repro.analysis.stats import cdf, summarize
from repro.baselines.nox import NoxNetwork
from repro.core.controller import DifaneNetwork
from repro.experiments.common import (
    CALIBRATION,
    Calibration,
    ExperimentResult,
)
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.net.topology import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets

__all__ = ["run_delay"]

LAYOUT = FIVE_TUPLE_LAYOUT


def _delays(records) -> Dict[str, List[float]]:
    first = [r.delay for r in records if r.via_authority or r.via_controller]
    rest = [r.delay for r in records if not (r.via_authority or r.via_controller)]
    return {"first": first, "subsequent": rest}


def _cdf_series(label: str, values: List[float]) -> Series:
    series = Series(label, x_label="delay (ms)", y_label="CDF")
    for value, fraction in cdf([v * 1e3 for v in values]):
        series.append(value, fraction)
    return series


def _delay_point(
    system: str,
    flows: int,
    rate: float,
    calibration: Calibration,
    seed: int,
) -> Dict[str, List[float]]:
    """One sweep point: first/subsequent delay populations for one system.

    ``system`` is ``"difane"`` or ``"nox"``.  Module-level and seeded by
    explicit parameters so the sweep runner can run the two systems in
    separate worker processes without changing any output.
    """
    topo_args = dict(core_count=2, distribution_count=3,
                     access_per_distribution=3, hosts_per_access=2)
    # Per-hop pipeline latency calibrated to the paper's kernel prototype.
    hop_delay = 60e-6

    topo = TopologyBuilder.three_tier_campus(**topo_args)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    if system == "difane":
        facade = DifaneNetwork.build(
            topo,
            rules,
            LAYOUT,
            authority_count=2,
            cache_capacity=4096,
            redirect_rate=calibration.authority_redirect_rate,
            forwarding_delay_s=hop_delay,
        )
    elif system == "nox":
        facade = NoxNetwork.build(
            topo,
            rules,
            LAYOUT,
            controller_rate=calibration.controller_rate,
            control_latency_s=calibration.control_latency_s,
            forwarding_delay_s=hop_delay,
        )
    else:
        raise ValueError(f"unknown system {system!r}")

    # Two identical packets per flow, the second well after the install.
    timed = list(host_pair_packets(
        topo, host_ips, LAYOUT, count=flows, rate=rate, seed=seed, flow_packets=1
    ))
    late = list(host_pair_packets(
        topo, host_ips, LAYOUT, count=flows, rate=rate, seed=seed, flow_packets=1
    ))
    gap = flows / rate + 10 * calibration.control_latency_s
    for timed_packet in late:
        timed_packet.time += gap
    for timed_packet in timed + late:
        facade.send_at(timed_packet.time, timed_packet.source_host, timed_packet.packet)
    facade.run()
    return _delays(facade.network.delivered())


def run_delay(
    flows: int = 200,
    rate: float = 2_000.0,
    calibration: Calibration = CALIBRATION,
    seed: int = 7,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Measure first- and subsequent-packet delay under both architectures.

    ``rate`` is kept far below every capacity so queueing delay is
    negligible and the comparison isolates path/architecture latency.
    ``jobs`` runs the two systems in parallel worker processes with
    identical output (see :mod:`repro.parallel.runner`).
    """
    from repro.parallel.runner import SweepRunner

    difane, nox = SweepRunner(jobs).map(
        _delay_point,
        [
            dict(system=system, flows=flows, rate=rate,
                 calibration=calibration, seed=seed)
            for system in ("difane", "nox")
        ],
    )

    series = [
        _cdf_series("DIFANE first", difane["first"]),
        _cdf_series("DIFANE subsequent", difane["subsequent"]),
        _cdf_series("NOX first", nox["first"]),
        _cdf_series("NOX subsequent", nox["subsequent"]),
    ]
    rows = []
    for label, values in (
        ("DIFANE first", difane["first"]),
        ("DIFANE subsequent", difane["subsequent"]),
        ("NOX first", nox["first"]),
        ("NOX subsequent", nox["subsequent"]),
    ):
        if values:
            summary = summarize([v * 1e3 for v in values])
            rows.append([label, len(values), f"{summary.median:.3f}",
                         f"{summary.mean:.3f}", f"{summary.p99:.3f}"])
        else:
            rows.append([label, 0, "-", "-", "-"])

    return ExperimentResult(
        name="E4-delay",
        title="Packet delay (ms): DIFANE data-plane detour vs NOX controller RTT",
        series=series,
        table_headers=["population", "n", "median", "mean", "p99"],
        table_rows=rows,
        notes={
            "difane_first_median_ms": _median_ms(difane["first"]),
            "nox_first_median_ms": _median_ms(nox["first"]),
        },
    )


def _median_ms(values: List[float]) -> Optional[float]:
    if not values:
        return None
    return summarize([v * 1e3 for v in values]).median
