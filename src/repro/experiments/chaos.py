"""C1/C2 — chaos soaks: steady traffic under randomized fault schedules.

The headline robustness experiment: a campus fabric carries steady
traffic while a seeded :class:`~repro.net.chaos.ChaosSchedule` kills and
repairs switches (including an authority switch), flaps links, spikes
per-link loss, and browns out the control plane.  Nothing is scripted on
the recovery side — failure detection emerges from heartbeats, failover
from replicated partition rules, degraded service from the NOX-style
packet-in fallback, and message delivery from retransmission + dedup.

What the run must demonstrate (the acceptance criteria of the chaos
layer):

* **zero invariant violations** — after every controller reconvergence
  (and at the end) every partition is owned by live authority switches
  and every ingress partition rule points at the current primary;
* **zero silent drops** — every lost packet is attributed to link loss,
  a routing black-hole, policy intent, or the degraded path; and every
  injected packet terminates (delivered or attributed) by the end of the
  drain window.

C2 (:func:`run_rebalance_soak`) is the self-healing variant: a
Zipf-skewed workload concentrates redirect load on one authority until
the imbalance detector fires and the :class:`~repro.core.shards.Rebalancer`
migrates hot partitions live; an authority kill then orphans partitions
and the same migration path re-homes them onto spare switches — much
faster than waiting out the heartbeat deadline, which is exactly the
comparison against the ``rebalance=False`` static baseline.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.analysis.series import Series
from repro.analysis.timeline import rate_timeline
from repro.core.controller import DifaneNetwork, PartitionInvariantError
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.net.chaos import ChaosSchedule, ChaosSpec
from repro.net.failures import FailureInjector
from repro.net.topology import Topology, TopologyBuilder
from repro.obs import context as _obs_context
from repro.obs.attribution import attribute_drops
from repro.openflow.channel import ChannelFaultModel
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets, zipf_host_pair_packets

__all__ = [
    "run_chaos_soak",
    "run_rebalance_soak",
    "attribute_drops",
]

LAYOUT = FIVE_TUPLE_LAYOUT


def _campus_with_loss(loss: float) -> Topology:
    """A small dual-homed campus whose switch–switch links are lossy."""
    topo = TopologyBuilder.three_tier_campus(
        core_count=2, distribution_count=2,
        access_per_distribution=2, hosts_per_access=2,
    )
    if loss > 0:
        graph = topo.graph
        for a, b, data in graph.edges(data=True):
            roles = (graph.nodes[a].get("role"), graph.nodes[b].get("role"))
            if roles == ("switch", "switch"):
                data["spec"] = dataclasses.replace(
                    data["spec"], loss_probability=loss
                )
    return topo


def run_chaos_soak(
    rate: float = 4_000.0,
    duration: float = 1.0,
    seed: int = 7,
    loss: float = 0.01,
    heartbeat_interval_s: float = 0.02,
    miss_threshold: int = 3,
    control_latency_s: float = 2e-3,
    base_channel_drop: float = 0.05,
    spec: Optional[ChaosSpec] = None,
    bin_width_s: float = 0.05,
    cache_capacity: int = 128,
    replication: int = 2,
) -> ExperimentResult:
    """Run the soak; see the module docstring for what it asserts.

    ``cache_capacity`` and ``replication`` expose the resilience knobs
    the telemetry acceptance scenarios turn: tiny caches keep redirect
    traffic flowing for the whole soak (so an authority kill shows up in
    the per-window load series), and ``replication=1`` removes the
    failover backstop (so a kill orphans partitions and the degraded
    path — and its critical finding — actually exercises).
    """
    topo = _campus_with_loss(loss)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=seed)
    authorities = ["dist0", "dist1"]
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_switches=authorities,
        replication=replication,
        partitions_per_authority=2,
        cache_capacity=cache_capacity,
        redirect_rate=None,
        loss_seed=seed,
    )
    network = dn.network
    controller = dn.controller

    # Control plane: shared fault model (brownouts throttle every session),
    # unbounded retransmission (no control message is ever abandoned),
    # heartbeat failure detection, invariant check on every reconvergence.
    fault_model = ChannelFaultModel(drop_probability=base_channel_drop, seed=seed)
    violations: List[Tuple[float, str]] = []

    def check_invariants(_switch: Optional[str] = None) -> None:
        try:
            controller.assert_all_partitions_owned()
        except PartitionInvariantError as error:
            violations.append((network.scheduler.now, str(error)))

    controller.connect_control_plane(
        latency_s=control_latency_s,
        fault_model=fault_model,
        heartbeat_interval_s=heartbeat_interval_s,
        miss_threshold=miss_threshold,
        max_retries=None,
        on_detect=check_invariants,
    )

    # The chaos schedule: kills draw from host-free switches so no traffic
    # source is ever stranded; one authority dies (and comes back) too.
    injector = FailureInjector(network)
    spec = spec or ChaosSpec(seed=seed, duration_s=duration)
    edge = set(topo.edge_switches())
    hostless = [
        name for name in topo.switches() if name not in authorities and name not in edge
    ]
    schedule = ChaosSchedule.randomized(
        network, injector, spec,
        kill_candidates=hostless,
        authority_candidates=authorities,
        fault_model=fault_model,
    )

    # Steady traffic: random host pairs, one packet per microflow.
    count = int(rate * duration)
    for timed in host_pair_packets(
        topo, host_ips, LAYOUT, count=count, rate=rate, seed=seed,
        deterministic_arrivals=True,
    ):
        dn.send_at(timed.time, timed.source_host, timed.packet)

    # Drain: everything the schedule breaks resolves by 0.9 × duration;
    # leave room for the last detections, retransmissions and repairs.
    drain = max(0.3, (miss_threshold + 2) * heartbeat_interval_s + 0.1)
    dn.run(until=duration + drain)
    check_invariants()

    delivered = network.delivered()
    dropped = network.dropped()
    attribution = attribute_drops(dropped)
    unaccounted = count - len(network.deliveries)

    detection_latencies = _detection_latencies(injector, controller)
    channel_totals = controller.control_plane_counters()
    degraded = sum(s.degraded_packets for s in dn.switches())
    failovers = sum(s.failovers for s in dn.switches())

    series: List[Series] = [
        rate_timeline(network.deliveries, bin_width_s, label="delivered/s"),
        rate_timeline(network.deliveries, bin_width_s,
                      delivered_only=False, label="offered/s"),
    ]
    # With telemetry on, the per-window authority load becomes part of
    # the result: the series the balance claim (and the imbalance
    # detector) is judged on.  An authority kill shows up as one curve
    # collapsing to zero while the survivor absorbs the redirects.
    recorder = getattr(_obs_context.current(), "telemetry", None)
    telemetry_windows = None
    if recorder is not None and recorder.enabled:
        from repro.analysis.dashboard import authority_load_series

        section = recorder.export()
        telemetry_windows = len(section["windows"])
        for load in authority_load_series(section):
            load.label = f"authority load: {load.label}"
            series.append(load)
    table_rows = [
        ["delivered", len(delivered)],
        ["dropped", len(dropped)],
    ]
    for bucket in sorted(attribution):
        table_rows.append([f"dropped: {bucket}", attribution[bucket]])
    table_rows.extend([
        ["degraded packet-ins", degraded],
        ["data-plane failovers", failovers],
        ["invariant violations", len(violations)],
        ["unaccounted packets", unaccounted],
    ])

    monitor = controller.monitor
    notes: Dict[str, object] = {
        "seed": seed,
        "rate": rate,
        "duration": duration,
        "loss": loss,
        "heartbeat_interval_s": heartbeat_interval_s,
        "miss_threshold": miss_threshold,
        "delivered": len(delivered),
        "dropped": len(dropped),
        "drop_attribution": dict(sorted(attribution.items())),
        "unattributed_drops": int(attribution.get("unattributed", 0)),
        "unaccounted_packets": int(unaccounted),
        "invariant_violations": len(violations),
        "detection_latencies_s": detection_latencies,
        "detections": len(monitor.detections),
        "false_positives": monitor.false_positives,
        "recoveries": len(monitor.recoveries),
        "degraded_packets": degraded,
        "failovers": failovers,
        "control_counters": channel_totals,
        "chaos_events": len(schedule.planned),
        "_violations": violations,
        "_planned": list(schedule.planned),
        "_applied": list(injector.events),
    }
    if telemetry_windows is not None:
        notes["telemetry_windows"] = telemetry_windows

    return ExperimentResult(
        name="C1-chaos-soak",
        title="Chaos soak: lossy links, kills, flaps and brownouts under load",
        series=series,
        table_headers=["metric", "value"],
        table_rows=table_rows,
        notes=notes,
    )


def run_rebalance_soak(
    rate: float = 4_000.0,
    duration: float = 1.0,
    seed: int = 11,
    alpha: float = 1.6,
    heartbeat_interval_s: float = 0.05,
    miss_threshold: int = 3,
    control_latency_s: float = 2e-3,
    base_channel_drop: float = 0.02,
    rebalance: bool = True,
    n_shards: int = 2,
    lease_interval_s: float = 0.02,
    rebalance_interval_s: float = 0.02,
    spare_count: int = 2,
    spec: Optional[ChaosSpec] = None,
    bin_width_s: float = 0.01,
) -> ExperimentResult:
    """C2 — self-healing soak: skew, imbalance, migration, authority kill.

    A Zipf(``alpha``) destination skew over an uncached fabric (every
    packet redirects) concentrates partition load on one authority; the
    rebalancer consumes the resulting health findings and migrates hot
    partitions until Jain fairness clears the detector threshold.  The
    chaos spec then kills one authority switch (and, with shards on, one
    controller shard): orphaned partitions heal through the same
    two-phase migration path onto spare switches, long before the static
    heartbeat deadline (``miss_threshold × heartbeat_interval_s``)
    would even *detect* the failure.

    ``rebalance=False`` is the PR 2 static baseline — same topology,
    workload and chaos plan, recovery only via heartbeat-driven
    failover — so the pair of runs pins the time-to-full-service
    improvement as a golden metric.
    """
    from repro.core.placement import choose_spare_switches
    from repro.core.shards import attach_sharded_control_plane
    from repro.obs.health import IMBALANCE_FAIRNESS_THRESHOLD

    topo = _campus_with_loss(0.0)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=seed)
    authorities = ["dist0", "dist1"]
    spares = choose_spare_switches(topo, authorities, spare_count)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_switches=authorities,
        replication=1,             # no backup replicas: a kill orphans
        partitions_per_authority=2,
        cache_capacity=0,          # every packet redirects: clean load signal
        redirect_rate=None,
        loss_seed=seed,
    )
    network = dn.network
    controller = dn.controller

    fault_model = ChannelFaultModel(drop_probability=base_channel_drop, seed=seed)
    violations: List[Tuple[float, str]] = []

    def check_invariants(_arg: Optional[object] = None) -> None:
        try:
            controller.assert_all_partitions_owned()
        except PartitionInvariantError as error:
            violations.append((network.scheduler.now, str(error)))

    controller.connect_control_plane(
        latency_s=control_latency_s,
        fault_model=fault_model,
        heartbeat_interval_s=heartbeat_interval_s,
        miss_threshold=miss_threshold,
        max_retries=None,
        on_detect=check_invariants,
    )

    def migration_settled(_migration: Optional[object] = None) -> None:
        # One heal can span several migrations (one per orphaned
        # partition, batched in a single rebalance cycle); ownership is
        # only required to be whole again once the batch settles, so
        # skip the boundary check while sibling migrations are in flight.
        if plane is not None and (
            plane.migrator.active
            or plane.pending_migrations
            or plane.pending_failovers
        ):
            return
        check_invariants()

    plane = None
    if rebalance:
        plane = attach_sharded_control_plane(
            controller,
            n_shards=n_shards,
            seed=seed,
            lease_interval_s=lease_interval_s,
            miss_threshold=miss_threshold,
            latency_s=control_latency_s,
            fault_model=fault_model,
            max_retries=None,
            spares=spares,
            rebalance=True,
            rebalance_interval_s=rebalance_interval_s,
            on_migration_complete=migration_settled,
        )

    injector = FailureInjector(network)
    spec = spec or ChaosSpec(
        seed=seed, duration_s=duration,
        switch_kills=0, authority_kills=1, link_flaps=0,
        loss_bursts=0, brownouts=0, shard_kills=1,
    )
    schedule = ChaosSchedule.randomized(
        network, injector, spec,
        kill_candidates=[],
        authority_candidates=authorities,
        fault_model=fault_model,
        shard_plane=plane,
        shard_candidates=sorted(plane.shards) if plane is not None else (),
    )

    count = int(rate * duration)
    for timed in zipf_host_pair_packets(
        topo, host_ips, LAYOUT, count=count, rate=rate, alpha=alpha,
        seed=seed, deterministic_arrivals=True,
    ):
        dn.send_at(timed.time, timed.source_host, timed.packet)

    # Sample the cumulative degraded-punt level every bin so recovery
    # time is measurable without enabling full telemetry.
    degraded_samples: List[Tuple[float, int]] = []

    def sample_degraded() -> None:
        degraded_samples.append(
            (
                round(network.scheduler.now, 9),
                sum(s.degraded_packets for s in dn.switches()),
            )
        )

    drain = max(0.3, (miss_threshold + 2) * heartbeat_interval_s + 0.1)
    total_time = duration + drain
    for index in range(1, int(total_time / bin_width_s) + 2):
        network.scheduler.schedule_at(index * bin_width_s, sample_degraded)

    dn.run(until=total_time)
    check_invariants()

    delivered = network.delivered()
    dropped = network.dropped()
    attribution = attribute_drops(dropped)
    unaccounted = count - len(network.deliveries)
    degraded = sum(s.degraded_packets for s in dn.switches())
    failovers = sum(s.failovers for s in dn.switches())
    channel_totals = controller.control_plane_counters()

    # Recovery metric: time from the authority kill until the *last*
    # degraded-path activity — with migration healing this closes in a
    # couple of rebalance cycles; statically it waits out the heartbeat
    # deadline plus failover.
    kill_times = [
        when for when, kind, target in schedule.planned
        if kind == "kill-switch" and target in authorities
    ]
    authority_kill_at = min(kill_times) if kill_times else None
    last_degraded_at = None
    previous_level = 0
    for when, level in degraded_samples:
        if level > previous_level:
            last_degraded_at = when
        previous_level = level
    if authority_kill_at is None or last_degraded_at is None:
        time_to_full_service = 0.0
    else:
        time_to_full_service = max(0.0, last_degraded_at - authority_kill_at)

    # Fairness story (rebalance mode): when did the imbalance detector
    # trip, and when did the window fairness clear the threshold again?
    fairness_series = Series(
        "window fairness", x_label="time (s)", y_label="Jain fairness"
    )
    fairness_tripped_at = None
    fairness_recovered_at = None
    final_fairness = None
    migrations_completed = migrations_aborted = 0
    hot_migrations = orphan_migrations = 0
    if plane is not None and plane.rebalancer is not None:
        for entry in plane.rebalancer.history:
            fairness_series.append(entry["time"], entry["fairness"])
            if "authority-imbalance" in entry["findings"]:
                if fairness_tripped_at is None:
                    fairness_tripped_at = entry["time"]
            elif (
                fairness_tripped_at is not None
                and fairness_recovered_at is None
                and entry["fairness"] >= IMBALANCE_FAIRNESS_THRESHOLD
            ):
                fairness_recovered_at = entry["time"]
        if plane.rebalancer.history:
            final_fairness = plane.rebalancer.history[-1]["fairness"]
        for migration in plane.migrator.finished:
            if migration.phase == "done":
                migrations_completed += 1
                if migration.reason == "hot":
                    hot_migrations += 1
                elif migration.reason == "orphan":
                    orphan_migrations += 1
            else:
                migrations_aborted += 1

    series: List[Series] = [
        rate_timeline(network.deliveries, 0.05, label="delivered/s"),
    ]
    if len(fairness_series):
        series.append(fairness_series)

    table_rows = [
        ["delivered", len(delivered)],
        ["dropped", len(dropped)],
        ["degraded packet punts", degraded],
        ["invariant violations", len(violations)],
        ["time to full service (s)", round(time_to_full_service, 6)],
        ["migrations completed", migrations_completed],
    ]

    monitor = controller.monitor
    notes: Dict[str, object] = {
        "seed": seed,
        "rate": rate,
        "duration": duration,
        "alpha": alpha,
        "rebalance": rebalance,
        "heartbeat_interval_s": heartbeat_interval_s,
        "miss_threshold": miss_threshold,
        "static_detection_floor_s": miss_threshold * heartbeat_interval_s,
        "spares": list(spares),
        "delivered": len(delivered),
        "dropped": len(dropped),
        "drop_attribution": dict(sorted(attribution.items())),
        "unaccounted_packets": int(unaccounted),
        "invariant_violations": len(violations),
        "degraded_packets": degraded,
        "failovers": failovers,
        "detections": len(monitor.detections),
        "recoveries": len(monitor.recoveries),
        "authority_kill_at": authority_kill_at,
        "time_to_full_service_s": round(time_to_full_service, 6),
        "fairness_tripped_at": fairness_tripped_at,
        "fairness_recovered_at": fairness_recovered_at,
        "final_fairness": final_fairness,
        "migrations_completed": migrations_completed,
        "migrations_aborted": migrations_aborted,
        "hot_migrations": hot_migrations,
        "orphan_migrations": orphan_migrations,
        "control_counters": channel_totals,
        "chaos_events": len(schedule.planned),
        "_violations": violations,
        "_planned": list(schedule.planned),
    }
    if plane is not None:
        notes["control_plane"] = plane.export()

    recorder = getattr(_obs_context.current(), "telemetry", None)
    if recorder is not None and recorder.enabled:
        notes["telemetry_windows"] = len(recorder.export()["windows"])

    name = "C2-rebalance-soak" if rebalance else "C2-static-soak"
    title = (
        "Self-healing soak: hot/orphan partition migration under skew and kills"
        if rebalance
        else "Static baseline: heartbeat-only failover under skew and kills"
    )
    return ExperimentResult(
        name=name,
        title=title,
        series=series,
        table_headers=["metric", "value"],
        table_rows=table_rows,
        notes=notes,
    )


def _detection_latencies(
    injector: FailureInjector, controller
) -> List[float]:
    """Kill-to-detection delay for every detected authority failure."""
    monitor = controller.monitor
    if monitor is None:
        return []
    kills: Dict[str, List[float]] = {}
    for when, kind, target in injector.events:
        if kind == "switch-down":
            kills.setdefault(target, []).append(when)
    latencies: List[float] = []
    for detected_at, switch in monitor.detections:
        candidates = [t for t in kills.get(switch, []) if t <= detected_at]
        if candidates:
            latencies.append(detected_at - max(candidates))
    return latencies
