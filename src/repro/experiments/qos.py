"""E9 — per-class QoS SLO protection under flash-crowd overload.

The per-class observability layer (:mod:`repro.obs.qos`) only earns its
keep if the protection knobs it exposes actually move the SLOs it
measures.  This experiment pins that end to end: a flash-crowd streaming
workload (the E8 configuration) with a **gold** flow class — the first
address slice of every edge switch, squarely under the Zipf head — and a
best-effort remainder, swept over three protection modes:

* ``off`` — classification and SLO monitoring only; gold competes for
  cache residency and redirect capacity like everyone else.  The flash
  crowd evicts gold's cache rules, its miss rate blows through the SLO
  target, and the burn-rate detectors emit ``slo-burn`` /
  ``slo-exhausted`` findings — the *observability* half of the claim.
* ``reserved`` — gold gets a class-weighted COST score and a reserved
  share of every ingress cache (entries inside the reservation are never
  evicted by best-effort installs).  Gold's miss rate stays under
  target; its error budget survives the flashes.
* ``reserved+admission`` — additionally, once the authority redirect
  queue is deeper than the admission threshold, best-effort redirects
  are shed on arrival (exact ``admission-control`` drop attribution)
  instead of queueing ahead of gold.

Every sweep point builds its network with its own QoS policy and runs
inside its own fresh run context (the previous context is restored in
the ``finally``), so ``--jobs N`` is byte-identical to serial and the
ambient registry never sees point-local state.  The scaled-down
configuration is pinned as a golden: gold holding its SLO under
``reserved`` while missing it under ``off`` is a regression-guarded
property of the repo.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.series import Series
from repro.core.controller import DifaneNetwork
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.rule import Match
from repro.flowspace.ternary import Ternary
from repro.obs import context as _obs_context
from repro.obs import fresh_run_context
from repro.obs.qos import (
    FlowClass, FlowClassifier, QosOutcomeReader, QosPolicy, SloSpec,
)
from repro.obs.telemetry import telemetry_section
from repro.switch.cache import EvictionPolicy
from repro.workloads.streaming import (
    BASE_ADDRESS,
    StreamSpec,
    feed_epochs,
    streaming_policy,
    streaming_topology,
)

__all__ = ["run_qos_slo", "MODES"]

LAYOUT = FIVE_TUPLE_LAYOUT

#: Protection modes, in escalation order.
MODES = ("off", "reserved", "reserved+admission")


def _gold_classes(
    spec: StreamSpec, protection: bool, weight: float, reserved: float,
    gold_slice: int,
) -> List[FlowClass]:
    """One ``gold`` class per edge switch: address slice ``gold_slice``.

    Deliberately *not* slice 0: the Zipf head is so hot its cache entries
    protect themselves under any eviction policy, which would make every
    protection mode measure identically.  A premium class needs explicit
    protection exactly when its traffic is steady but not dominant —
    slice 1 (roughly the second-ranked fragment by aggregate Zipf share)
    stays resident in quiet periods yet loses the cache race against a
    flash crowd, so the protection knobs are what decide its SLO.
    """
    slice_bits = spec.host_bits - (spec.rules_per_switch - 1).bit_length()
    classes: List[FlowClass] = []
    for switch in range(spec.edge_switches):
        block = BASE_ADDRESS | (switch << spec.host_bits)
        value = block | (gold_slice << slice_bits)
        match = Match(
            LAYOUT,
            LAYOUT.pack_match(
                nw_dst=Ternary.from_prefix(value, 32 - slice_bits, 32)
            ),
        )
        classes.append(FlowClass(
            "gold",
            match,
            weight=weight if protection else 1.0,
            reserved_fraction=reserved if protection else 0.0,
            protected=protection,
        ))
    return classes


def _qos_point(
    mode: str,
    hosts: int,
    edge_switches: int,
    epochs: int,
    burst_size: int,
    rules_per_switch: int,
    alpha: float,
    seed: int,
    capacity: int,
    cost_tau_epochs: int,
    redirect_rate: float,
    redirect_queue: int,
    admission_threshold: int,
    gold_weight: float,
    gold_reserved: float,
    gold_slice: int,
    miss_rate_target: float,
    latency_target_s: float,
    telemetry_interval_s: float,
) -> Dict[str, object]:
    """One sweep point: a flash-crowd soak at one protection mode.

    Builds its network with the mode's QoS policy and reads its
    outcomes per class, inside its own fresh observability context that
    it uninstalls afterwards — the policy dies with the network, so the
    serial and ``--jobs N`` paths construct identical state.
    """
    spec = StreamSpec(
        hosts=hosts,
        edge_switches=edge_switches,
        epochs=epochs,
        burst_size=burst_size,
        rules_per_switch=rules_per_switch,
        alpha=alpha,
        seed=seed,
        flash_every_epochs=12,
        flash_length_epochs=6,
        flash_hotset_size=64,
        flash_share=0.8,
        mobility_rate=0.0,
    )
    protection = mode != "off"
    policy = QosPolicy(
        classifier=FlowClassifier(
            _gold_classes(
                spec, protection, gold_weight, gold_reserved, gold_slice
            )
        ),
        slos=[
            SloSpec(
                "gold",
                latency_target_s=latency_target_s,
                latency_quantile=0.99,
                miss_rate_target=miss_rate_target,
                delivery_target=0.99,
                budget=0.1,
            ),
            SloSpec("best-effort", delivery_target=0.95, budget=0.25),
        ],
        admission_threshold=(
            admission_threshold if mode == "reserved+admission" else None
        ),
    )
    previous = _obs_context.current()
    context = fresh_run_context(telemetry=telemetry_interval_s)
    try:
        context.telemetry.slo_specs = list(policy.slos)
        topo = streaming_topology(spec)
        rules = streaming_policy(spec, LAYOUT)
        dn = DifaneNetwork.build(
            topo,
            rules,
            LAYOUT,
            authority_switches=spec.authority_names(),
            cache_capacity=capacity,
            eviction=EvictionPolicy.COST,
            # A tau on the epoch scale: COST must *forget* — with the
            # default (1 s) tau the run is too short for flash traffic to
            # ever outscore the warm gold entries, and no mode differs.
            cost_tau=cost_tau_epochs * spec.epoch_interval_s,
            redirect_rate=redirect_rate,
            redirect_queue=redirect_queue,
            loss_seed=seed,
            qos=policy,
        )
        # Every result below comes from counters and telemetry: the
        # network's outcome reader keeps no row, only per-class counts.
        dn.network.read_outcomes_with(
            QosOutcomeReader(policy, context.metrics)
        )
        feed_epochs(dn, spec)
        dn.run()

        section = telemetry_section(context.telemetry)
        slo_findings = [
            finding for finding in section["findings"]
            if finding["detector"].startswith("slo-")
        ]
        switches = dn.switches()
        return {
            "mode": mode,
            "classes": section.get("classes", {}),
            "slo": section.get("slo", {}),
            "slo_findings": slo_findings,
            "windows": len(section.get("windows", [])),
            "redirects_shed": sum(s.redirects_shed for s in switches),
            "redirects_dropped": sum(s.redirects_dropped for s in switches),
            "delivered": int(
                context.metrics.sum_counters("packets_delivered_total")
            ),
        }
    finally:
        _obs_context.install(previous)


def run_qos_slo(
    modes: Optional[Sequence[str]] = None,
    hosts: int = 1024,
    edge_switches: int = 2,
    epochs: int = 36,
    burst_size: int = 32,
    rules_per_switch: int = 16,
    alpha: float = 1.0,
    seed: int = 0,
    capacity: int = 8,
    cost_tau_epochs: int = 4,
    redirect_rate: float = 200_000.0,
    redirect_queue: int = 64,
    admission_threshold: int = 8,
    gold_weight: float = 8.0,
    gold_reserved: float = 0.25,
    gold_slice: int = 1,
    miss_rate_target: float = 0.25,
    latency_target_s: float = 1e-3,
    telemetry_interval_s: float = 2e-3,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep QoS protection modes under the flash-crowd workload.

    See the module docstring for the three modes and what each pins.
    The default configuration is the golden-pinned scale.
    """
    from repro.parallel.runner import SweepRunner

    modes = list(modes) if modes is not None else list(MODES)
    for mode in modes:
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")

    points = [
        dict(mode=mode, hosts=hosts, edge_switches=edge_switches,
             epochs=epochs, burst_size=burst_size,
             rules_per_switch=rules_per_switch, alpha=alpha, seed=seed,
             capacity=capacity, cost_tau_epochs=cost_tau_epochs,
             redirect_rate=redirect_rate,
             redirect_queue=redirect_queue,
             admission_threshold=admission_threshold,
             gold_weight=gold_weight, gold_reserved=gold_reserved,
             gold_slice=gold_slice, miss_rate_target=miss_rate_target,
             latency_target_s=latency_target_s,
             telemetry_interval_s=telemetry_interval_s)
        for mode in modes
    ]
    results = SweepRunner(jobs).map(_qos_point, points)

    by_mode: Dict[str, Dict[str, object]] = {}
    rows: List[List[object]] = []
    series: List[Series] = []
    for params, stats in zip(points, results):
        mode = params["mode"]
        by_mode[mode] = stats
        for cls in sorted(stats["classes"]):
            traffic = stats["classes"][cls]
            slo = stats["slo"].get(cls, {})
            rows.append([
                mode,
                cls,
                f"{traffic['miss_rate']:.4f}"
                if traffic["miss_rate"] is not None else "-",
                f"{traffic['redirect_p99_s'] * 1e6:.0f}us"
                if traffic["redirect_p99_s"] is not None else "-",
                int(traffic["delivered"]),
                int(traffic["dropped"]),
                int(traffic["shed"]),
                slo.get("bad_windows", "-"),
                f"{slo['budget_remaining']:.2f}"
                if "budget_remaining" in slo else "-",
                sum(
                    1 for f in stats["slo_findings"]
                    if f"class {cls}:" in f["detail"]
                ),
            ])

    for cls in ("gold", "best-effort"):
        curve = Series(
            f"{cls} miss rate", x_label="protection mode", y_label="miss rate"
        )
        for index, mode in enumerate(modes):
            traffic = by_mode[mode]["classes"].get(cls)
            if traffic and traffic["miss_rate"] is not None:
                curve.append(index, traffic["miss_rate"])
        series.append(curve)

    # The headline: gold's SLO health per mode (the golden pins that the
    # budget survives exactly in the protected modes).
    gold_slo_by_mode = {
        mode: {
            "bad_windows": stats["slo"].get("gold", {}).get("bad_windows"),
            "budget_remaining": stats["slo"].get("gold", {}).get(
                "budget_remaining"
            ),
            "slo_findings": sum(
                1 for f in stats["slo_findings"] if "class gold:" in f["detail"]
            ),
        }
        for mode, stats in by_mode.items()
    }

    notes: Dict[str, object] = {
        "modes": modes,
        "hosts": hosts,
        "edge_switches": edge_switches,
        "epochs": epochs,
        "burst_size": burst_size,
        "rules_per_switch": rules_per_switch,
        "alpha": alpha,
        "seed": seed,
        "capacity": capacity,
        "cost_tau_epochs": cost_tau_epochs,
        "redirect_rate": redirect_rate,
        "redirect_queue": redirect_queue,
        "admission_threshold": admission_threshold,
        "gold_weight": gold_weight,
        "gold_reserved": gold_reserved,
        "gold_slice": gold_slice,
        "miss_rate_target": miss_rate_target,
        "latency_target_s": latency_target_s,
        "telemetry_interval_s": telemetry_interval_s,
        "points": {mode: by_mode[mode] for mode in modes},
        "gold_slo_by_mode": gold_slo_by_mode,
    }
    return ExperimentResult(
        name="E9-qos-slo",
        title="Per-class QoS: SLO protection modes under flash crowds",
        series=series,
        table_headers=[
            "mode", "class", "miss rate", "p99 redirect", "delivered",
            "dropped", "shed", "bad windows", "budget left", "slo findings",
        ],
        table_rows=rows,
        notes=notes,
    )
