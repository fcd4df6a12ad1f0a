"""E8 — caching ablation: eviction policy × capacity under streaming traffic.

The cost-aware cache subsystem (``EvictionPolicy.COST`` + controller
budget partitioning) claims a lower miss rate than the paper's plain LRU
at equal TCAM budget.  This experiment family measures that claim the way
the cache actually earns it: full event-driven DIFANE simulations under
the PR-8 streaming workloads — steady Zipf, flash crowds, mobility churn
— sweeping eviction policy × per-switch cache capacity and reporting

* miss rate (redirects / ingress classifications),
* the miss-penalty percentiles, read as packets are delivered
  (:class:`repro.obs.flowtrace.FirstDetourReader`),
* redirect load absorbed by the authority switches,
* install-message overhead (messages, batched messages, receives), and
* the eviction-churn split (capacity evictions / expirations / flushes).

Baselines: LRU (the paper), FIFO, RANDOM, and LRU + idle timeout.  The
``cost`` arm runs COST eviction plus periodic controller budget
partitioning over the same network-wide entry budget.

Every sweep point runs inside its own fresh observability context and
returns plain scalars, so ``--jobs N`` is byte-identical to serial
structurally: worker-side registries stay empty and the merge is a
no-op.  The scaled-down configuration is pinned as a golden.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.series import Series
from repro.core.controller import DifaneNetwork
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.obs import context as _obs_context
from repro.obs import fresh_run_context
from repro.obs.flowtrace import FirstDetourReader
from repro.switch.cache import EvictionPolicy
from repro.workloads.streaming import (
    StreamSpec,
    feed_epochs,
    streaming_policy,
    streaming_topology,
)

__all__ = ["run_caching_ablation", "WORKLOADS", "POLICIES"]

LAYOUT = FIVE_TUPLE_LAYOUT

#: Workload variants: StreamSpec overrides per traffic shape.
WORKLOADS: Dict[str, Dict[str, object]] = {
    "zipf-steady": dict(flash_every_epochs=0, mobility_rate=0.0),
    "flash-crowd": dict(
        flash_every_epochs=12, flash_length_epochs=6,
        flash_hotset_size=32, flash_share=0.6, mobility_rate=0.0,
    ),
    "mobility-churn": dict(flash_every_epochs=0, mobility_rate=0.3),
}

#: Ablation arms: eviction policy plus its management knobs.
POLICIES = ("lru", "fifo", "random", "idle", "cost")


def _ablation_point(
    workload: str,
    policy: str,
    capacity: int,
    hosts: int,
    edge_switches: int,
    epochs: int,
    burst_size: int,
    rules_per_switch: int,
    alpha: float,
    seed: int,
    idle_epochs: int,
    cost_tau_epochs: int,
    budget_every_epochs: int,
) -> Dict[str, object]:
    """One sweep point: a full event-driven soak at one (workload, policy,
    capacity) combination, returning plain scalars.

    The point installs its own fresh observability context (tracer off:
    the network reads its outcomes into a :class:`FirstDetourReader`,
    which keeps one delay per flow) and restores the ambient
    one afterwards, so the caller's registry/telemetry never see
    point-local state — in workers and in the serial path alike.
    """
    spec = StreamSpec(
        hosts=hosts,
        edge_switches=edge_switches,
        epochs=epochs,
        burst_size=burst_size,
        rules_per_switch=rules_per_switch,
        alpha=alpha,
        seed=seed,
        **WORKLOADS[workload],
    )
    eviction = {
        "lru": EvictionPolicy.LRU,
        "fifo": EvictionPolicy.FIFO,
        "random": EvictionPolicy.RANDOM,
        "idle": EvictionPolicy.LRU,
        "cost": EvictionPolicy.COST,
    }[policy]
    idle_timeout = (
        idle_epochs * spec.epoch_interval_s if policy == "idle" else None
    )
    cache_options = (
        {"cost_tau": cost_tau_epochs * spec.epoch_interval_s}
        if policy == "cost"
        else None
    )
    previous = _obs_context.current()
    fresh_run_context()
    try:
        topo = streaming_topology(spec)
        rules = streaming_policy(spec, LAYOUT)
        dn = DifaneNetwork.build(
            topo,
            rules,
            LAYOUT,
            authority_switches=spec.authority_names(),
            cache_capacity=capacity,
            idle_timeout=idle_timeout,
            eviction=eviction,
            loss_seed=seed,
            cache_options=cache_options,
        )
        penalty = FirstDetourReader()
        dn.network.read_outcomes_with(penalty)
        feed_epochs(dn, spec)
        budgets: Dict[str, int] = {}
        if policy == "cost" and budget_every_epochs > 0:
            total = capacity * len(dn.network.topology.switches())
            for epoch in range(budget_every_epochs, spec.epochs,
                               budget_every_epochs):
                # Fire between epochs so the repartition sees the traffic
                # of the completed epoch and never races a burst event.
                when = spec.start_time + (epoch - 0.5) * spec.epoch_interval_s
                dn.network.scheduler.schedule_at(
                    when, _apply_budgets, dn, total, budgets
                )
        dn.run()

        switches = dn.switches()
        hits = sum(s.cache_hits for s in switches)
        local = sum(s.authority_hits for s in switches)
        misses = sum(s.redirects_out for s in switches)
        if local:
            # A delivered packet carries no flag for an authority-local miss.
            raise ValueError(f"{local} authority-local hits at an ingress")
        total_cls = hits + misses
        summary = penalty.summary()
        breakdown = {"evicted": 0, "expired": 0, "invalidated": 0}
        for switch in switches:
            for key, value in switch.cache.eviction_breakdown().items():
                breakdown[key] += value
        return {
            "delivered": int(
                _obs_context.current().metrics.sum_counters(
                    "packets_delivered_total"
                )
            ),
            "miss_rate": (misses / total_cls) if total_cls else 0.0,
            "cache_hit_rate": dn.cache_hit_rate(),
            "miss_penalty_p50_ms": summary["miss_penalty_p50_ms"],
            "miss_penalty_p99_ms": summary["miss_penalty_p99_ms"],
            "miss_penalty_samples": summary["miss_penalty_samples"],
            "authority_redirects": dn.total_redirects(),
            "installs_sent": sum(s.cache_installs_sent for s in switches),
            "install_batches_sent": sum(
                s.cache_install_batches_sent for s in switches
            ),
            "installs_received": sum(
                s.cache_installs_received for s in switches
            ),
            "evicted_capacity": breakdown["evicted"],
            "expired": breakdown["expired"],
            "invalidated": breakdown["invalidated"],
            "budgets": {name: budgets[name] for name in sorted(budgets)},
        }
    finally:
        _obs_context.install(previous)


def _apply_budgets(dn: DifaneNetwork, total: int, sink: Dict[str, int]) -> None:
    """Repartition the network-wide cache budget from measured load."""
    sink.clear()
    sink.update(dn.controller.partition_cache_budgets(total_budget=total))


def run_caching_ablation(
    workloads: Optional[Sequence[str]] = None,
    policies: Optional[Sequence[str]] = None,
    capacities: Sequence[int] = (16, 32),
    hosts: int = 1024,
    edge_switches: int = 2,
    epochs: int = 24,
    burst_size: int = 32,
    rules_per_switch: int = 16,
    alpha: float = 1.0,
    seed: int = 0,
    idle_epochs: int = 8,
    cost_tau_epochs: int = 8,
    budget_every_epochs: int = 8,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep eviction policy × capacity under streaming traffic shapes.

    See the module docstring for what each point measures.  The default
    configuration is the golden-pinned scale; the CLI's non-quick run
    uses a larger one.
    """
    from repro.parallel.runner import SweepRunner

    workloads = list(workloads) if workloads is not None else list(WORKLOADS)
    policies = list(policies) if policies is not None else list(POLICIES)
    for workload in workloads:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
    for policy in policies:
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}")

    points = [
        dict(workload=workload, policy=policy, capacity=capacity,
             hosts=hosts, edge_switches=edge_switches, epochs=epochs,
             burst_size=burst_size, rules_per_switch=rules_per_switch,
             alpha=alpha, seed=seed, idle_epochs=idle_epochs,
             cost_tau_epochs=cost_tau_epochs,
             budget_every_epochs=budget_every_epochs)
        for workload in workloads
        for policy in policies
        for capacity in capacities
    ]
    results = SweepRunner(jobs).map(_ablation_point, points)

    series: List[Series] = []
    by_key: Dict[str, Dict[str, object]] = {}
    rows: List[List[object]] = []
    for params, stats in zip(points, results):
        key = f"{params['workload']}|{params['policy']}|{params['capacity']}"
        by_key[key] = stats
        rows.append([
            params["workload"],
            params["policy"],
            params["capacity"],
            f"{stats['miss_rate']:.4f}",
            _ms(stats["miss_penalty_p50_ms"]),
            _ms(stats["miss_penalty_p99_ms"]),
            stats["installs_sent"],
            stats["evicted_capacity"],
            stats["expired"],
        ])
    for workload in workloads:
        for policy in policies:
            curve = Series(
                f"{workload}/{policy}",
                x_label="cache capacity (entries/switch)",
                y_label="miss rate",
            )
            for capacity in capacities:
                stats = by_key[f"{workload}|{policy}|{capacity}"]
                curve.append(capacity, stats["miss_rate"])
            series.append(curve)

    # The headline claim, summarized per workload: capacities where the
    # cost arm's miss rate undercuts LRU's.
    cost_vs_lru: Dict[str, Dict[str, float]] = {}
    if "cost" in policies and "lru" in policies:
        for workload in workloads:
            wins = {}
            for capacity in capacities:
                lru = by_key[f"{workload}|lru|{capacity}"]["miss_rate"]
                cost = by_key[f"{workload}|cost|{capacity}"]["miss_rate"]
                wins[str(capacity)] = round(lru - cost, 6)
            cost_vs_lru[workload] = wins

    notes: Dict[str, object] = {
        "workloads": workloads,
        "policies": policies,
        "capacities": list(capacities),
        "hosts": hosts,
        "edge_switches": edge_switches,
        "epochs": epochs,
        "burst_size": burst_size,
        "rules_per_switch": rules_per_switch,
        "alpha": alpha,
        "seed": seed,
        "idle_epochs": idle_epochs,
        "cost_tau_epochs": cost_tau_epochs,
        "budget_every_epochs": budget_every_epochs,
        "points": by_key,
        "cost_minus_lru_miss_rate": cost_vs_lru,
    }
    return ExperimentResult(
        name="E8-caching-ablation",
        title="Caching ablation: eviction policy × capacity under streaming traffic",
        series=series,
        table_headers=[
            "workload", "policy", "capacity", "miss rate",
            "penalty p50", "penalty p99", "installs", "evicted", "expired",
        ],
        table_rows=rows,
        notes=notes,
    )


def _ms(value) -> str:
    return "-" if value is None else f"{value:.3f}ms"
