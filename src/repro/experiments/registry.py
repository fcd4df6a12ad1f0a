"""The experiment table: every reproduced id, declared once.

One :class:`ExperimentSpec` per id names the runner and its two scales:

* ``full`` is the configuration of the archived figure or table
  (``benchmarks/results/``, quoted by EXPERIMENTS.md); an empty mapping
  means the runner's defaults are that configuration;
* ``quick`` is the scaled-down run of ``repro run <id> --quick``.  For an
  id with a ``golden`` name it is exactly the run pinned by
  ``tests/goldens/<golden>-metrics.json`` — there is no third scale.

``repro.cli``, ``tests/test_golden_results.py`` and
``benchmarks/bench_figures.py`` all read this table.  Runners are named
``"module:function"`` and imported only when their id runs; a keyword
value that has to be built (a policy) is a zero-argument builder called
only then, so listing the table imports no experiment module.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, FrozenSet, Mapping, Optional

__all__ = ["ExperimentSpec", "SPECS"]

#: The chaos knobs settable per invocation (``--chaos-seed``, ``--loss``,
#: ``--heartbeat-interval``).
_CHAOS = frozenset({"seed", "loss", "heartbeat_interval_s"})


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment id: its runner, full and quick kwargs, golden name."""

    id: str
    title: str
    run: str
    full: Mapping[str, Any] = field(default_factory=dict)
    quick: Mapping[str, Any] = field(default_factory=dict)
    golden: Optional[str] = None
    #: Keyword arguments a per-invocation override may set; any other
    #: override is ignored for this id.
    overrides: FrozenSet[str] = frozenset()

    def __call__(
        self,
        quick: bool = False,
        jobs: Optional[int] = None,
        overrides: Optional[Mapping[str, Any]] = None,
    ):
        """Run the experiment at one scale and return its result.

        ``jobs`` reaches the runner only if it takes a ``jobs`` argument.
        """
        module, name = self.run.split(":")
        runner = getattr(importlib.import_module(module), name)
        kwargs: Dict[str, Any] = {
            key: value() if callable(value) else value
            for key, value in (self.quick if quick else self.full).items()
        }
        if "jobs" in inspect.signature(runner).parameters:
            kwargs["jobs"] = jobs
        for key, value in (overrides or {}).items():
            if key in self.overrides:
                kwargs[key] = value
        return runner(**kwargs)


def _policies(scale: int):
    from repro.experiments.partitioning import default_policies

    return default_policies(scale=scale)


def _acl(count: int, seed: int):
    from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
    from repro.parallel.cache import classbench_ruleset

    return classbench_ruleset("acl", count=count, seed=seed,
                              layout=FIVE_TUPLE_LAYOUT)


_SPECS = [
    ExperimentSpec(
        "E1", "Table 1: evaluated policies",
        "repro.experiments.policies:run_policy_table",
        full=dict(policies=partial(_policies, 2)),
        quick=dict(policies=partial(_policies, 1)),
    ),
    ExperimentSpec(
        "E2", "Fig: setup throughput, DIFANE vs NOX",
        "repro.experiments.throughput:run_throughput",
        quick=dict(rates=[25e3, 200e3, 1.2e6], flows_per_point=400),
    ),
    ExperimentSpec(
        "E3", "Fig: throughput scaling with authority switches",
        "repro.experiments.scaling:run_scaling",
        full=dict(authority_counts=[1, 2, 3, 4], flows_per_point=1200),
        quick=dict(authority_counts=[1, 2], flows_per_point=500),
    ),
    ExperimentSpec(
        "E4", "Fig: first-packet delay",
        "repro.experiments.delay:run_delay",
        full=dict(flows=300),
        quick=dict(flows=40),
        golden="E4-delay",
    ),
    ExperimentSpec(
        "E5", "Fig: TCAM per authority switch vs #partitions",
        "repro.experiments.partitioning:run_partition_tcam",
        full=dict(policies=partial(_policies, 2)),
        quick=dict(partition_counts=[1, 4, 16], policies=partial(_policies, 1)),
    ),
    ExperimentSpec(
        "E6", "Fig: rule-split overhead vs #partitions",
        "repro.experiments.partitioning:run_partition_overhead",
        full=dict(policies=partial(_policies, 2)),
        quick=dict(partition_counts=[1, 4, 16], policies=partial(_policies, 1)),
    ),
    ExperimentSpec(
        "E7", "Fig: cache miss rate vs cache size",
        "repro.experiments.caching:run_cache_miss",
        full=dict(policy=partial(_acl, 2000, 3),
                  cache_sizes=[20, 40, 100, 200, 400, 1000],
                  n_flows=4000, n_packets=40_000),
        quick=dict(cache_sizes=[10, 100], n_flows=300, n_packets=600),
        golden="E7-cache-miss",
    ),
    ExperimentSpec(
        "E8", "Fig: stretch by authority placement",
        "repro.experiments.stretch:run_stretch",
        full=dict(authority_count=4, switch_count=32, flows=800),
        quick=dict(switch_count=16, flows=200),
    ),
    ExperimentSpec(
        "E8C", "Ablation: cache eviction policy × capacity, streaming traffic",
        "repro.experiments.cachingablation:run_caching_ablation",
        full=dict(capacities=(8, 16, 32, 64), hosts=4096, edge_switches=4,
                  epochs=48, burst_size=64),
        golden="E8-caching-ablation",
    ),
    ExperimentSpec(
        "E9", "Table: cost of network dynamics",
        "repro.experiments.dynamics:run_dynamics",
        full=dict(churn_steps=60, warm_flows=200),
        quick=dict(churn_steps=15, warm_flows=60),
    ),
    ExperimentSpec(
        "E9Q", "Ablation: per-class QoS SLO protection under flash crowds",
        "repro.experiments.qos:run_qos_slo",
        full=dict(hosts=4096, edge_switches=4, epochs=72, burst_size=64),
        golden="E9-qos-slo",
    ),
    ExperimentSpec(
        "E10", "Ablation: cut-selection heuristic",
        "repro.experiments.partitioning:run_cut_ablation",
        full=dict(partition_counts=[2, 4, 8, 16, 32, 64],
                  policy=partial(_acl, 2000, 13)),
        quick=dict(partition_counts=[4, 16]),
    ),
    ExperimentSpec(
        "A1", "Ablation: cache eviction policy, undersized caches",
        "repro.experiments.ablations:run_eviction_ablation",
        quick=dict(flows=120),
    ),
    ExperimentSpec(
        "A2", "Ablation: win-region fragment prefetch",
        "repro.experiments.ablations:run_prefetch_ablation",
        full=dict(flows=400),
        quick=dict(prefetch_levels=[1, 4], flows=150),
    ),
    ExperimentSpec(
        "A3", "Ablation: traffic-skew sensitivity",
        "repro.experiments.ablations:run_zipf_sensitivity",
        quick=dict(alphas=[0.6, 1.2], n_flows=300, n_packets=3000),
    ),
    ExperimentSpec(
        "A4", "Ablation: partitions per authority switch",
        "repro.experiments.ablations:run_partition_granularity",
        quick=dict(per_authority=[1, 4]),
    ),
    ExperimentSpec(
        "A5", "Ablation: measured-load repartitioning",
        "repro.experiments.ablations:run_rebalance_ablation",
        quick=dict(packets=1000),
        golden="A5-rebalance",
    ),
    ExperimentSpec(
        "A6", "Extension: failover transient under load",
        "repro.experiments.failover:run_failover_transient",
        quick=dict(rate=1_500.0, duration=0.3, failure_time=0.15),
        golden="A6-failover-transient",
    ),
    ExperimentSpec(
        "C1", "Chaos soak: faults, detection, degradation",
        "repro.experiments.chaos:run_chaos_soak",
        quick=dict(rate=800.0, duration=0.3),
        golden="C1-chaos-soak",
        overrides=_CHAOS,
    ),
    # C2's campus fabric is lossless by construction: --loss is C1-only.
    ExperimentSpec(
        "C2", "Self-healing soak: sharded control plane, migration",
        "repro.experiments.chaos:run_rebalance_soak",
        full=dict(rebalance=True),
        quick=dict(rate=2_000.0, duration=0.5, rebalance=True),
        golden="C2-rebalance-soak",
        overrides=_CHAOS - {"loss"},
    ),
    ExperimentSpec(
        "C2-STATIC", "C2 baseline: heartbeat-only failover, no shards",
        "repro.experiments.chaos:run_rebalance_soak",
        full=dict(rebalance=False),
        quick=dict(rate=2_000.0, duration=0.5, rebalance=False),
        golden="C2-static-soak",
        overrides=_CHAOS - {"loss"},
    ),
    ExperimentSpec(
        "M1", "Soak: million-host streaming workload, sketch metrics",
        "repro.experiments.streaming:run_streaming_soak",
        quick=dict(hosts=4096, edge_switches=4, epochs=40, burst_size=64,
                   rules_per_switch=16),
        golden="M1-streaming-soak",
    ),
]

#: Every experiment id, in ``repro list`` / ``repro run all`` order.
SPECS: Dict[str, ExperimentSpec] = {spec.id: spec for spec in _SPECS}
