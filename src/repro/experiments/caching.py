"""E7 — cache miss rate vs cache size: wildcard fragments vs microflows.

DIFANE caches *independent wildcard fragments*, so one cached entry covers
every flow in the fragment's region; an Ethane-style microflow cache burns
one entry per distinct 5-tuple.  Under Zipf traffic the fragment cache
therefore reaches a given miss rate with a far smaller TCAM.

The replay is trace-driven (no event simulation): one packet-header
sequence with Zipf flow popularity, resolved once as a ``ReplayTrace``
and pushed through both cache simulators at each cache size.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.series import Series
from repro.baselines.microflow_cache import (
    ReplayTrace,
    simulate_microflow_cache,
    simulate_wildcard_cache,
)
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.rule import Rule
from repro.parallel.cache import classbench_ruleset, zipf_replay_trace
from repro.workloads.traffic import flow_headers_for_policy, packet_sequence

__all__ = ["run_cache_miss"]

LAYOUT = FIVE_TUPLE_LAYOUT

#: Generating parameters of the default ClassBench policy (the artifact
#: cache's content address for it — and for the traffic derived from it).
_DEFAULT_POLICY_PARAMS = {"profile": "acl", "count": 1000, "seed": 3}


def _cache_point(
    size: int,
    trace: Optional[ReplayTrace],
    policy_params: Optional[Dict[str, Any]],
    n_flows: int,
    n_packets: int,
    zipf_alpha: float,
    seed: int,
) -> Tuple[float, float, float, int, int, int]:
    """One sweep point: the three cache replays at one cache ``size``.

    When driven by generating parameters (``trace is None``) the trace
    comes from the artifact cache's memory tier — one trace, resolved
    once, for every point of the serial path, one per worker process in
    the parallel path.  An explicit policy's trace ships with the point.
    """
    if trace is None:
        trace = zipf_replay_trace(
            policy_params, LAYOUT, n_flows, seed, n_packets, zipf_alpha, seed + 1
        )
    w = simulate_wildcard_cache(trace, size)
    c = simulate_wildcard_cache(trace, size, eviction="cost")
    m = simulate_microflow_cache(trace, size)
    return w.miss_rate, c.miss_rate, m.miss_rate, w.installs, c.installs, m.installs


def run_cache_miss(
    policy: Optional[List[Rule]] = None,
    cache_sizes: Optional[Sequence[int]] = None,
    n_flows: int = 3000,
    n_packets: int = 30_000,
    zipf_alpha: float = 1.0,
    seed: int = 5,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Sweep cache sizes; return miss-rate series for both cache kinds.

    Parameters mirror the paper's setup: a ClassBench-style ACL, flows
    drawn across the policy weighted by flow-space share, packet-level
    Zipf popularity over flows.  ``jobs`` fans the cache sizes out over
    worker processes with identical output.
    """
    from repro.parallel.runner import SweepRunner

    policy_params: Optional[Dict[str, Any]] = None
    trace: Optional[ReplayTrace] = None
    if policy is None:
        policy_params = dict(_DEFAULT_POLICY_PARAMS)
        policy_size = len(classbench_ruleset(layout=LAYOUT, **policy_params))
    else:
        policy_size = len(policy)
        flows = flow_headers_for_policy(policy, n_flows, seed=seed)
        trace = ReplayTrace(
            policy, LAYOUT,
            packet_sequence(flows, n_packets, alpha=zipf_alpha, seed=seed + 1),
        )
    if cache_sizes is None:
        base = max(policy_size // 100, 1)
        cache_sizes = [base, 2 * base, 5 * base, 10 * base, 20 * base, 50 * base]

    results = SweepRunner(jobs).map(
        _cache_point,
        [
            dict(size=size, trace=trace,
                 policy_params=policy_params, n_flows=n_flows,
                 n_packets=n_packets, zipf_alpha=zipf_alpha,
                 seed=seed)
            for size in cache_sizes
        ],
    )

    wildcard = Series(
        "DIFANE wildcard cache", x_label="cache size (entries)", y_label="miss rate"
    )
    cost = Series(
        "cost-aware wildcard cache", x_label="cache size (entries)",
        y_label="miss rate",
    )
    microflow = Series(
        "microflow cache", x_label="cache size (entries)", y_label="miss rate"
    )
    rows = []
    for size, point in zip(cache_sizes, results):
        w_miss, c_miss, m_miss, w_installs, c_installs, m_installs = point
        wildcard.append(size, w_miss)
        cost.append(size, c_miss)
        microflow.append(size, m_miss)
        rows.append([
            size,
            f"{w_miss:.4f}",
            f"{c_miss:.4f}",
            f"{m_miss:.4f}",
            w_installs,
            c_installs,
            m_installs,
        ])

    return ExperimentResult(
        name="E7-cache-miss",
        title="Cache miss rate vs cache size (Zipf traffic)",
        series=[wildcard, cost, microflow],
        table_headers=["cache size", "wildcard miss", "cost miss",
                       "microflow miss", "wildcard installs", "cost installs",
                       "microflow installs"],
        table_rows=rows,
        notes={
            "policy_size": policy_size,
            "flows": n_flows,
            "packets": n_packets,
            "zipf_alpha": zipf_alpha,
        },
    )
