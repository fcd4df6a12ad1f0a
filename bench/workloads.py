"""The six benchmark workloads: which public ``run_*`` call, at which fixed
size, and how to read the simulated outcome back out of its result.

Every workload is fixed work (a batch simulator has no arrival schedule):
the throughput figure is offered packets per host second *at the size
stated here*.  ``FULL`` sizes are what ``BENCHMARK.json`` quotes; ``QUICK``
sizes exist only for the smoke test and are never comparable.

Imported inside the measured child interpreter only (it imports ``repro``).
"""

from __future__ import annotations

from statistics import fmean
from typing import Callable, Dict, NamedTuple

__all__ = ["WORKLOADS", "Workload"]

_M1_FULL = dict(hosts=10**6, epochs=100, burst_size=512)
_M1_QUICK = dict(hosts=50_000, epochs=10, burst_size=128)

_E8C_MATRIX = dict(
    workloads=["flash-crowd", "mobility-churn"],
    policies=["lru", "idle", "cost"],
    capacities=(8, 32),
    hosts=4096,
    edge_switches=4,
    burst_size=64,
)
_E8C_FULL = dict(_E8C_MATRIX, epochs=36)
_E8C_QUICK = dict(_E8C_MATRIX, epochs=6, capacities=(8,))

_E9Q_FULL = dict(hosts=4096, edge_switches=4, epochs=120, burst_size=128)
_E9Q_QUICK = dict(hosts=4096, edge_switches=4, epochs=12, burst_size=64)

_C2_FULL = dict(rate=20000.0, duration=1.5)
_C2_QUICK = dict(rate=4000.0, duration=0.3)

_E7_FULL = dict(n_packets=14000)
_E7_QUICK = dict(n_packets=600, n_flows=300, cache_sizes=[10, 100])


class Workload(NamedTuple):
    """One workload: ``call(seed, **size)`` makes the public call and
    returns its ``ExperimentResult``; ``outcome(result, context, replays)``
    reduces it to the simulated figures the checks and ``sim_*`` metrics
    need."""

    call: Callable
    full: Dict[str, object]
    quick: Dict[str, object]
    outcome: Callable
    columnar: bool = False
    #: the workload whose document this one should reproduce ("" = its own
    #: repeats)
    reference: str = ""

    def run(self, seed: int, quick: bool = False):
        return self.call(seed, **(self.quick if quick else self.full))


def _m1(seed: int, **size):
    from repro.experiments.streaming import run_streaming_soak

    return run_streaming_soak(sketch=True, seed=seed, **size)


def _event_driven_outcome(result, context, offered: int) -> Dict[str, object]:
    """Outcome of a single soak that ran in the ambient run context."""
    notes = result.notes
    metrics = context.metrics
    hits = metrics.sum_counters("difane_cache_hits_total")
    classified = (
        hits
        + metrics.sum_counters("difane_authority_hits_total")
        + metrics.sum_counters("difane_redirects_out_total")
    )
    return {
        "offered": offered,
        "delivered": int(notes["delivered"]),
        "dropped": int(notes["dropped"]),
        "unaccounted": int(notes["unaccounted_packets"]),
        "violations": int(notes["invariant_violations"]),
        "hit_rate": hits / classified if classified else 0.0,
        "redirects": int(metrics.sum_counters("difane_redirects_handled_total")),
        "retries": sum(
            value for key, value in notes.get("control_counters", {}).items()
            if key.startswith("retries_")
        ),
    }


def _m1_outcome(result, context, replays) -> Dict[str, object]:
    return _event_driven_outcome(result, context, int(result.notes["offered"]))


def _e8c(seed: int, **size):
    from repro.experiments.cachingablation import run_caching_ablation

    return run_caching_ablation(seed=seed, jobs=1, **size)


def _stream_offered(notes, **shape) -> int:
    """Packets one streaming sweep point offers (a pure function of the
    spec, so it needs no hook inside the run)."""
    from repro.workloads.streaming import StreamSpec

    spec = StreamSpec(
        hosts=notes["hosts"], edge_switches=notes["edge_switches"],
        epochs=notes["epochs"], burst_size=notes["burst_size"],
        rules_per_switch=notes["rules_per_switch"], alpha=notes["alpha"],
        seed=notes["seed"], **shape,
    )
    return sum(spec.epoch_packet_count(epoch) for epoch in range(spec.epochs))


def _e8c_outcome(result, context, replays) -> Dict[str, object]:
    from repro.experiments.cachingablation import WORKLOADS as SHAPES

    notes = result.notes
    points = notes["points"]
    offered = sum(
        _stream_offered(notes, **SHAPES[key.split("|", 1)[0]]) for key in points
    )
    delivered = sum(int(stats["delivered"]) for stats in points.values())
    return {
        "offered": offered,
        "delivered": delivered,
        # E8C's fabric is lossless and its points report no drop counts:
        # anything not delivered is a packet the simulator lost track of.
        "dropped": 0,
        "unaccounted": offered - delivered,
        "violations": 0,
        "hit_rate": fmean(stats["cache_hit_rate"] for stats in points.values()),
        "redirects": sum(
            int(stats["authority_redirects"]) for stats in points.values()
        ),
        "retries": 0,
    }


def _e9q(seed: int, **size):
    from repro.experiments.qos import run_qos_slo

    return run_qos_slo(seed=seed, jobs=1, **size)


def _e9q_outcome(result, context, replays) -> Dict[str, object]:
    notes = result.notes
    per_mode = _stream_offered(
        notes, flash_every_epochs=12, flash_length_epochs=6,
        flash_hotset_size=64, flash_share=0.8, mobility_rate=0.0,
    )
    delivered = dropped = redirects = 0
    hit_rates = []
    for stats in notes["points"].values():
        classes = stats["classes"].values()
        delivered += int(sum(c["delivered"] for c in classes))
        dropped += int(sum(c["dropped"] for c in classes))
        redirects += int(sum(c["redirects"] for c in classes))
        hits = sum(c["cache_hits"] for c in classes)
        classified = hits + sum(
            c["authority_hits"] + c["redirects"] for c in classes
        )
        hit_rates.append(hits / classified if classified else 0.0)
    offered = per_mode * len(notes["points"])
    return {
        "offered": offered,
        "delivered": delivered,
        "dropped": dropped,
        "unaccounted": offered - delivered - dropped,
        "violations": 0,
        "hit_rate": fmean(hit_rates),
        "redirects": redirects,
        "retries": 0,
    }


def _c2(seed: int, **size):
    from repro.experiments.chaos import run_rebalance_soak

    return run_rebalance_soak(seed=11 + seed, **size)


def _c2_outcome(result, context, replays) -> Dict[str, object]:
    notes = result.notes
    return _event_driven_outcome(
        result, context, int(notes["rate"] * notes["duration"])
    )


def _e7(seed: int, **size):
    from repro.experiments.caching import run_cache_miss

    return run_cache_miss(seed=5 + seed, jobs=1, **size)


def _e7_outcome(result, context, replays) -> Dict[str, object]:
    """``replays`` are the ``CacheSimResult`` of every simulator call."""
    offered = sum(replay.packets for replay in replays)
    matched = offered - sum(replay.unmatched for replay in replays)
    wildcard = result.series_by_label("DIFANE wildcard cache")
    return {
        "offered": offered,
        # A trace replay has no fabric: "delivered" is matched by the
        # policy, and every header is a hit, a miss or unmatched.
        "delivered": matched,
        "dropped": offered - matched,
        "unaccounted": sum(
            replay.packets - replay.hits - replay.misses - replay.unmatched
            for replay in replays
        ),
        "violations": 0,
        "hit_rate": fmean(1.0 - miss for miss in wildcard.y),
        "redirects": sum(replay.misses for replay in replays),
        "retries": 0,
    }


#: Names are permanent: results, BENCHMARK.json and later issues quote them.
WORKLOADS: Dict[str, Workload] = {
    "m1_scalar": Workload(_m1, _M1_FULL, _M1_QUICK, _m1_outcome),
    "m1_columnar": Workload(_m1, _M1_FULL, _M1_QUICK, _m1_outcome,
                            columnar=True, reference="m1_scalar"),
    "e8c_churn": Workload(_e8c, _E8C_FULL, _E8C_QUICK, _e8c_outcome),
    "e9q_flash": Workload(_e9q, _E9Q_FULL, _E9Q_QUICK, _e9q_outcome),
    "c2_heal": Workload(_c2, _C2_FULL, _C2_QUICK, _c2_outcome),
    "e7_acl": Workload(_e7, _E7_FULL, _E7_QUICK, _e7_outcome),
}
