"""M1 — million-host streaming soak in bounded memory.

The scaling claim behind DIFANE is that the authority/ingress split
keeps working as the host population grows; every experiment so far
capped out near 10^4 hosts because both the workload (per-packet lists)
and the observability (per-packet delivery records) were materialized.
M1 composes the pieces that remove those two walls:

* the **streaming workload** (:mod:`repro.workloads.streaming`): a
  seed-closed :class:`StreamSpec` — heavy-tailed Zipf over the virtual
  host population, diurnal load, flash crowds, mobility churn — whose
  epochs a *lazy feeder* (:func:`feed_epochs`) generates from inside the
  event loop, each at its own instant, so the schedule never exists as
  a list;
* **sketch observability** (:mod:`repro.obs.sketch`): the network hands
  its outcomes to a :class:`DeliverySketchObserver` (delay quantile
  sketch, hop histogram, destination top-k), which retains zero
  per-packet rows.

Both composition points are independently toggleable (``stream``,
``sketch``) precisely so the equivalence tests can pin that neither
changes a byte of the metrics document: lazy feeding produces the same
event sequence as a pre-materialized schedule (the epoch interval
exceeds any event chain, so the heap is empty of prior-epoch work at
every feeder fire), and the observer consumes outcomes the retaining delivery
log would otherwise hold.  ``bench_memory.py`` closes the loop by gating
the full-scale run's peak RSS.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.controller import DifaneNetwork, PartitionInvariantError
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.obs import context as _obs_context
from repro.obs.sketch import DeliverySketchObserver
from repro.workloads.streaming import (
    StreamSpec,
    feed_epochs,
    stream_bursts,
    streaming_policy,
    streaming_topology,
)

__all__ = ["run_streaming_soak"]

LAYOUT = FIVE_TUPLE_LAYOUT


def run_streaming_soak(
    hosts: int = 1_000_000,
    edge_switches: int = 8,
    authority_switches: int = 2,
    epochs: int = 600,
    burst_size: int = 512,
    rules_per_switch: int = 64,
    alpha: float = 1.0,
    seed: int = 0,
    cache_capacity: int = 256,
    epoch_interval_s: float = 1e-3,
    stream: bool = True,
    sketch: bool = True,
    jobs: Optional[int] = None,
) -> ExperimentResult:
    """Run the M1 soak; see the module docstring for the architecture.

    ``stream=False`` pre-materializes the whole schedule (the historical
    list-generator behaviour) and ``sketch=False`` retains per-packet
    delivery records — both exist only as the references the
    equivalence tests compare against.  ``jobs`` is accepted for CLI
    uniformity: one soak is a single simulation — nothing to fan out
    (cf. C1).
    """
    del jobs
    spec = StreamSpec(
        hosts=hosts,
        edge_switches=edge_switches,
        authority_switches=authority_switches,
        epochs=epochs,
        burst_size=burst_size,
        rules_per_switch=rules_per_switch,
        alpha=alpha,
        seed=seed,
        epoch_interval_s=epoch_interval_s,
    )
    topo = streaming_topology(spec)
    rules = streaming_policy(spec, LAYOUT)
    dn = DifaneNetwork.build(
        topo,
        rules,
        LAYOUT,
        authority_switches=spec.authority_names(),
        cache_capacity=cache_capacity,
        loss_seed=seed,
    )
    network = dn.network

    observer: Optional[DeliverySketchObserver] = None
    if sketch:
        observer = DeliverySketchObserver()
        network.read_outcomes_with(observer)
        network.scheduler.add_probe(observer.probe)

    offered = 0

    def offer(packets) -> None:
        nonlocal offered
        offered += len(packets)
        if observer is not None:
            # Offered-traffic skew is tracked at scheduling time (the
            # workload's property, independent of delivery outcomes);
            # flow ids ARE the destination host indices by construction.
            observer.offer_destinations(packet.flow_id for packet in packets)

    if stream:
        feed_epochs(dn, spec, offer)
    else:
        for time, switch, packets in stream_bursts(spec, LAYOUT):
            offer(packets)
            dn.send_batch_at(time, switch, packets)

    dn.run()

    violations: List[str] = []
    try:
        dn.controller.assert_all_partitions_owned()
    except PartitionInvariantError as error:
        violations.append(str(error))

    metrics = _obs_context.current().metrics
    delivered = int(metrics.sum_counters("packets_delivered_total"))
    dropped = int(metrics.sum_counters("packets_dropped_total"))

    notes: Dict[str, object] = {
        "hosts": hosts,
        "edge_switches": edge_switches,
        "authority_switches": authority_switches,
        "epochs": epochs,
        "burst_size": burst_size,
        "rules_per_switch": rules_per_switch,
        "rules": len(rules),
        "alpha": alpha,
        "seed": seed,
        "cache_capacity": cache_capacity,
        # The feeder mode is deliberately NOT part of the document: the
        # whole point is that lazy and materialized scheduling emit
        # byte-identical results (the equivalence test diffs them).
        "_stream": bool(stream),
        "sketch": bool(sketch),
        "offered": offered,
        "delivered": delivered,
        "dropped": dropped,
        "unaccounted_packets": offered - delivered - dropped,
        "cache_hit_rate": dn.cache_hit_rate(),
        "redirects": dn.total_redirects(),
        "invariant_violations": len(violations),
        # Debug handles for the validation tests (underscore keys are
        # dropped from the metrics document).
        "_network": network,
        "_observer": observer,
    }
    table_rows: List[List[object]] = [
        ["virtual hosts", hosts],
        ["epochs", epochs],
        ["offered packets", offered],
        ["delivered", delivered],
        ["dropped", dropped],
        ["cache hit rate", f"{dn.cache_hit_rate():.4f}"],
        ["authority redirects", dn.total_redirects()],
        ["invariant violations", len(violations)],
    ]
    if observer is not None:
        delay = observer.delay_sketch
        notes["sketch_summary"] = {
            "delay_p50_s": delay.quantile(0.5),
            "delay_p99_s": delay.quantile(0.99),
            "delay_rank_error_bound": delay.rank_error_bound(),
            "delay_relative_error_bound": delay.relative_error_bound(),
            "retained_items": delay.retained(),
            "top_k_guarantee_threshold": (
                observer.hot_destinations.guarantee_threshold()
            ),
        }
        table_rows.extend([
            ["delay p99 (sketch)", f"{delay.quantile(0.99) or 0.0:.6f}s"],
            ["sketch rank-error bound", delay.rank_error_bound()],
            ["sketch retained items", delay.retained()],
        ])
    return ExperimentResult(
        name="M1-streaming-soak",
        title="Million-host streaming soak with sketch observability",
        table_headers=["metric", "value"],
        table_rows=table_rows,
        notes=notes,
    )
