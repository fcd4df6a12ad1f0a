"""Authority-switch placement strategies.

The paper's stretch evaluation shows that *where* authority switches sit
determines the detour cost of cache misses.  These strategies pick
``count`` switches out of a topology:

* ``random`` — uniform choice (the pessimistic baseline);
* ``degree`` — highest-degree switches (hubs; cheap to compute);
* ``central`` — highest closeness centrality (minimizes expected detour);
* ``spread`` — greedy k-center (maximize mutual distance — good worst-case
  stretch when misses can go to the *closest* authority replica).
"""

from __future__ import annotations

import random
from typing import List

from repro.net.graph import Graph, bfs_lengths, closeness_centrality

__all__ = ["choose_authority_switches", "choose_spare_switches"]


def choose_authority_switches(
    topology,
    count: int,
    strategy: str = "central",
    seed: int = 0,
) -> List[str]:
    """Pick ``count`` authority switches from ``topology``.

    Deterministic for a given (topology, strategy, seed).  Raises when the
    topology has fewer switches than requested.
    """
    switches = topology.switches()
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > len(switches):
        raise ValueError(f"asked for {count} authority switches, only {len(switches)} exist")

    if strategy == "random":
        rng = random.Random(seed)
        return sorted(rng.sample(switches, count))

    graph = topology.graph.subgraph(switches)
    if strategy == "degree":
        ranked = sorted(switches, key=lambda s: (-graph.degree[s], s))
        return ranked[:count]

    if strategy == "central":
        centrality = closeness_centrality(graph)
        ranked = sorted(switches, key=lambda s: (-centrality.get(s, 0.0), s))
        return ranked[:count]

    if strategy == "spread":
        return _k_center(graph, switches, count)

    raise ValueError(f"unknown placement strategy {strategy!r}")


def choose_spare_switches(
    topology,
    authorities,
    count: int,
    strategy: str = "central",
    seed: int = 0,
) -> List[str]:
    """Pick ``count`` spare authority candidates, excluding ``authorities``.

    The warm pool a rebalancer re-homes hot or orphaned partitions onto:
    the remaining switches ranked by the same placement strategies as
    :func:`choose_authority_switches`.  Deterministic for a given
    (topology, authorities, strategy, seed); returns fewer than ``count``
    when the topology runs out of non-authority switches.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    taken = set(authorities)
    ranked = choose_authority_switches(
        topology, len(topology.switches()), strategy=strategy, seed=seed
    )
    return [name for name in ranked if name not in taken][:count]


def _k_center(graph: Graph, switches: List[str], count: int) -> List[str]:
    """Greedy k-center: start from the most central node, then repeatedly
    add the switch farthest (in hops) from the chosen set."""
    lengths = {node: bfs_lengths(graph, node) for node in graph}
    centrality = closeness_centrality(graph)
    chosen = [max(switches, key=lambda s: (centrality.get(s, 0.0), s))]
    while len(chosen) < count:
        def distance_to_chosen(switch: str) -> int:
            """Hop distance from ``switch`` to the nearest chosen one."""
            return min(lengths[switch].get(c, 0) for c in chosen)

        candidates = [s for s in switches if s not in chosen]
        chosen.append(max(candidates, key=lambda s: (distance_to_chosen(s), s)))
    return sorted(chosen)
