"""Link-state shortest-path routing.

DIFANE separates *rule placement* (flow-space partitioning, unaffected by
topology) from *reachability among switches*, which the paper delegates to
a conventional link-state protocol.  We model that protocol's steady state:
all-pairs next-hop tables computed from the current topology by Dijkstra
(latency-weighted), recomputed on topology change events.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.graph import Graph, dijkstra

__all__ = ["RoutingTable", "UNREACHABLE", "compute_routes"]

#: The distance to a destination no path leads to.
UNREACHABLE = float("inf")


class RoutingTable:
    """Per-node next-hop tables for every destination in the topology."""

    def __init__(self, next_hops: Dict[str, Dict[str, str]], distances: Dict[str, Dict[str, float]]):
        self._next_hops = next_hops
        self._distances = distances
        #: (source, destination) -> reachable.  A table never changes (a
        #: topology change builds a new one), so an answer never goes stale.
        self._reachable: Dict[Tuple[str, str], bool] = {}

    def next_hop(self, at_node: str, destination: str) -> Optional[str]:
        """The neighbor to forward to at ``at_node`` toward ``destination``.

        Returns ``None`` when the destination is unreachable or is the
        current node itself.
        """
        if at_node == destination:
            return None
        table = self._next_hops.get(at_node)
        return None if table is None else table.get(destination)

    def distance(self, source: str, destination: str) -> float:
        """Latency-weighted shortest-path distance; ``inf`` if unreachable."""
        if source == destination:
            return 0.0
        table = self._distances.get(source)
        return UNREACHABLE if table is None else table.get(destination, UNREACHABLE)

    def path(self, source: str, destination: str) -> List[str]:
        """The full node sequence from ``source`` to ``destination``.

        Empty when unreachable; ``[source]`` when source == destination.
        """
        if source == destination:
            return [source]
        path = [source]
        current = source
        seen = {source}
        while current != destination:
            hop = self.next_hop(current, destination)
            if hop is None or hop in seen:
                return []
            path.append(hop)
            seen.add(hop)
            current = hop
        return path

    def hop_count(self, source: str, destination: str) -> int:
        """Number of links on the path; -1 when unreachable."""
        path = self.path(source, destination)
        return len(path) - 1 if path else -1

    def reachable(self, source: str, destination: str) -> bool:
        """True when a path exists (every redirect asks; memoized)."""
        key = (source, destination)
        known = self._reachable.get(key)
        if known is None:
            known = self._reachable[key] = bool(self.path(source, destination))
        return known


def compute_routes(topology) -> RoutingTable:
    """Build all-pairs next-hop tables for ``topology``.

    Edge weight is the link's one-way propagation delay, matching what a
    latency-optimizing IGP would converge to.  Deterministic: equal-cost
    ties follow :func:`~repro.net.graph.dijkstra`'s contract (adjacency
    insertion order, then heap push order), so repeated runs route
    identically.
    """
    graph = topology.graph
    # The weighted copy is built from the edge list, so its adjacency order
    # (which the tie-breaks follow) is the edge order, not the topology's.
    weighted = Graph()
    for a, b, data in graph.edges(data=True):
        weighted.add_edge(a, b, weight=data["spec"].propagation_s)
    for node in graph.nodes:
        weighted.add_node(node)

    next_hops: Dict[str, Dict[str, str]] = {}
    distances: Dict[str, Dict[str, float]] = {}
    for source in sorted(weighted.nodes):
        distances[source], next_hops[source] = dijkstra(weighted, source)
    return RoutingTable(next_hops, distances)
