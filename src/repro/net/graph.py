"""Undirected graphs and the graph algorithms the simulator runs.

Topologies, routing and authority placement need an insertion-ordered
adjacency, a weighted Dijkstra, a BFS, closeness centrality and connected
components: exactly those, with networkx's iteration order and arithmetic,
so every result equals networkx's bit for bit (``tests/test_graph.py``
runs networkx as the oracle).

Ordering contract:

* nodes iterate in insertion order; a node's neighbours in the order their
  edges were added, so ``remove_edge`` then ``add_edge`` (a link flap)
  moves each endpoint to the end of the other's adjacency.
* ``edges`` yields each edge once, as ``(u, v)`` with ``u`` first in node
  order, grouped by ``u`` and following ``u``'s adjacency.
* :func:`dijkstra` pops a heap of ``(distance, push counter, node)`` and
  relaxes neighbours in adjacency order; a node keeps the predecessor that
  first reached it at its final distance.  Equal-cost ties are therefore
  broken by adjacency insertion order and then by heap push order, never
  by node name.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Dict, Hashable, Iterable, Iterator, Set, Tuple

__all__ = [
    "Graph", "bfs_lengths", "closeness_centrality", "connected_components",
    "dijkstra", "is_connected",
]


class _AdjacencyView:
    __slots__ = ("_adj",)

    def __init__(self, adj: Dict[Hashable, Dict[Hashable, dict]]):
        self._adj = adj


class _Edges(_AdjacencyView):
    """``graph.edges``: ``(u, v)`` pairs; ``edges[u, v]`` is the data dict."""

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        seen = set()
        for u, nbrs in self._adj.items():
            for v, attrs in nbrs.items():
                if v not in seen:
                    yield (u, v, attrs) if data else (u, v)
            seen.add(u)

    def __iter__(self) -> Iterator[tuple]:
        return self()

    def __getitem__(self, edge: Tuple[Hashable, Hashable]) -> dict:
        u, v = edge
        return self._adj[u][v]


class _Degree(_AdjacencyView):
    """``graph.degree[n]``: the number of ``n``'s neighbours."""

    def __getitem__(self, node: Hashable) -> int:
        return len(self._adj[node])


class Graph:
    """An insertion-ordered undirected graph without self-loops; both
    directions of an edge share one data dict."""

    def __init__(self):
        self._adj: Dict[Hashable, Dict[Hashable, dict]] = {}
        self.nodes: Dict[Hashable, dict] = {}
        self.edges = _Edges(self._adj)
        self.degree = _Degree(self._adj)

    def add_node(self, node: Hashable, **attrs) -> None:
        """Add ``node`` (or update its attributes when present)."""
        self._adj.setdefault(node, {})
        self.nodes.setdefault(node, {}).update(attrs)

    def add_edge(self, u: Hashable, v: Hashable, **attrs) -> None:
        """Add the ``u``–``v`` edge (and missing endpoints); update its data."""
        self.add_node(u)
        self.add_node(v)
        data = self._adj[u].get(v, {})
        data.update(attrs)
        self._adj[u][v] = self._adj[v][u] = data

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Remove the ``u``–``v`` edge; ``KeyError`` when absent."""
        del self._adj[u][v]
        del self._adj[v][u]

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._adj[node])

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def subgraph(self, nodes: Iterable[Hashable]) -> "Graph":
        """A copy induced on ``nodes``, keeping this graph's orders."""
        keep = set(nodes)
        sub = Graph()
        for node, attrs in self.nodes.items():
            if node in keep:
                sub.add_node(node, **attrs)
                sub._adj[node] = {v: d for v, d in self._adj[node].items() if v in keep}
        return sub

    def __contains__(self, node: Hashable) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)


def dijkstra(graph: Graph, source: Hashable) -> Tuple[dict, dict]:
    """Shortest weighted lengths and first hops from ``source``.

    Every edge needs a ``weight`` attribute.  Both dicts are in settle
    order and the first hops omit ``source``.  The lengths (order included)
    and each ``first_hops[n]`` (``path[1]``) equal those of
    ``networkx.single_source_dijkstra``; its ``paths`` dict is in settle
    order only from networkx 3.6 on (earlier releases order it by first
    push), so first-hop order is compared with the lengths' order.
    """
    lengths, first_hops, via, reached = {}, {}, {}, {source: 0}
    counter = itertools.count()
    fringe = [(0, next(counter), source)]
    while fringe:
        length, _, node = heappop(fringe)
        if node in lengths:
            continue
        lengths[node] = length
        hop = via.get(node)
        if hop is not None:
            first_hops[node] = hop
        for nbr, data in graph._adj[node].items():
            nbr_length = length + data["weight"]
            if nbr not in lengths and (nbr not in reached or nbr_length < reached[nbr]):
                reached[nbr] = nbr_length
                heappush(fringe, (nbr_length, next(counter), nbr))
                via[nbr] = nbr if hop is None else hop
    return lengths, first_hops


def bfs_lengths(graph: Graph, source: Hashable) -> Dict[Hashable, int]:
    """Hop counts from ``source`` to every reachable node, in BFS order."""
    lengths = {source: 0}
    queue = [source]
    for node in queue:  # the list grows while it is walked: a FIFO queue
        for nbr in graph._adj[node]:
            if nbr not in lengths:
                lengths[nbr] = lengths[node] + 1
                queue.append(nbr)
    return lengths


def closeness_centrality(graph: Graph) -> Dict[Hashable, float]:
    """networkx's ``closeness_centrality`` (``wf_improved``), same floats."""
    size = len(graph)
    result = {}
    for node in graph:
        lengths = bfs_lengths(graph, node)
        total = sum(lengths.values())
        centrality = 0.0
        if total > 0.0 and size > 1:
            centrality = (len(lengths) - 1.0) / total
            centrality *= (len(lengths) - 1.0) / (size - 1)
        result[node] = centrality
    return result


def connected_components(graph: Graph) -> Iterator[Set[Hashable]]:
    """Node sets of the components, ordered by each one's first node."""
    seen: Set[Hashable] = set()
    for node in graph:
        if node not in seen:
            component = set(bfs_lengths(graph, node))
            seen.update(component)
            yield component


def is_connected(graph: Graph) -> bool:
    """True when every node reaches every other (and for the empty graph)."""
    return not graph or len(next(connected_components(graph))) == len(graph)
