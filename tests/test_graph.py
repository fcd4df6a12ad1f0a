"""repro.net.graph against networkx, which serves as the oracle here.

Random operation sequences (link flaps included) are applied to a
``networkx.Graph`` and to ours from the same draw; every order, length,
first hop and centrality float must be equal with ``==``.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

import networkx as nx
from hypothesis import given, settings, strategies as st

import repro
from repro.net import TopologyBuilder, compute_routes
from repro.net.graph import (
    Graph,
    bfs_lengths,
    closeness_centrality,
    connected_components,
    dijkstra,
    is_connected,
)

NAMES = [f"n{i}" for i in range(7)]
#: Few distinct weights, mostly one, so equal-cost paths are common.
WEIGHTS = [1.0, 1.0, 1.0, 2.0, 1e-5]

EDGE = st.tuples(
    st.just("edge"), st.sampled_from(NAMES), st.sampled_from(NAMES),
    st.sampled_from(WEIGHTS),
)
#: A dense start, then edits: nodes, edges, removals and flaps.
OPERATIONS = st.builds(
    lambda start, edits: start + edits,
    st.lists(EDGE, min_size=6, max_size=24),
    st.lists(
        st.one_of(
            EDGE,
            st.tuples(st.just("node"), st.sampled_from(NAMES), st.booleans()),
            st.tuples(st.just("remove"), st.integers(0, 63)),
            st.tuples(st.just("flap"), st.integers(0, 63)),
        ),
        max_size=24,
    ),
)


def settled_first_hops(lengths, paths):
    """``path[1]`` per destination, in settle order.

    ``lengths`` is in settle order in every networkx release; ``paths`` is
    only from 3.6 on (earlier releases order it by first push).
    """
    return {d: paths[d][1] for d in lengths if len(paths[d]) >= 2}


def build(operations):
    """The same operation sequence applied to networkx's graph and ours."""
    theirs, ours = nx.Graph(), Graph()
    for op in operations:
        if op[0] == "node":
            attrs = {"role": "switch"} if op[2] else {}
            for graph in (theirs, ours):
                graph.add_node(op[1], **attrs)
        elif op[0] == "edge":
            _, u, v, weight = op
            if u != v:
                for graph in (theirs, ours):
                    graph.add_edge(u, v, weight=weight)
        else:
            edges = list(theirs.edges)
            if not edges:
                continue
            u, v = edges[op[1] % len(edges)]
            weight = theirs.edges[u, v]["weight"]
            for graph in (theirs, ours):
                graph.remove_edge(u, v)
                if op[0] == "flap":     # re-added: moves to the adjacency's end
                    graph.add_edge(v, u, weight=weight)
    return theirs, ours


class TestAgainstNetworkx:
    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_structure_and_order(self, operations):
        theirs, ours = build(operations)
        assert list(ours) == list(theirs) == list(ours.nodes)
        assert len(ours) == len(theirs)
        assert list(ours.nodes.items()) == list(theirs.nodes(data=True))
        assert list(ours.edges) == list(theirs.edges)
        assert list(ours.edges(data=True)) == list(theirs.edges(data=True))
        assert ours.number_of_edges() == theirs.number_of_edges()
        for node in theirs:
            assert node in ours
            assert list(ours.neighbors(node)) == list(theirs.neighbors(node))
            assert ours.degree[node] == theirs.degree[node]
            assert ours.nodes[node] == theirs.nodes[node]
            for other in NAMES:
                assert ours.has_edge(node, other) == theirs.has_edge(node, other)
        for u, v in theirs.edges:
            assert ours.edges[u, v] == theirs.edges[u, v]
            assert ours.edges[v, u] is ours.edges[u, v]

    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_dijkstra_lengths_and_first_hops(self, operations):
        theirs, ours = build(operations)
        for source in theirs:
            lengths, paths = nx.single_source_dijkstra(theirs, source, weight="weight")
            first_hops = settled_first_hops(lengths, paths)
            got_lengths, got_first_hops = dijkstra(ours, source)
            assert list(got_lengths.items()) == list(lengths.items())
            assert list(got_first_hops.items()) == list(first_hops.items())

    @settings(max_examples=150, deadline=None)
    @given(operations=OPERATIONS)
    def test_bfs_components_and_centrality(self, operations):
        theirs, ours = build(operations)
        for source in theirs:
            expected = nx.single_source_shortest_path_length(theirs, source)
            assert list(bfs_lengths(ours, source).items()) == list(expected.items())
        assert list(connected_components(ours)) == list(nx.connected_components(theirs))
        if len(theirs):
            assert is_connected(ours) == nx.is_connected(theirs)
        assert closeness_centrality(ours) == nx.closeness_centrality(theirs)
        # Placement ranks an induced subgraph (the switches).
        kept = NAMES[::2]
        their_sub, our_sub = theirs.subgraph(kept), ours.subgraph(kept)
        assert set(our_sub) == set(their_sub)
        assert {frozenset(e) for e in our_sub.edges} == {
            frozenset(e) for e in their_sub.edges
        }
        assert closeness_centrality(our_sub) == nx.closeness_centrality(their_sub)

    def test_equal_cost_keeps_the_first_predecessor(self):
        graph = Graph()
        for u, v in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]:
            graph.add_edge(u, v, weight=1.0)
        assert dijkstra(graph, "a")[1]["d"] == "b"  # not the later "c" path
        graph.remove_edge("a", "b")
        graph.add_edge("a", "b", weight=1.0)        # flap: b now after c
        assert dijkstra(graph, "a")[1]["d"] == "c"

    def test_empty_graph(self):
        graph = Graph()
        assert is_connected(graph)
        assert list(connected_components(graph)) == []
        assert closeness_centrality(graph) == {}


def networkx_routes(topology):
    """compute_routes computed by networkx, first hops in settle order: the routing oracle."""
    weighted = nx.Graph()
    for a, b, data in topology.graph.edges(data=True):
        weighted.add_edge(a, b, weight=data["spec"].propagation_s)
    for node in topology.graph.nodes:
        weighted.add_node(node)
    next_hops, distances = {}, {}
    for source in sorted(weighted.nodes):
        lengths, paths = nx.single_source_dijkstra(weighted, source, weight="weight")
        next_hops[source] = settled_first_hops(lengths, paths)
        distances[source] = lengths
    return next_hops, distances


class TestRoutesAgainstNetworkx:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), flaps=st.lists(st.integers(0, 999), max_size=6))
    def test_flapped_topologies_route_identically(self, seed, flaps):
        """Campus links share specs (ties everywhere); Waxman ones do not."""
        for topo in (
            TopologyBuilder.three_tier_campus(2, 3, 2, 1),
            TopologyBuilder.waxman(10, seed=seed),
        ):
            for index in flaps:
                links = [(a, b) for a, b in topo.graph.edges]
                a, b = links[index % len(links)]
                spec = topo.link_spec(a, b)
                topo.remove_link(a, b)
                topo.add_link(b, a, spec)
            routes = compute_routes(topo)
            next_hops, distances = networkx_routes(topo)
            assert list(routes._next_hops) == list(next_hops)
            for source in next_hops:
                assert list(routes._next_hops[source].items()) == list(
                    next_hops[source].items()
                )
                assert list(routes._distances[source].items()) == list(
                    distances[source].items()
                )


def test_run_path_never_imports_networkx():
    """The CLI and every benchmarked experiment import without networkx."""
    child = textwrap.dedent("""
        import sys
        import repro.cli
        import repro.experiments.streaming
        import repro.experiments.cachingablation
        import repro.experiments.qos
        import repro.experiments.chaos
        import repro.experiments.caching
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "networkx")
        assert not loaded, loaded
    """)
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr.decode()
