"""Topology construction.

A :class:`Topology` is an undirected :class:`~repro.net.graph.Graph`
whose nodes are named switches and hosts, with a
:class:`~repro.net.links.LinkSpec` per edge.  :class:`TopologyBuilder`
provides the shapes used across the evaluation:

* ``linear`` / ``star`` — micro-benchmarks and worked examples;
* ``three_tier_campus`` — the enterprise topology the paper evaluates on
  (access / distribution / core tiers, hosts on access switches);
* ``waxman`` — random geometric graphs for placement-sensitivity studies.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional

from repro.net.graph import Graph, connected_components, is_connected
from repro.net.links import LinkSpec

__all__ = ["Topology", "TopologyBuilder"]

#: Node roles stored on the graph.
SWITCH = "switch"
HOST = "host"


class Topology:
    """A named-node topology with per-edge link specs and node roles."""

    def __init__(self):
        self.graph = Graph()

    # -- construction ---------------------------------------------------------
    def add_switch(self, name: str, **attrs) -> str:
        """Add a switch node; returns the name for chaining."""
        self.graph.add_node(name, role=SWITCH, **attrs)
        return name

    def add_host(self, name: str, attached_to: str, spec: Optional[LinkSpec] = None) -> str:
        """Add a host attached to switch ``attached_to``."""
        if attached_to not in self.graph:
            raise KeyError(f"unknown switch {attached_to!r}")
        self.graph.add_node(name, role=HOST)
        self.add_link(name, attached_to, spec or LinkSpec(propagation_s=5e-6))
        return name

    def add_link(self, a: str, b: str, spec: Optional[LinkSpec] = None) -> None:
        """Connect two existing nodes."""
        for node in (a, b):
            if node not in self.graph:
                raise KeyError(f"unknown node {node!r}")
        self.graph.add_edge(a, b, spec=spec or LinkSpec())

    def remove_link(self, a: str, b: str) -> None:
        """Remove a link (used by the topology-change experiments)."""
        self.graph.remove_edge(a, b)

    def has_link(self, a: str, b: str) -> bool:
        """True when the ``a``–``b`` link currently exists."""
        return self.graph.has_edge(a, b)

    def links_of(self, name: str) -> List[tuple]:
        """Every live link at ``name`` as ``(name, neighbor, spec)`` triples."""
        return [
            (name, neighbor, self.graph.edges[name, neighbor]["spec"])
            for neighbor in self.graph.neighbors(name)
        ]

    # -- queries -------------------------------------------------------------------
    def switches(self) -> List[str]:
        """All switch names, in insertion order."""
        return [n for n, d in self.graph.nodes.items() if d.get("role") == SWITCH]

    def hosts(self) -> List[str]:
        """All host names, in insertion order."""
        return [n for n, d in self.graph.nodes.items() if d.get("role") == HOST]

    def edge_switches(self) -> List[str]:
        """Switches with at least one attached host (DIFANE's ingress/egress)."""
        hosts = set(self.hosts())
        return [
            switch for switch in self.switches()
            if any(n in hosts for n in self.graph.neighbors(switch))
        ]

    def host_attachment(self, host: str) -> str:
        """The switch a host hangs off."""
        for neighbor in self.graph.neighbors(host):
            if self.graph.nodes[neighbor].get("role") == SWITCH:
                return neighbor
        raise ValueError(f"host {host!r} is not attached to any switch")

    def link_spec(self, a: str, b: str) -> LinkSpec:
        """The spec of the ``a``–``b`` link."""
        return self.graph.edges[a, b]["spec"]

    def is_connected(self) -> bool:
        """True when every node can reach every other node."""
        return is_connected(self.graph)

    def __len__(self) -> int:
        return len(self.graph)

    def __repr__(self) -> str:
        return (
            f"<Topology {len(self.switches())} switches, "
            f"{len(self.hosts())} hosts, {self.graph.number_of_edges()} links>"
        )


class TopologyBuilder:
    """Factory methods for the topologies used by the experiments."""

    @staticmethod
    def linear(switch_count: int, hosts_per_switch: int = 1) -> Topology:
        """A chain s0 – s1 – ... with hosts on every switch."""
        if switch_count < 1:
            raise ValueError("need at least one switch")
        topo = Topology()
        for index in range(switch_count):
            topo.add_switch(f"s{index}")
            if index:
                topo.add_link(f"s{index - 1}", f"s{index}")
        host_id = itertools.count()
        for index in range(switch_count):
            for _ in range(hosts_per_switch):
                topo.add_host(f"h{next(host_id)}", f"s{index}")
        return topo

    @staticmethod
    def star(leaf_count: int, hosts_per_leaf: int = 1) -> Topology:
        """A hub switch with ``leaf_count`` edge switches around it."""
        topo = Topology()
        topo.add_switch("hub")
        host_id = itertools.count()
        for index in range(leaf_count):
            leaf = topo.add_switch(f"s{index}")
            topo.add_link("hub", leaf)
            for _ in range(hosts_per_leaf):
                topo.add_host(f"h{next(host_id)}", leaf)
        return topo

    @staticmethod
    def three_tier_campus(
        core_count: int = 2,
        distribution_count: int = 4,
        access_per_distribution: int = 4,
        hosts_per_access: int = 2,
        core_spec: Optional[LinkSpec] = None,
        access_spec: Optional[LinkSpec] = None,
    ) -> Topology:
        """The enterprise/campus shape the paper's deployment targets.

        Core switches form a full mesh; every distribution switch connects
        to every core switch; access switches dual-home to two distribution
        switches (when available); hosts hang off access switches.
        """
        topo = Topology()
        core_spec = core_spec or LinkSpec(propagation_s=20e-6, bandwidth_bps=10e9)
        dist_spec = LinkSpec(propagation_s=20e-6, bandwidth_bps=10e9)
        access_spec = access_spec or LinkSpec(propagation_s=10e-6, bandwidth_bps=1e9)

        cores = [topo.add_switch(f"core{i}") for i in range(core_count)]
        for a, b in itertools.combinations(cores, 2):
            topo.add_link(a, b, core_spec)

        distributions = []
        for index in range(distribution_count):
            dist = topo.add_switch(f"dist{index}")
            distributions.append(dist)
            for core in cores:
                topo.add_link(dist, core, dist_spec)

        host_id = itertools.count()
        access_id = itertools.count()
        for d_index, dist in enumerate(distributions):
            backup = distributions[(d_index + 1) % len(distributions)]
            for _ in range(access_per_distribution):
                access = topo.add_switch(f"acc{next(access_id)}")
                topo.add_link(access, dist, access_spec)
                if backup != dist:
                    topo.add_link(access, backup, access_spec)
                for _ in range(hosts_per_access):
                    topo.add_host(f"h{next(host_id)}", access)
        return topo

    @staticmethod
    def waxman(
        switch_count: int,
        hosts_per_switch: int = 1,
        alpha: float = 0.4,
        beta: float = 0.4,
        seed: int = 0,
    ) -> Topology:
        """A Waxman random graph, patched to be connected.

        Edge probability decays with Euclidean distance —
        ``p = alpha * exp(-d / (beta * L))`` — the standard synthetic-WAN
        model; used for authority-placement sensitivity.
        """
        rng = random.Random(seed)
        positions = {
            f"s{i}": (rng.random(), rng.random()) for i in range(switch_count)
        }
        topo = Topology()
        for name in positions:
            topo.add_switch(name)
        max_distance = math.sqrt(2.0)
        names = list(positions)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                ax, ay = positions[a]
                bx, by = positions[b]
                distance = math.hypot(ax - bx, ay - by)
                if rng.random() < alpha * math.exp(-distance / (beta * max_distance)):
                    spec = LinkSpec(propagation_s=distance * 1e-3)
                    topo.add_link(a, b, spec)
        # Patch connectivity: chain any disconnected components together.
        components = [sorted(c) for c in connected_components(topo.graph)]
        for first, second in zip(components, components[1:]):
            topo.add_link(first[0], second[0])
        host_id = itertools.count()
        for name in names:
            for _ in range(hosts_per_switch):
                topo.add_host(f"h{next(host_id)}", name)
        return topo
