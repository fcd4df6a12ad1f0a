"""Network substrate: event simulation, topologies, links and routing.

This subpackage provides the "testbed" the DIFANE paper ran on:

* :mod:`repro.net.events` — a deterministic discrete-event scheduler plus a
  rate-limited FIFO service station (the queueing primitive that models
  controller CPUs and switch redirect capacity).
* :mod:`repro.net.links` — point-to-point links with propagation and
  serialization delay.
* :mod:`repro.net.graph` — an insertion-ordered undirected graph with
  Dijkstra, BFS, closeness centrality and connected components, whose
  results (equal-cost tie-breaks included) equal networkx's.
* :mod:`repro.net.topology` — topology builders (linear, star, three-tier
  campus, Waxman random) over :class:`~repro.net.graph.Graph`.
* :mod:`repro.net.routing` — link-state shortest-path next-hop tables.
* :mod:`repro.net.simnet` — the harness binding switches, links and the
  scheduler into a runnable network.
"""

from repro.net.events import EventScheduler, ServiceStation
from repro.net.links import Link, LinkSpec
from repro.net.topology import Topology, TopologyBuilder
from repro.net.routing import RoutingTable, compute_routes
from repro.net.simnet import SimNetwork, DeliveryRecord
from repro.net.failures import FailureInjector
from repro.net.chaos import ChaosSchedule, ChaosSpec

__all__ = [
    "ChaosSchedule",
    "ChaosSpec",
    "EventScheduler",
    "ServiceStation",
    "Link",
    "LinkSpec",
    "Topology",
    "TopologyBuilder",
    "RoutingTable",
    "compute_routes",
    "SimNetwork",
    "DeliveryRecord",
    "FailureInjector",
]
