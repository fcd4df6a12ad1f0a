"""The runnable network: topology + links + switches + event loop.

:class:`SimNetwork` owns the mechanics — link transmission, packet hand-off
between nodes, delivery/drop accounting, and control-message latency — and
stays policy-free.  Switch behaviour (DIFANE pipeline, NOX microflow table)
lives in node objects registered via :meth:`register_node`; each must
expose ``name`` and ``handle_packet(network, packet)``; links call its
``receive(packet)`` directly when it has one.

Forwarding convention
---------------------
Rule actions name *destinations*, not physical ports: ``Forward("h7")``
means "send toward host h7".  Switches resolve the next hop through the
network's routing table each time, so topology changes re-route cached
flows without touching rules — exactly the separation DIFANE argues for
(partitioning is topology-independent; reachability is link-state).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.flowspace.packet import Packet
from repro.net.events import EventScheduler
from repro.net.links import Link
from repro.net.routing import UNREACHABLE, RoutingTable, compute_routes
from repro.net.topology import Topology
from repro.obs import context as _obs_context
from repro.obs.attribution import attribute_reason
from repro.obs.qos import delay_bucket
from repro.obs.registry import Collectable
from repro.obs.trace import TraceKind

__all__ = ["SimNetwork", "DeliveryRecord"]

#: Fixed per-control-message processing overhead (encode/decode, handler).
CONTROL_OVERHEAD_S = 20e-6


class DeliveryRecord:
    """Outcome of one packet's trip through the network.

    A retaining :class:`DeliveryLog` keeps one record per terminal packet
    — the hottest allocation after :class:`Packet` itself on such a run —
    so this is a ``__slots__`` class rather than a dataclass (no
    per-instance dict; see ``bench_perf_core``'s packet-struct
    micro-benchmark).  A streaming reader builds none.
    """

    __slots__ = (
        "packet_id", "flow_id", "created_at", "finished_at", "delivered",
        "hops", "via_authority", "via_controller", "ingress_switch",
        "endpoint", "drop_reason",
    )

    def __init__(
        self,
        packet_id: int,
        flow_id: Optional[int],
        created_at: float,
        finished_at: float,
        delivered: bool,
        hops: int,
        via_authority: bool,
        via_controller: bool,
        ingress_switch: Optional[str],
        endpoint: Optional[str],
        drop_reason: Optional[str] = None,
    ):
        self.packet_id = packet_id
        self.flow_id = flow_id
        self.created_at = created_at
        self.finished_at = finished_at
        self.delivered = delivered
        self.hops = hops
        self.via_authority = via_authority
        self.via_controller = via_controller
        self.ingress_switch = ingress_switch
        self.endpoint = endpoint
        self.drop_reason = drop_reason

    @property
    def delay(self) -> float:
        """End-to-end latency in seconds (delivery or drop time)."""
        return self.finished_at - self.created_at

    def __repr__(self) -> str:
        outcome = "delivered" if self.delivered else f"dropped({self.drop_reason})"
        return (
            f"DeliveryRecord(packet_id={self.packet_id}, flow_id={self.flow_id}, "
            f"{outcome} at {self.endpoint} t={self.finished_at:.6f})"
        )


class DeliveryLog:
    """The outcome reader that keeps records: a list of :class:`DeliveryRecord`.

    A :class:`SimNetwork` hands every delivery and drop to one reader
    through two methods, and this log is its default:

    * ``observe_delivery(packet, endpoint, now)`` — ``packet`` was
      delivered at ``endpoint`` at simulated time ``now``;
    * ``observe_drop(packet, where, reason, now)`` — ``packet`` was
      dropped at node ``where`` for ``reason``.

    A reader that keeps no per-packet row (:mod:`repro.obs.sketch`'s
    :class:`~repro.obs.sketch.DeliveryReader` and its subclasses) takes
    the log's place through :meth:`SimNetwork.read_outcomes_with`.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: List[DeliveryRecord] = []

    def observe_delivery(self, packet: Packet, endpoint: str, now: float) -> None:
        self.append(
            DeliveryRecord(
                packet_id=packet.packet_id,
                flow_id=packet.flow_id,
                created_at=packet.created_at or 0.0,
                finished_at=now,
                delivered=True,
                hops=packet.hops,
                via_authority=packet.via_authority,
                via_controller=packet.via_controller,
                ingress_switch=packet.ingress_switch,
                endpoint=endpoint,
            )
        )

    def observe_drop(self, packet: Packet, where: str, reason: str, now: float) -> None:
        self.append(
            DeliveryRecord(
                packet_id=packet.packet_id,
                flow_id=packet.flow_id,
                created_at=packet.created_at or 0.0,
                finished_at=now,
                delivered=False,
                hops=packet.hops,
                via_authority=packet.via_authority,
                via_controller=packet.via_controller,
                ingress_switch=packet.ingress_switch,
                endpoint=where,
                drop_reason=reason,
            )
        )

    def append(self, record: DeliveryRecord) -> None:
        self._entries.append(record)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index):
        return self._entries[index]

    def __repr__(self) -> str:
        return f"<DeliveryLog {len(self)} outcomes>"


class SimNetwork(Collectable):
    """Bind a topology, its links, node behaviours and an event scheduler."""

    def __init__(
        self,
        topology: Topology,
        scheduler: Optional[EventScheduler] = None,
        loss_seed: int = 0,
        metrics=None,
        tracer=None,
        profiler=None,
        telemetry=None,
    ):
        self.topology = topology
        #: Observability surfaces: default to the active run context so
        #: every network built during one run reports into one registry
        #: (see :mod:`repro.obs.context`); pass explicit objects to
        #: isolate or disable (the overhead bench does both).
        context = _obs_context.current()
        self.metrics = metrics if metrics is not None else context.metrics
        self.tracer = tracer if tracer is not None else context.tracer
        self.profiler = profiler if profiler is not None else context.profiler
        self.telemetry = telemetry if telemetry is not None else context.telemetry
        self.scheduler = scheduler or EventScheduler(
            profiler=self.profiler, telemetry=self.telemetry
        )
        self.routes: RoutingTable = compute_routes(topology)
        #: Seed mixed into every link's private loss/jitter RNG.
        self.loss_seed = loss_seed
        self._nodes: Dict[str, object] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        #: (at node, destination) -> outgoing Link, filled lazily per hop
        #: and valid for one routing epoch (cleared by rebuild_routes).
        self._next_link: Dict[Tuple[str, str], Link] = {}
        #: host -> attached switch, filled lazily by inject_from_host and
        #: valid for one routing epoch (cleared by rebuild_routes).
        self._attachment: Dict[str, str] = {}
        #: The one outcome reader: a retaining DeliveryLog unless
        #: read_outcomes_with replaced it.
        self.deliveries = DeliveryLog()
        self.packets_injected = 0
        self.packets_delivered = 0
        self.control_messages_sent = 0
        # The registry reads these counts when asked; drop reasons have
        # no attribute twin, so their children are bound lazily.
        self.metrics.collect("packets_injected_total", self, "packets_injected")
        self.metrics.collect("packets_delivered_total", self, "packets_delivered")
        self.metrics.collect("control_messages_total", self, "control_messages_sent")
        self._m_dropped: Dict[str, object] = {}
        # Per-class QoS outcome accounting — only active when the run
        # context carries a policy; children bound lazily per class.
        self.qos = context.qos
        self._q_delivered: Dict[str, object] = {}
        self._q_dropped: Dict[str, object] = {}
        self._q_delay: Dict[Tuple[str, str], object] = {}
        # Host membership, read when a link's receiver is bound.  Refreshed
        # on every topology change (all of which funnel through
        # rebuild_routes).
        self._hosts = frozenset(topology.hosts())
        self._build_links()

    # -- wiring ---------------------------------------------------------------
    def _make_link(self, a: str, b: str, spec) -> Link:
        return Link(
            a, b, spec, self.scheduler, self._receiver(b),
            on_loss=self._link_loss, seed=self.loss_seed,
        )

    def _receiver(self, name: str) -> Callable:
        """``deliver(packet)`` for arrivals at ``name``: a host records the
        delivery, a node with ``receive`` takes the packet, and anything
        else goes through :meth:`_arrive`, which looks it up per packet."""
        if name in self._hosts:
            return partial(self.record_delivery, endpoint=name)
        receive = getattr(self._nodes.get(name), "receive", None)
        return receive if receive is not None else partial(self._arrive, name)

    def _build_links(self) -> None:
        for a, b, data in self.topology.graph.edges(data=True):
            spec = data["spec"]
            self._links[(a, b)] = self._make_link(a, b, spec)
            self._links[(b, a)] = self._make_link(b, a, spec)

    def register_node(self, node) -> None:
        """Attach a behaviour object for a switch node.

        ``node.name`` must be a switch in the topology; hosts are handled
        by the network itself (arrival = delivery).
        """
        if node.name not in self.topology.graph:
            raise KeyError(f"{node.name!r} is not in the topology")
        self._nodes[node.name] = node
        attach = getattr(node, "attach", None)
        if attach is not None:
            attach(self)
        receiver = self._receiver(node.name)
        for neighbor in self.topology.graph.neighbors(node.name):
            link = self._links.get((neighbor, node.name))
            if link is not None:
                link.deliver = receiver

    def node(self, name: str):
        """The behaviour object registered for ``name``."""
        return self._nodes[name]

    def maybe_node(self, name: str):
        """The behaviour object for ``name``, or ``None`` when unregistered."""
        return self._nodes.get(name)

    def switch_alive(self, name: str) -> bool:
        """Liveness of a switch behaviour (unregistered counts as alive).

        The control plane's oracle view: chaos marks a killed switch's
        behaviour ``alive = False``, and the rebalancer / invariant
        checker consult this rather than duplicating the attribute walk.
        """
        behaviour = self._nodes.get(name)
        return behaviour is None or getattr(behaviour, "alive", True)

    def rebuild_routes(self) -> None:
        """Recompute routing after a topology change (link-state convergence).

        Also syncs the link objects: edges added to the topology (e.g. a
        host re-homing) gain links, removed edges lose them.  Packets
        already in flight on a removed link still arrive — exactly like a
        real wire draining.
        """
        self._hosts = frozenset(self.topology.hosts())
        current = set()
        for a, b, data in self.topology.graph.edges(data=True):
            current.add((a, b))
            current.add((b, a))
            for pair in ((a, b), (b, a)):
                if pair not in self._links:
                    self._links[pair] = self._make_link(pair[0], pair[1], data["spec"])
        for pair in [p for p in self._links if p not in current]:
            del self._links[pair]
        self.routes = compute_routes(self.topology)
        self._next_link.clear()
        self._attachment.clear()

    # -- packet movement -------------------------------------------------------
    def inject_from_host(self, host: str, packet: Packet) -> None:
        """Emit ``packet`` from ``host`` toward its attached switch, now."""
        packet.created_at = self.scheduler.now
        attachment = self._attachment.get(host)
        if attachment is None:
            attachment = self._attachment[host] = self.topology.host_attachment(host)
        packet.ingress_switch = attachment
        self.packets_injected += 1
        if self.tracer.enabled:
            self.tracer.record(self.scheduler.now, TraceKind.INGRESS, packet, node=host)
        self.transmit(host, attachment, packet)

    def inject_at_switch(self, switch: str, packet: Packet) -> None:
        """Hand ``packet`` directly to ``switch`` (saves the host hop)."""
        packet.created_at = self.scheduler.now
        packet.ingress_switch = switch
        self.packets_injected += 1
        if self.tracer.enabled:
            self.tracer.record(self.scheduler.now, TraceKind.INGRESS, packet, node=switch)
        self._receiver(switch)(packet)

    def inject_batch_at_switch(self, switch: str, packets: List[Packet]) -> None:
        """Hand a same-instant burst of packets directly to ``switch``.

        Every packet is stamped and traced as ingress before the first is
        processed, then goes to the switch's receiver in list order.
        """
        now = self.scheduler.now
        for packet in packets:
            packet.created_at = now
            packet.ingress_switch = switch
        self.packets_injected += len(packets)
        if self.tracer.enabled:
            for packet in packets:
                self.tracer.record(now, TraceKind.INGRESS, packet, node=switch)
        receive = self._receiver(switch)
        for packet in packets:
            receive(packet)

    def transmit(self, from_node: str, to_node: str, packet: Packet) -> None:
        """Send ``packet`` over the ``from_node`` → ``to_node`` link."""
        link = self._links.get((from_node, to_node))
        if link is None:
            self.record_drop(packet, from_node, f"no link {from_node}->{to_node}")
            return
        packet.hops += 1
        link.send(packet)

    def forward_toward(self, at_node: str, destination: str, packet: Packet) -> None:
        """Forward one hop along the shortest path to ``destination``."""
        link = self._next_link.get((at_node, destination))
        if link is not None:
            packet.hops += 1
            link.send(packet)
            return
        if at_node == destination:
            self._arrive(destination, packet)
            return
        hop = self.routes.next_hop(at_node, destination)
        if hop is None:
            self.record_drop(packet, at_node, f"unreachable {destination}")
            return
        link = self._links.get((at_node, hop))
        if link is not None:
            self._next_link[(at_node, destination)] = link
        self.transmit(at_node, hop, packet)

    def _link_loss(self, link: Link, packet: Packet) -> None:
        """A lossy link ate ``packet``: attribute it distinctly from routing
        black-holes so timelines can separate loss from unreachability."""
        self.record_drop(
            packet, link.source, f"link loss {link.source}->{link.destination}"
        )

    def set_link_faults(
        self,
        a: str,
        b: str,
        loss_probability: Optional[float] = None,
        jitter_s: Optional[float] = None,
    ) -> None:
        """Override the live loss/jitter of both directions of ``a``–``b``.

        Used by chaos schedules for loss bursts; ``None`` leaves a
        parameter unchanged.  Raises ``KeyError`` when the link is down.
        """
        for pair in ((a, b), (b, a)):
            link = self._links[pair]
            if loss_probability is not None:
                link.loss_probability = loss_probability
            if jitter_s is not None:
                link.jitter_s = jitter_s

    def _arrive(self, node_name: str, packet: Packet) -> None:
        """The fallback receiver for a switch (see :meth:`_receiver`)."""
        behaviour = self._nodes.get(node_name)
        if behaviour is None:
            self.record_drop(packet, node_name, "no behaviour registered")
            return
        behaviour.handle_packet(self, packet)

    # -- control-plane messaging ---------------------------------------------------
    def send_control(self, from_node: str, to_node: str, handler: Callable, *args) -> None:
        """Deliver a control message after routed latency plus overhead.

        Used for DIFANE's in-band cache installs (authority → ingress) and
        by the OpenFlow channel model for switch ↔ controller traffic.
        """
        distance = self.routes.distance(from_node, to_node)
        if distance == UNREACHABLE:
            return
        self.control_messages_sent += 1
        self.scheduler.schedule(distance + CONTROL_OVERHEAD_S, handler, *args)

    # -- accounting -------------------------------------------------------------------
    def _qos_outcome(
        self, header_bits: int, delivered: bool, via_authority: bool, delay: float
    ) -> None:
        """Per-class delivery/drop/latency accounting (QoS active only).

        Redirect latency is observed as a histogram bucket counter per
        class — bucket counts are integer, order-free and mergeable, so
        per-class quantiles survive the ``--jobs N`` byte-identity rule
        where a true per-sample quantile would not.  Only packets that
        actually crossed an authority (``via_authority``) land in the
        latency histogram: cache hits never paid a redirect.
        """
        cls = self.qos.classifier.classify_bits(header_bits)
        if delivered:
            child = self._q_delivered.get(cls)
            if child is None:
                child = self.metrics.counter("qos_delivered_total", flow_class=cls)
                self._q_delivered[cls] = child
            child.inc()
            if via_authority:
                label = delay_bucket(delay)
                key = (cls, label)
                bucket = self._q_delay.get(key)
                if bucket is None:
                    bucket = self.metrics.counter(
                        "qos_redirect_delay_bucket_total", flow_class=cls, le=label
                    )
                    self._q_delay[key] = bucket
                bucket.inc()
        else:
            child = self._q_dropped.get(cls)
            if child is None:
                child = self.metrics.counter("qos_dropped_total", flow_class=cls)
                self._q_dropped[cls] = child
            child.inc()

    def record_delivery(self, packet: Packet, endpoint: str) -> None:
        """Record a successful delivery at ``endpoint``."""
        self.packets_delivered += 1
        now = self.scheduler.now
        if self.qos is not None:
            self._qos_outcome(
                packet.header_bits, True, packet.via_authority,
                now - (packet.created_at or 0.0),
            )
        if self.tracer.enabled:
            self.tracer.record(now, TraceKind.DELIVERED, packet, node=endpoint)
        self.deliveries.observe_delivery(packet, endpoint, now)

    def record_drop(self, packet: Packet, where: str, reason: str) -> None:
        """Record a packet loss at ``where``."""
        if self.qos is not None:
            self._qos_outcome(packet.header_bits, False, packet.via_authority, 0.0)
        bucket = attribute_reason(reason)
        child = self._m_dropped.get(bucket)
        if child is None:
            child = self.metrics.counter("packets_dropped_total", reason=bucket)
            self._m_dropped[bucket] = child
        child.inc()
        now = self.scheduler.now
        if self.tracer.enabled:
            self.tracer.record(now, TraceKind.DROPPED, packet, node=where, detail=reason)
        self.deliveries.observe_drop(packet, where, reason, now)

    def read_outcomes_with(self, reader) -> None:
        """Hand every later delivery and drop to ``reader`` (see
        :class:`DeliveryLog` for the two methods) instead of keeping
        records; ``deliveries`` becomes ``reader``.

        Refused once any outcome has landed: the outcomes would split
        between two readers.
        """
        # _m_dropped gains its first child on this network's first drop.
        if self.packets_delivered or self._m_dropped:
            raise RuntimeError("cannot replace the outcome reader after an outcome landed")
        self.deliveries = reader

    # -- convenience --------------------------------------------------------------------
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the event loop (see :meth:`EventScheduler.run`)."""
        return self.scheduler.run(until=until, max_events=max_events)

    def delivered(self) -> List[DeliveryRecord]:
        """All successful deliveries so far."""
        return [r for r in self.deliveries if r.delivered]

    def dropped(self) -> List[DeliveryRecord]:
        """All drops so far."""
        return [r for r in self.deliveries if not r.delivered]

    def link(self, a: str, b: str) -> Link:
        """The directional link object ``a`` → ``b``."""
        return self._links[(a, b)]

    def __repr__(self) -> str:
        return (
            f"<SimNetwork {len(self.topology.switches())} switches "
            f"t={self.scheduler.now:.6f}s {self.packets_delivered} delivered>"
        )
