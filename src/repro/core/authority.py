"""The DIFANE switch behaviour.

One class plays every role the paper gives a switch, because DIFANE's
architecture deliberately blurs them:

* **ingress** — first classification point for packets entering from a
  host: cache rules, then (local) authority rules, then partition rules;
* **transit** — encapsulated packets are forwarded toward their tunnel
  destination without reclassification;
* **authority** — packets tunnelled *to this switch* by a partition rule
  are matched against the authority rules, forwarded on toward their real
  destination (so even the first packet of a flow never waits), and a
  cache-install message is sent back to the ingress switch — entirely in
  the data plane, no controller involvement.

The authority miss path is capacity-bounded by a
:class:`~repro.net.events.ServiceStation` (``redirect_rate``): the paper's
prototype sustains ≈800 K single-packet flow redirects per second per
authority switch, and that queue is what the throughput experiments
saturate.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Optional

from repro.flowspace.action import Drop, Forward, SetField
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule, RuleKind
from repro.core.cachegen import (
    WinRegionTooLarge,
    cache_rule,
    generate_cache_rules,
)
from repro.net.events import ServiceStation
from repro.obs.qos import current_qos
from repro.obs.registry import NULL_METRIC
from repro.obs.trace import TraceKind
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    Heartbeat,
    Message,
    PacketIn,
    PacketOut,
)
from repro.switch.cache import CacheManager, EvictionPolicy
from repro.switch.pipeline import DifanePipeline, PipelineStage
from repro.switch.switch import DataPlaneSwitch

__all__ = ["DifaneSwitch"]

#: Calibrated authority-switch redirect capacity (single-packet flows/s).
#: Matches the headline number measured on the paper's kernel prototype.
DEFAULT_REDIRECT_RATE = 800_000.0

#: Ingress stage -> (switch statistic, per-class QoS statistic, trace kind).
_STAGE_ACCOUNTING = {
    PipelineStage.CACHE: ("cache_hits", "cache_hits", TraceKind.CACHE_HIT),
    PipelineStage.AUTHORITY: (
        "authority_hits", "authority_hits", TraceKind.AUTHORITY_HIT,
    ),
    PipelineStage.PARTITION: ("redirects_out", "redirects", TraceKind.REDIRECT),
}


def _sole_forward_port(rule: Rule) -> Optional[str]:
    """The port when ``rule``'s whole action list is one ``Forward``."""
    actions = rule.actions.actions
    if len(actions) == 1 and isinstance(actions[0], Forward):
        return actions[0].port
    return None


class DifaneSwitch(DataPlaneSwitch):
    """A switch running the DIFANE data-plane logic.

    Parameters
    ----------
    name:
        Topology node name.
    layout:
        Header layout of the installed rules.
    cache_capacity:
        Ingress cache size in TCAM entries (the cache experiments sweep
        this).  0 disables caching — every flow redirects forever.
    redirect_rate:
        Authority-path capacity in redirected packets/second; ``None``
        removes the bound (pure-semantics tests).
    redirect_queue:
        Redirect packets that may queue before tail drop.
    eviction / idle_timeout / hard_timeout:
        Cache management knobs (see :class:`CacheManager`).
    install_latency_s:
        Extra latency for the in-band cache-install message beyond the
        routed path delay (models TCAM write time at the ingress switch).
    prefetch_fragments:
        Cache fragments installed per miss.  1 (the paper's behaviour)
        installs just the fragment covering the missed packet; higher
        values also push sibling win-region fragments — a prefetch
        extension evaluated by the ablation bench.  Decompositions that
        would exceed the budget fall back to the single fragment.
    engine:
        Match-engine backend for the pipeline's TCAM regions (see
        :mod:`repro.flowspace.engine`); ``None`` uses the process default.
    """

    #: Per-switch statistics mirrored into the metrics registry as
    #: ``difane_<stat>_total{switch=...}`` counters.
    _MIRRORED_STATS = (
        "cache_hits", "authority_hits", "redirects_out",
        "redirects_handled", "cache_installs_sent",
        "cache_installs_received", "failovers", "unmatched",
        "degraded_packets",
    )

    def __init__(
        self,
        name: str,
        layout: HeaderLayout,
        cache_capacity: int = 1024,
        redirect_rate: Optional[float] = DEFAULT_REDIRECT_RATE,
        redirect_queue: int = 512,
        eviction: EvictionPolicy = EvictionPolicy.LRU,
        idle_timeout: Optional[float] = None,
        hard_timeout: Optional[float] = None,
        install_latency_s: float = 50e-6,
        processing_rate: Optional[float] = None,
        forwarding_delay_s: float = 0.0,
        prefetch_fragments: int = 1,
        engine=None,
        cache_options: Optional[dict] = None,
    ):
        if prefetch_fragments < 1:
            raise ValueError("prefetch_fragments must be >= 1")
        super().__init__(
            name,
            processing_rate=processing_rate,
            forwarding_delay_s=forwarding_delay_s,
        )
        self.layout = layout
        self.pipeline = DifanePipeline(layout, engine=engine)
        self.cache = CacheManager(
            self.pipeline.cache,
            capacity=cache_capacity,
            policy=eviction,
            default_idle_timeout=idle_timeout,
            default_hard_timeout=hard_timeout,
            **(cache_options or {}),
        )
        self.redirect_rate = redirect_rate
        self.redirect_queue = redirect_queue
        self.install_latency_s = install_latency_s
        self.prefetch_fragments = prefetch_fragments
        self._redirect_station: Optional[ServiceStation] = None
        #: Control session to the DIFANE controller; ``None`` until the
        #: controller wires a control plane (see
        #: :meth:`DifaneController.connect_control_plane`).  With a channel
        #: attached, orphaned-partition packets degrade to a NOX-style
        #: packet-in instead of being dropped.
        self.control_channel = None
        self._heartbeat_interval: Optional[float] = None
        self._beat = 0
        # Statistics the experiments read.
        self.cache_hits = 0
        self.authority_hits = 0
        self.redirects_out = 0
        self.redirects_handled = 0
        self.redirects_dropped = 0
        #: Redirects refused by QoS admission control (unprotected classes
        #: shed while the redirect queue is above the threshold).  Not in
        #: ``_MIRRORED_STATS`` — the per-class ``qos_shed_total`` counters
        #: carry it to the registry, and only when a QoS policy is active.
        self.redirects_shed = 0
        self.cache_installs_sent = 0
        #: In-band install messages that carried more than one sibling
        #: fragment (dependency-aware batching at prefetch > 1).
        self.cache_install_batches_sent = 0
        self.cache_installs_received = 0
        self.failovers = 0
        self.unmatched = 0
        self.degraded_packets = 0
        self.heartbeats_sent = 0
        #: Registry children keyed by statistic name; null until
        #: attach() binds the network's registry (keeps directly-driven
        #: switches working in unit tests).
        self._m: dict = {stat: NULL_METRIC for stat in self._MIRRORED_STATS}
        #: QoS wiring — bound in attach() when a policy is installed;
        #: ``None``/empty otherwise so the hot path stays a cheap test.
        self._qos = None
        self._qc: dict = {}
        #: arrival instant -> in-band install entries awaiting that event
        #: (see :meth:`queue_cache_installs`).
        self._pending_installs: dict = {}

    # -- wiring ---------------------------------------------------------------
    def attach(self, network) -> None:
        """Wire the redirect-capacity queue when the network binds us."""
        super().attach(network)
        # Mirror the per-switch statistics into the run's registry so
        # experiments read one canonical snapshot instead of scraping
        # switch attributes.  Children are bound once; increments are
        # a single += on the hot path.
        registry = network.metrics
        for stat in self._MIRRORED_STATS:
            self._m[stat] = registry.counter(f"difane_{stat}_total", switch=self.name)
        # Cache occupancy and (cumulative) evictions are levels, not
        # counters — they go out as telemetry probe samples so the
        # registry stays gauge-free (gauge max-merge would break the
        # --jobs N byte-identity guarantee).  Probes live on the
        # scheduler, so a later simulation in the same run context never
        # samples this switch's state.
        telemetry = getattr(network, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            network.scheduler.add_probe(self._telemetry_probe)
        if self.redirect_rate is not None:
            self._redirect_station = ServiceStation(
                network.scheduler,
                rate=self.redirect_rate,
                on_complete=self._handle_redirect,
                queue_limit=self.redirect_queue,
                on_drop=self._redirect_overload,
                name=f"{self.name}.redirect",
                metrics=network.metrics,
            )
        # Per-class QoS wiring: bind one counter per (statistic, class) so
        # hot-path increments are dict lookups, apply the cache-residency
        # knobs, and remember the policy for classification.  All of it is
        # gated on a policy being installed — with QoS off (the default) no
        # qos_* counter is ever bound and the goldens stay byte-identical.
        policy = current_qos()
        self._qos = policy
        if policy is not None:
            names = policy.classifier.class_names()
            for cls in names:
                for stat in ("cache_hits", "authority_hits", "redirects", "shed"):
                    self._qc[(stat, cls)] = registry.counter(
                        f"qos_{stat}_total", flow_class=cls, switch=self.name
                    )
            weights = policy.class_weights()
            if weights:
                self.cache.set_class_weights(weights)
            reserved = policy.reservations(self.cache.capacity)
            if reserved:
                self.cache.set_reservations(reserved)

    def _telemetry_probe(self) -> dict:
        """Per-window level samples for the telemetry recorder."""
        samples = {
            f"difane_cache_occupancy{{switch={self.name}}}": float(
                self.cache.occupancy()
            ),
            f"difane_cache_evictions{{switch={self.name}}}": float(self.cache.evicted),
        }
        if self.cache.policy is EvictionPolicy.COST:
            # The churn split and the measured re-fetch penalty only
            # matter to cost-aware eviction; gating the extra probe keys
            # on the policy keeps the default-LRU goldens byte-identical.
            samples[f"difane_cache_expirations{{switch={self.name}}}"] = float(
                self.cache.expired
            )
            samples[f"difane_cache_invalidations{{switch={self.name}}}"] = float(
                self.cache.invalidated
            )
            ewma = self.cache.refetch_penalty_ewma
            samples[f"difane_cache_refetch_penalty_s{{switch={self.name}}}"] = (
                float(ewma) if ewma is not None else 0.0
            )
        return samples

    # -- control plane (optional; wired by connect_control_plane) -----------------
    def connect_control(self, channel) -> None:
        """Attach this switch's control session to the DIFANE controller."""
        self.control_channel = channel

    def enable_heartbeats(self, interval_s: float) -> None:
        """Start emitting periodic liveness beacons over the control channel.

        Beats are fire-and-forget (never retransmitted): a lost or late
        heartbeat is exactly the signal the controller's failure detector
        integrates.  A dead switch (``alive = False``) skips beats but the
        timer keeps ticking, so beats resume on repair.  Note the timer
        keeps the event loop alive — run the simulation with ``until=``.
        """
        if interval_s <= 0:
            raise ValueError(f"heartbeat interval must be positive, got {interval_s}")
        self._heartbeat_interval = interval_s
        self.network.scheduler.schedule(interval_s, self._emit_heartbeat)

    def _emit_heartbeat(self) -> None:
        if self._heartbeat_interval is None:
            return
        if self.alive and self.control_channel is not None:
            self._beat += 1
            self.heartbeats_sent += 1
            self.control_channel.send_to_controller(
                Heartbeat(switch=self.name, beat=self._beat,
                          sent_at=self.network.scheduler.now),
                reliable=False,
            )
        self.network.scheduler.schedule(self._heartbeat_interval, self._emit_heartbeat)

    def receive_control(self, message: Message) -> None:
        """Handle a controller-to-switch message (degraded path / installs)."""
        if isinstance(message, PacketOut):
            self._execute_actions(message.packet, message.actions)
        elif isinstance(message, FlowMod) and message.rule is not None:
            if message.command is FlowModCommand.ADD:
                self.install_rule(message.rule)
            elif message.command is FlowModCommand.DELETE:
                self.uninstall_rule(message.rule)

    # -- rule installation (called by the controller / other switches) -----------
    def install_rule(self, rule: Rule) -> None:
        """Install an authority or partition rule (controller path)."""
        if rule.kind is RuleKind.CACHE:
            raise ValueError("cache rules arrive via install_cache_rule")
        self.pipeline.install(rule, now=self._now())

    def uninstall_rule(self, rule: Rule) -> bool:
        """Remove a specific authority/partition rule."""
        if rule.kind is RuleKind.AUTHORITY:
            return self.pipeline.authority.evict(rule)
        if rule.kind is RuleKind.PARTITION:
            return self.pipeline.partition.evict(rule)
        return self.pipeline.cache.evict(rule)

    def install_cache_rule(self, rule: Rule) -> None:
        """Receive an in-band cache install from an authority switch."""
        self.cache_installs_received += 1
        self._m["cache_installs_received"].inc()
        now = self._now()
        if self.network is not None and self.network.tracer.enabled:
            self.network.tracer.record(
                now, TraceKind.INSTALL_RECEIVED, rule, node=self.name
            )
        self.cache.expire(now)
        self.cache.install(rule, now)

    def flush_cache_where(self, predicate) -> List[Rule]:
        """Evict cache rules matching ``predicate`` (policy-change path)."""
        return self.pipeline.cache.evict_if(
            lambda rule: rule.kind is RuleKind.CACHE and predicate(rule)
        )

    def purge_stale_authority_rules(self, expected: List[Rule]) -> List[Rule]:
        """Evict authority fragments not in the controller's ``expected`` set.

        A switch that died and came back still holds the authority
        fragments of partitions that were re-homed elsewhere while it was
        down.  Left in place, they shadow freshly installed copies (same
        priority, earlier insertion order wins), inflate the TCAM
        footprint and silently zero the load measurements the rebalancer
        depends on.  Identity (``is``) comparison is deliberate: the
        controller tracks the exact fragment objects it installed.
        """
        expected_ids = {id(rule) for rule in expected}
        return self.pipeline.authority.evict_if(
            lambda rule: id(rule) not in expected_ids
        )

    # -- the data plane ------------------------------------------------------------
    def process(self, packet: Packet) -> None:
        """Ingress classification / transit tunnelling / authority entry."""
        tunnel_end = packet.encap_destination
        if tunnel_end is not None:
            if tunnel_end != self.name:
                # Transit: tunnel forwarding only, no reclassification.
                self.network.forward_toward(self.name, tunnel_end, packet)
                return
            # Redirected to this authority switch.
            if self._redirect_station is not None:
                if not self._admission_shed(packet):
                    self._redirect_station.submit(packet)
            else:
                self._handle_redirect(packet)
            return

        # Ingress classification: the only branch that reads the clock.
        network = self.network
        now = network.scheduler.now
        result = self.pipeline.lookup(packet, now)
        tracer = network.tracer
        if result.stage is PipelineStage.CACHE:
            self.cache_hits += 1
            self._m["cache_hits"].inc()
            if self._qos is not None:
                self._qos_count("cache_hits", (packet.header_bits,))
            if tracer.enabled:
                tracer.record(now, TraceKind.CACHE_HIT, packet, node=self.name)
            self._terminal(packet, result.rule)
        elif result.stage is PipelineStage.AUTHORITY:
            # This switch is itself the authority for the packet's
            # partition: handle locally, no redirect needed.
            self.authority_hits += 1
            self._m["authority_hits"].inc()
            if self._qos is not None:
                self._qos_count("authority_hits", (packet.header_bits,))
            if tracer.enabled:
                tracer.record(now, TraceKind.AUTHORITY_HIT, packet, node=self.name)
            self._terminal(packet, result.rule)
        elif result.stage is PipelineStage.PARTITION:
            self.redirects_out += 1
            self._m["redirects_out"].inc()
            if self._qos is not None:
                self._qos_count("redirects", (packet.header_bits,))
            packet.via_authority = True
            if tracer.enabled:
                tracer.record(now, TraceKind.REDIRECT, packet, node=self.name)
            self._redirect_via_partition(packet, result.rule)
        else:
            self.unmatched += 1
            self._m["unmatched"].inc()
            network.record_drop(packet, self.name, "no matching rule")

    # -- the columnar data plane ---------------------------------------------------
    def process_packet_batch(self, batch) -> None:
        """Columnar :meth:`process`: classify and act on a whole batch.

        Counters, rule statistics, delivery records and traces land as
        per-packet :meth:`process` calls would.  Accounting is per
        (stage, rule) group, but forwarding is per *egress*: every group
        whose action list is one ``Forward`` — or one redirect — toward
        the same destination leaves as a single sub-batch in packet
        order, so a burst stays a burst on its next link however many
        rules it matched.  Capacity-bounded paths (the redirect station)
        are defined per packet and degrade to the scalar path.
        """
        now = self._now()
        if batch.encap_destination is not None:
            if batch.encap_destination != self.name:
                # Transit: tunnel the whole batch one hop, no reclassify.
                self.network.forward_batch_toward(
                    self.name, batch.encap_destination, batch
                )
                return
            if self._redirect_station is not None:
                # The redirect budget is per packet; feed the station the
                # scalar view so queueing/loss behaviour is unchanged.
                for packet in batch.packets():
                    if not self._admission_shed(packet):
                        self._redirect_station.submit(packet)
                return
            self._handle_redirect_batch(batch)
            return

        tracer = self.network.tracer
        egress: dict = {}
        for stage, rule, indices in self.pipeline.classify_batch(batch, now):
            count = len(indices)
            if stage is PipelineStage.MISS:
                self.unmatched += count
                self._m["unmatched"].inc(count)
                self.network.record_drop_batch(
                    batch.select(indices), self.name, "no matching rule"
                )
                continue
            stat, qos_stat, kind = _STAGE_ACCOUNTING[stage]
            setattr(self, stat, getattr(self, stat) + count)
            self._m[stat].inc(count)
            if stage is PipelineStage.PARTITION:
                batch.via_authority[indices] = True
            if self._qos is not None or tracer.enabled:
                sub = batch.select(indices)
                if self._qos is not None:
                    self._qos_count(qos_stat, sub.header_bits_list())
                if tracer.enabled:
                    tracer.record_batch(now, kind, sub.packets(), node=self.name)
            if stage is PipelineStage.PARTITION:
                destination = self._batch_redirect_destination(batch, indices, rule)
            else:
                destination = _sole_forward_port(rule)
                if destination is None:
                    self._terminal_batch(batch.select(indices), rule)
            if destination is not None:
                egress.setdefault(destination, []).extend(indices.tolist())
        self._forward_by_egress(batch, egress)

    def _forward_by_egress(self, batch, egress: dict) -> None:
        """Tunnel one sub-batch per destination, each in packet order."""
        for destination, indices in egress.items():
            indices.sort()
            sub = batch.select(indices)
            sub.encapsulate(destination)
            self.network.forward_batch_toward(self.name, destination, sub)

    def _batch_redirect_destination(self, batch, indices, rule: Rule) -> Optional[str]:
        """Batch analogue of :meth:`_redirect_via_partition`: the authority
        switch the group at ``indices`` tunnels to.

        Destination resolution (primary reachability, backup failover)
        depends only on the partition rule and current routes, so it is
        computed once per group.  ``None`` means the group was consumed
        here: the rare degraded path (orphaned partition → controller
        punt) is inherently per packet and materializes the scalar view.
        """
        action = rule.actions.actions[0]
        reachable = self.network.routes.reachable
        if reachable(self.name, action.destination):
            return action.destination
        count = len(indices)
        sub = batch.select(indices)
        tracer = self.network.tracer
        for backup in getattr(action, "backups", ()):
            if reachable(self.name, backup):
                self.failovers += count
                self._m["failovers"].inc(count)
                if tracer.enabled:
                    tracer.record_batch(
                        self._now(), TraceKind.FAILOVER, sub.packets(),
                        node=self.name, detail=backup,
                    )
                return backup
        if self.control_channel is None:
            self.network.record_drop_batch(sub, self.name, "authority unreachable")
            return None
        self.degraded_packets += count
        self._m["degraded_packets"].inc(count)
        for packet in sub.packets():
            packet.via_controller = True
            if tracer.enabled:
                tracer.record(
                    self._now(), TraceKind.DEGRADED, packet, node=self.name
                )
            self.control_channel.send_to_controller(
                PacketIn(switch=self.name, packet=packet)
            )
        return None

    def _handle_redirect_batch(self, batch) -> None:
        """Authority-path processing of a redirected batch.

        Terminal forwards leave per egress, like ingress classification.
        Install decisions are made **per unique flow**: the win-fragment
        computation (:meth:`_cache_rules_for`) runs once per distinct
        (ingress, winner, header), while the install messages and
        counters stay per packet — each ingress is sent one sequence of
        ``(packet id, fragment groups)`` and applies it in packet order
        (:meth:`queue_cache_installs`), exactly what the scalar path
        produces, minus the redundant recomputation and the per-message
        events.
        """
        count = len(batch)
        self.redirects_handled += count
        self._m["redirects_handled"].inc(count)
        batch.decapsulate()
        now = self._now()
        tracer = self.network.tracer
        packets = batch.packets() if tracer.enabled else None
        if tracer.enabled:
            tracer.record_batch(
                now, TraceKind.AUTHORITY_HANDLE, packets, node=self.name
            )
        winners, rules = self.pipeline.authority.match_batch(batch, now)
        winners = winners.tolist()
        # Snapshot headers before terminal actions (SetField rewrites
        # would corrupt the win-fragment computation — the cache rule
        # must match packets as they arrived at the ingress switch).
        original_bits = batch.header_bits_list()
        groups: dict = {}
        for i, winner in enumerate(winners):
            groups.setdefault(winner, []).append(i)
        missed = groups.pop(-1, None)
        if missed:
            self.unmatched += len(missed)
            self.network.record_drop_batch(
                batch.select(missed), self.name, "authority miss"
            )
        egress: dict = {}
        for winner, indices in groups.items():
            destination = _sole_forward_port(rules[winner])
            if destination is None:
                self._terminal_batch(batch.select(indices), rules[winner])
            else:
                egress.setdefault(destination, []).extend(indices)
        self._forward_by_egress(batch, egress)

        by_ingress: dict = {}
        for i, ingress in enumerate(batch.ingress_switch.tolist()):
            if ingress is not None and winners[i] >= 0:
                by_ingress.setdefault(ingress, []).append(i)
        packet_ids = batch.packet_ids.tolist()
        distance = self.network.routes.distance
        for ingress, indices in by_ingress.items():
            delay = self.install_latency_s + distance(self.name, ingress)
            # The full miss penalty the ingress pays to re-fetch an entry
            # (see :meth:`_send_cache_install`).
            penalty = distance(ingress, self.name) + delay
            flows: dict = {}  # (winner, header) -> fragment groups
            entries = []
            for i in indices:
                key = (winners[i], original_bits[i])
                fragment_groups = flows.get(key)
                if fragment_groups is None:
                    fragment_groups = flows[key] = self._fragment_groups(
                        self._cache_rules_for(rules[key[0]], key[1]), penalty
                    )
                entries.append((packet_ids[i], fragment_groups))
            target = self.network.node(ingress)
            if target is self:
                # Degenerate single-switch case: cache locally, no message.
                self._install_in_packet_order(entries)
                continue
            for i, (_, fragment_groups) in zip(indices, entries):
                for group in fragment_groups:
                    self.cache_installs_sent += len(group)
                    self._m["cache_installs_sent"].inc(len(group))
                    if len(group) > 1:
                        self.cache_install_batches_sent += 1
                    if tracer.enabled:
                        for _ in group:
                            tracer.record(
                                now, TraceKind.INSTALL_SENT, packets[i],
                                node=self.name, detail=ingress,
                            )
            target.queue_cache_installs(delay, entries)

    def queue_cache_installs(self, delay: float, entries: list) -> None:
        """Receive one authority's in-band installs for a redirected batch.

        ``entries`` is ``[(packet id, fragment groups), ...]``, one entry
        per redirected packet.  Sequences that arrive at the same instant
        — several authorities answering one burst — share one event and
        are applied together in packet order.
        """
        arrival = self._now() + delay
        pending = self._pending_installs.get(arrival)
        if pending is not None:
            pending.extend(entries)
            return
        self._pending_installs[arrival] = entries
        self.network.scheduler.schedule_batch(
            delay, self._apply_cache_installs, arrival
        )

    def _apply_cache_installs(self, arrival: float) -> None:
        self._install_in_packet_order(self._pending_installs.pop(arrival))

    def _install_in_packet_order(self, entries: list) -> None:
        """One :meth:`install_cache_rule` per packet per fragment, sorted by
        packet id: the order the scalar path's per-packet install messages
        arrive in, which LRU relies on when it breaks equal-activity ties
        by install order."""
        entries.sort(key=itemgetter(0))
        for _, fragment_groups in entries:
            for group in fragment_groups:
                for rule in group:
                    self.install_cache_rule(rule)

    def install_cache_rules(self, rules: List[Rule]) -> None:
        """Receive a batched in-band install: sibling win-region fragments
        of one policy rule, carried in a single message."""
        for rule in rules:
            self.install_cache_rule(rule)

    def _terminal_batch(self, batch, rule: Rule) -> None:
        """Batch analogue of :meth:`_terminal` (same action semantics)."""
        for action in rule.actions:
            if isinstance(action, SetField):
                batch.set_field(action.field_name, action.value)
            elif isinstance(action, Drop):
                self.network.record_drop_batch(batch, self.name, "policy drop")
                return
            elif isinstance(action, Forward):
                batch.encapsulate(action.port)
                self.network.forward_batch_toward(self.name, action.port, batch)
                return
            else:
                break
        self.network.record_drop_batch(batch, self.name, "no terminal action")

    def _redirect_via_partition(self, packet: Packet, rule: Rule) -> None:
        """Tunnel a miss to its authority switch, failing over to backups.

        Paper §4.3: partition rules carry the replica list, so when the
        primary authority switch is unreachable the ingress switch picks a
        live backup **without contacting the controller**.
        """
        action = rule.actions.actions[0]
        destination = action.destination
        if not self.network.routes.reachable(self.name, destination):
            for backup in getattr(action, "backups", ()):
                if self.network.routes.reachable(self.name, backup):
                    destination = backup
                    self.failovers += 1
                    self._m["failovers"].inc()
                    if self.network.tracer.enabled:
                        self.network.tracer.record(
                            self._now(), TraceKind.FAILOVER, packet,
                            node=self.name, detail=backup,
                        )
                    break
            else:
                # Partition orphaned: primary and every replicated backup
                # are unreachable.  Degrade to a NOX-style packet-in so the
                # controller classifies the packet, instead of dropping.
                if self.control_channel is not None:
                    self.degraded_packets += 1
                    self._m["degraded_packets"].inc()
                    packet.via_controller = True
                    if self.network.tracer.enabled:
                        self.network.tracer.record(
                            self._now(), TraceKind.DEGRADED, packet, node=self.name
                        )
                    self.control_channel.send_to_controller(
                        PacketIn(switch=self.name, packet=packet)
                    )
                    return
                self.network.record_drop(packet, self.name, "authority unreachable")
                return
        packet.encapsulate(destination)
        self.network.forward_toward(self.name, destination, packet)

    def _handle_redirect(self, packet: Packet) -> None:
        """Authority-path processing of one redirected packet."""
        self.redirects_handled += 1
        self._m["redirects_handled"].inc()
        packet.decapsulate()
        now = self._now()
        if self.network.tracer.enabled:
            self.network.tracer.record(
                now, TraceKind.AUTHORITY_HANDLE, packet, node=self.name
            )
        rule = self.pipeline.authority.lookup(packet, now)
        if rule is None:
            self.unmatched += 1
            self.network.record_drop(packet, self.name, "authority miss")
            return
        ingress = packet.ingress_switch
        # Snapshot the header before terminal actions: SetField rewrites
        # would otherwise corrupt the win-fragment computation (the cache
        # rule must match packets as they arrive at the ingress switch).
        original_bits = packet.header_bits
        self._terminal(packet, rule)
        if ingress is not None and ingress != self.name:
            self._send_cache_install(ingress, rule, original_bits, packet)
        elif ingress == self.name:
            # Degenerate single-switch case: cache locally.
            cached_rules = self._cache_rules_for(rule, original_bits)
            self._fragment_groups(cached_rules, self.install_latency_s)
            for cached in cached_rules:
                self.install_cache_rule(cached)

    def _qos_count(self, stat: str, header_bits_iter) -> None:
        """Increment the per-class counter for ``stat`` per packed header."""
        classify = self._qos.classifier.classify_bits
        qc = self._qc
        for bits in header_bits_iter:
            qc[(stat, classify(bits))].inc()

    def _admission_shed(self, packet: Packet) -> bool:
        """Shed an unprotected-class redirect when the queue is deep.

        Threshold admission control (armed by the QoS policy): once the
        redirect station's queue is at least ``admission_threshold`` deep,
        redirects of unprotected classes are refused on arrival — with
        exact drop attribution — instead of queueing behind (and ahead of)
        protected traffic.  Protected classes always pass; the station's
        own tail-drop limit still backstops them.
        """
        qos = self._qos
        if qos is None or qos.admission_threshold is None:
            return False
        if self._redirect_station.queue_depth < qos.admission_threshold:
            return False
        cls = qos.classifier.classify_bits(packet.header_bits)
        if qos.is_protected(cls):
            return False
        self.redirects_shed += 1
        self._qc[("shed", cls)].inc()
        self.network.record_drop(packet, self.name, f"admission shed {cls}")
        return True

    def _cache_rules_for(self, rule: Rule, packet_bits: int) -> List[Rule]:
        """The cache rule(s) one miss generates (fragment + prefetch)."""
        authority = self.pipeline.authority.table
        cached_rules: Optional[List[Rule]] = None
        if self.prefetch_fragments > 1:
            try:
                cached_rules = generate_cache_rules(
                    authority.rules,
                    rule,
                    packet_bits=packet_bits,
                    max_fragments=self.prefetch_fragments,
                    max_members=max(64, 8 * self.prefetch_fragments),
                )
            except WinRegionTooLarge:
                cached_rules = None  # fall back to the single-fragment path
        if cached_rules is None:
            fragment = authority.engine.win_fragment(rule, packet_bits)
            cached_rules = [] if fragment is None else [cache_rule(rule, fragment)]
        if self._qos is not None and cached_rules:
            # Stamp the class the *missed packet* belongs to — the single
            # chokepoint every install path (scalar, batch, local) funnels
            # through, so residency protection sees every cache rule.
            name = self._qos.classifier.classify_bits(packet_bits)
            for cached in cached_rules:
                cached.flow_class = name
        return cached_rules

    def _send_cache_install(
        self, ingress: str, rule: Rule, packet_bits: int, packet: Optional[Packet] = None
    ) -> None:
        cached_rules = self._cache_rules_for(rule, packet_bits)
        if not cached_rules:
            return
        target = self.network.node(ingress)
        delay = self.install_latency_s + self.network.routes.distance(self.name, ingress)
        tracer = self.network.tracer
        # The full miss penalty the ingress pays to re-fetch this entry:
        # redirect to the authority plus the install path back.  Cost-aware
        # eviction reads this stamp; other policies ignore it.
        penalty = self.network.routes.distance(ingress, self.name) + delay
        for group in self._fragment_groups(cached_rules, penalty):
            for cached in group:
                self.cache_installs_sent += 1
                self._m["cache_installs_sent"].inc()
                if tracer.enabled:
                    # Trace against the triggering packet (when known) so
                    # the flow-causal analyzer can attribute the install
                    # stage to the first packet's span; the rule itself
                    # carries no packet/flow identity.
                    tracer.record(
                        self._now(), TraceKind.INSTALL_SENT,
                        packet if packet is not None else cached,
                        node=self.name, detail=ingress,
                    )
            if len(group) == 1:
                self.network.scheduler.schedule(
                    delay, target.install_cache_rule, group[0]
                )
            else:
                self.cache_install_batches_sent += 1
                self.network.scheduler.schedule(
                    delay, target.install_cache_rules, group
                )

    def _fragment_groups(
        self, cached_rules: List[Rule], penalty: Optional[float] = None
    ) -> List[List[Rule]]:
        """Stamp re-fetch penalties and group sibling fragments for batching.

        Fragments deriving from the same policy rule travel in one install
        message (dependency-aware batching at ``prefetch_fragments > 1``);
        a single-fragment group keeps the legacy one-rule message so the
        event stream at prefetch=1 — the goldens' configuration — is
        byte-identical.
        """
        groups: dict = {}
        for cached in cached_rules:
            if penalty is not None:
                cached.refetch_penalty_s = penalty
            groups.setdefault(id(cached.root_origin()), []).append(cached)
        return list(groups.values())

    def _redirect_overload(self, packet: Packet) -> None:
        self.redirects_dropped += 1
        self.network.record_drop(packet, self.name, "authority overloaded")

    # -- terminal action execution ----------------------------------------------------
    def _terminal(self, packet: Packet, rule: Rule) -> None:
        """Apply a classification verdict: rewrite, drop, or tunnel onward.

        Forwarded packets are encapsulated to their destination so transit
        switches never reclassify — DIFANE classifies once, at the edge.
        """
        self._execute_actions(packet, rule.actions)

    def _execute_actions(self, packet: Packet, actions) -> None:
        """Terminal-action execution shared by lookups and PacketOut."""
        for action in actions:
            if isinstance(action, SetField):
                self._apply_rewrite(packet, action)
            elif isinstance(action, Drop):
                self.network.record_drop(packet, self.name, "policy drop")
                return
            elif isinstance(action, Forward):
                packet.encapsulate(action.port)
                self.network.forward_toward(self.name, action.port, packet)
                return
            else:
                break
        self.network.record_drop(packet, self.name, "no terminal action")

    # -- misc -----------------------------------------------------------------------------
    def tick(self) -> None:
        """Periodic maintenance: expire timed-out cache rules."""
        self.cache.expire(self._now())

    def _now(self) -> float:
        return self.network.scheduler.now if self.network is not None else 0.0

    @property
    def tcam_footprint(self) -> int:
        """Total TCAM entries across the pipeline regions."""
        return self.pipeline.total_entries()
