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

from operator import attrgetter
from typing import List, Optional, Tuple

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule, RuleKind
from repro.core.cachegen import WinRegionTooLarge, cache_rule, generate_cache_rules
from repro.net.events import ServiceStation
from repro.obs.trace import TraceKind
from repro.openflow.messages import (
    FlowMod, FlowModCommand, Heartbeat, Message, PacketIn, PacketOut,
)
from repro.switch.cache import CacheManager, EvictionPolicy
from repro.switch.pipeline import DifanePipeline, PipelineStage
from repro.switch.switch import DataPlaneSwitch

__all__ = ["DifaneSwitch"]

#: Calibrated authority-switch redirect capacity (single-packet flows/s).
#: Matches the headline number measured on the paper's kernel prototype.
DEFAULT_REDIRECT_RATE = 800_000.0

#: Ingress stage -> (per-class QoS statistic, trace kind).
_STAGE_ACCOUNTING = {
    PipelineStage.CACHE: ("cache_hits", TraceKind.CACHE_HIT),
    PipelineStage.AUTHORITY: ("authority_hits", TraceKind.AUTHORITY_HIT),
    PipelineStage.PARTITION: ("redirects", TraceKind.REDIRECT),
}


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
        installs the fragment covering the missed packet; higher values
        also push sibling win-region fragments (an ablation-bench
        extension), falling back to one fragment past the budget.
    """

    #: Per-switch statistics the run's registry collects as
    #: ``difane_<stat>_total{switch=...}`` counters: each is one integer
    #: kept in one place, so a statistic and its counter cannot diverge.
    _MIRRORED_STATS = (
        "cache_hits", "authority_hits", "redirects_out", "redirects_handled",
        "cache_installs_sent", "cache_installs_received", "failovers", "unmatched",
        "degraded_packets",
    )
    #: The ingress statistics the pipeline's stages count: the path the
    #: collector reads, and a read-only property of the same name.
    _STAGE_STATS = {
        "cache_hits": "pipeline.cache.hits",
        "authority_hits": "pipeline.authority_hits",
        "redirects_out": "pipeline.partition.hits",
    }
    cache_hits = property(attrgetter(_STAGE_STATS["cache_hits"]))
    authority_hits = property(attrgetter(_STAGE_STATS["authority_hits"]))
    redirects_out = property(attrgetter(_STAGE_STATS["redirects_out"]))

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
        cache_options: Optional[dict] = None,
    ):
        if prefetch_fragments < 1:
            raise ValueError("prefetch_fragments must be >= 1")
        super().__init__(
            name, processing_rate=processing_rate, forwarding_delay_s=forwarding_delay_s
        )
        self.layout = layout
        self.pipeline = DifanePipeline(layout)
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
        #: Control session to the DIFANE controller; ``None`` until
        #: :meth:`DifaneController.connect_control_plane` wires one.  With a
        #: channel, orphaned-partition packets degrade to a packet-in.
        self.control_channel = None
        self._heartbeat_interval: Optional[float] = None
        self._beat = 0
        # Statistics the experiments read: the mirrored ones, then the rest.
        for stat in self._MIRRORED_STATS:
            if stat not in self._STAGE_STATS:
                setattr(self, stat, 0)
        self.redirects_dropped = 0
        #: Redirects refused by QoS admission control.  Not mirrored: the
        #: per-class ``qos_shed_total`` counters carry it, QoS on only.
        self.redirects_shed = 0
        #: In-band install messages that carried more than one sibling
        #: fragment (dependency-aware batching at prefetch > 1).
        self.cache_install_batches_sent = 0
        #: QoS wiring — bound in attach() when a policy is installed.
        self._qos = None
        self._qc: dict = {}

    # -- wiring ---------------------------------------------------------------
    def attach(self, network) -> None:
        """Wire the redirect-capacity queue when the network binds us."""
        super().attach(network)
        # The run's registry reads the per-switch statistics, so
        # experiments read one canonical snapshot, not switch attributes.
        registry = network.metrics
        for stat in self._MIRRORED_STATS:
            registry.collect(f"difane_{stat}_total", self,
                             self._STAGE_STATS.get(stat, stat), switch=self.name)
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
        # Per-class QoS: one counter per (statistic, class) and the
        # cache-residency knobs.  With QoS off (the default) no qos_*
        # counter is ever bound and the goldens stay byte-identical.
        policy = network.qos
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
        cache = self.cache
        levels = {"occupancy": cache.occupancy(), "evictions": cache.evicted}
        if cache.policy is EvictionPolicy.COST:
            # The churn split and the measured re-fetch penalty only matter
            # to cost-aware eviction; gating them on the policy keeps the
            # default-LRU goldens byte-identical.
            penalty = cache.refetch_penalty_ewma
            levels.update(
                expirations=cache.expired, invalidations=cache.invalidated,
                refetch_penalty_s=0.0 if penalty is None else penalty,
            )
        return {
            f"difane_cache_{level}{{switch={self.name}}}": float(value)
            for level, value in levels.items()
        }

    # -- control plane (optional; wired by connect_control_plane) -----------------
    def connect_control(self, channel) -> None:
        """Attach this switch's control session to the DIFANE controller."""
        self.control_channel = channel

    def enable_heartbeats(self, interval_s: float) -> None:
        """Start emitting periodic liveness beacons over the control channel.

        Beats are fire-and-forget: a lost or late heartbeat is exactly what
        the controller's failure detector integrates.  A dead switch skips
        beats but keeps the timer (and the event loop — run with
        ``until=``) ticking, so beats resume on repair.
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
            self.control_channel.send_to_controller(
                Heartbeat(switch=self.name, beat=self._beat,
                          sent_at=self.network.scheduler.now),
                reliable=False,
            )
        self.network.scheduler.schedule(self._heartbeat_interval, self._emit_heartbeat)

    def receive_control(self, message: Message) -> None:
        """Handle a controller-to-switch message (degraded path / installs)."""
        if isinstance(message, PacketOut):
            self.execute(message.packet, message.actions)
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
        now = self._now()
        if self.network is not None and self.network.tracer.enabled:
            self.network.tracer.record(
                now, TraceKind.INSTALL_RECEIVED, rule, node=self.name
            )
        self.cache.expire(now)
        self.cache.install(rule, now)

    def install_cache_rules(self, rules: List[Rule]) -> None:
        """Receive a batched in-band install: sibling win-region fragments
        of one policy rule, carried in a single message."""
        for rule in rules:
            self.install_cache_rule(rule)

    def flush_cache_where(self, predicate) -> List[Rule]:
        """Evict cache rules matching ``predicate`` (policy-change path)."""
        return self.pipeline.cache.evict_if(
            lambda rule: rule.kind is RuleKind.CACHE and predicate(rule)
        )

    def purge_stale_authority_rules(self, expected: List[Rule]) -> List[Rule]:
        """Evict authority fragments not in the controller's ``expected`` set.

        A revived switch still holds fragments of partitions re-homed while
        it was down; left in place they shadow the fresh copies (earlier
        install wins ties), inflate the TCAM and zero the rebalancer's load
        readings.  Identity comparison: the controller tracks the exact
        fragment objects it installed.
        """
        expected_ids = {id(rule) for rule in expected}
        return self.pipeline.authority.evict_if(
            lambda rule: id(rule) not in expected_ids
        )

    # -- the data plane ------------------------------------------------------------
    # Everything after the lookup is decided from (stage, rule, routes,
    # control channel), never from the packet: ``_STAGE_ACCOUNTING``,
    # :meth:`_redirect_target`, :meth:`_install_costs` / :meth:`_install_plan`.
    # :meth:`process`, :meth:`_handle_redirect` and :meth:`execute` apply
    # them to one packet at a time.

    def process(self, packet: Packet) -> None:
        """Ingress classification / transit tunnelling / authority entry."""
        tunnel_end = packet.encap_destination
        if tunnel_end is not None:
            if tunnel_end != self.name:
                # Transit: tunnel forwarding only, no reclassification.
                self.network.forward_toward(self.name, tunnel_end, packet)
            elif self._redirect_station is None:
                self._handle_redirect(packet)
            elif not self._admission_shed(packet):
                self._redirect_station.submit(packet)
            return

        # Ingress classification: the only branch that reads the clock.
        network = self.network
        now = network.scheduler.now
        result = self.pipeline.lookup(packet, now)
        stage = result.stage
        if stage is PipelineStage.MISS:
            self.unmatched += 1
            network.record_drop(packet, self.name, "no matching rule")
            return
        qos_stat, kind = _STAGE_ACCOUNTING[stage]
        if self._qos is not None:
            self._qos_count(qos_stat, (packet.header_bits,))
        tracer = network.tracer
        if stage is not PipelineStage.PARTITION:
            # A cache hit, or this switch is itself the authority for the
            # packet's partition: handle locally, no redirect needed.
            if tracer.enabled:
                tracer.record(now, kind, packet, node=self.name)
            self.execute(packet, result.rule.actions.actions)
            return
        packet.via_authority = True
        if tracer.enabled:
            tracer.record(now, kind, packet, node=self.name)
        destination, failed_over = self._redirect_target(result.rule)
        if destination is None:
            self._orphaned(packet)
            return
        if failed_over:
            self.failovers += 1
            if tracer.enabled:
                tracer.record(
                    now, TraceKind.FAILOVER, packet, node=self.name, detail=destination
                )
        packet.encapsulate(destination)
        network.forward_toward(self.name, destination, packet)

    def _redirect_target(self, rule: Rule) -> Tuple[Optional[str], bool]:
        """The authority a partition rule tunnels to: ``(switch, failed_over)``.

        Paper §4.3: partition rules carry the replica list, so the ingress
        fails over to a live backup **without contacting the controller**.
        ``(None, False)``: the partition is orphaned (:meth:`_orphaned`).
        """
        action = rule.actions.actions[0]
        reachable = self.network.routes.reachable
        if reachable(self.name, action.destination):
            return action.destination, False
        for backup in getattr(action, "backups", ()):
            if reachable(self.name, backup):
                return backup, True
        return None, False

    def _orphaned(self, packet: Packet) -> None:
        """No replica is reachable: degrade to a NOX-style packet-in so the
        controller classifies the packet, or drop without a channel."""
        if self.control_channel is None:
            self.network.record_drop(packet, self.name, "authority unreachable")
            return
        self.degraded_packets += 1
        packet.via_controller = True
        if self.network.tracer.enabled:
            self.network.tracer.record(
                self._now(), TraceKind.DEGRADED, packet, node=self.name
            )
        self.control_channel.send_to_controller(
            PacketIn(switch=self.name, packet=packet)
        )

    # -- the authority path ----------------------------------------------------------
    def _handle_redirect(self, packet: Packet) -> None:
        """Authority-path processing of one redirected packet."""
        self.redirects_handled += 1
        packet.decapsulate()
        now = self.network.scheduler.now
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
        self.execute(packet, rule.actions.actions)
        if ingress is not None:
            self._install_at(ingress, rule, original_bits, packet)

    def _install_at(
        self, ingress: str, rule: Rule, packet_bits: int, packet: Packet
    ) -> None:
        """Install the miss's cache rules at ``ingress``: one in-band message
        per fragment group."""
        delay, penalty = self._install_costs(ingress)
        groups = self._install_plan(rule, packet_bits, penalty)
        target = self.network.node(ingress)
        if target is self:
            # Degenerate single-switch case: cache locally, no message.
            for group in groups:
                for cached in group:
                    self.install_cache_rule(cached)
            return
        self._installs_sent(groups, packet, ingress)
        schedule = self.network.scheduler.schedule
        for group in groups:
            if len(group) == 1:
                schedule(delay, target.install_cache_rule, group[0])
            else:
                schedule(delay, target.install_cache_rules, group)

    def _install_costs(self, ingress: str) -> Tuple[float, float]:
        """``(message delay, re-fetch penalty)`` of installs to ``ingress``;
        the penalty (redirect here plus the install path back) is what
        cost-aware eviction reads."""
        distance = self.network.routes.distance
        delay = self.install_latency_s + distance(self.name, ingress)
        return delay, distance(ingress, self.name) + delay

    def _install_plan(
        self, rule: Rule, packet_bits: int, penalty: float
    ) -> List[List[Rule]]:
        """The cache rules one miss installs, one group per message.

        Fragments of the same policy rule travel together (dependency-aware
        batching at ``prefetch_fragments > 1``); at prefetch=1 — the
        goldens' configuration — every message carries one rule.
        """
        groups: dict = {}
        for cached in self._cache_rules_for(rule, packet_bits):
            cached.refetch_penalty_s = penalty
            groups.setdefault(id(cached.root_origin()), []).append(cached)
        return list(groups.values())

    def _installs_sent(self, groups: List[List[Rule]], packet, ingress: str) -> None:
        """Count and trace one redirected packet's install messages, traced
        against the packet so the flow-causal analyzer can attribute the
        install stage to its span (a rule carries no flow identity)."""
        tracer = self.network.tracer
        for group in groups:
            size = len(group)
            self.cache_installs_sent += size
            if size > 1:
                self.cache_install_batches_sent += 1
            if tracer.enabled:
                for _ in group:
                    tracer.record(
                        self._now(), TraceKind.INSTALL_SENT, packet,
                        node=self.name, detail=ingress,
                    )

    def _cache_rules_for(self, rule: Rule, packet_bits: int) -> List[Rule]:
        """The cache rule(s) one miss generates (fragment + prefetch)."""
        authority = self.pipeline.authority.table
        cached_rules: Optional[List[Rule]] = None
        if self.prefetch_fragments > 1:
            try:
                cached_rules = generate_cache_rules(
                    authority.rules, rule, packet_bits=packet_bits,
                    max_fragments=self.prefetch_fragments,
                    max_members=max(64, 8 * self.prefetch_fragments),
                )
            except WinRegionTooLarge:
                pass  # fall back to the single-fragment path
        if cached_rules is None:
            fragment = authority.engine.win_fragment(rule, packet_bits)
            cached_rules = [] if fragment is None else [cache_rule(rule, fragment)]
        if self._qos is not None and cached_rules:
            # Stamp the class the *missed packet* belongs to — the single
            # chokepoint every install path (in-band or local) funnels
            # through, so residency protection sees every cache rule.
            name = self._qos.classifier.classify_bits(packet_bits)
            for cached in cached_rules:
                cached.flow_class = name
        return cached_rules

    def _qos_count(self, stat: str, header_bits_iter) -> None:
        """Increment the per-class counter for ``stat`` per packed header."""
        classify = self._qos.classifier.classify_bits
        qc = self._qc
        for bits in header_bits_iter:
            qc[(stat, classify(bits))].inc()

    def _admission_shed(self, packet: Packet) -> bool:
        """Shed an unprotected-class redirect when the queue is deep.

        Threshold admission control (armed by the QoS policy): while the
        redirect queue is at least ``admission_threshold`` deep, redirects
        of unprotected classes are refused on arrival, with exact drop
        attribution; protected classes meet only the station's tail drop.
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

    def _redirect_overload(self, packet: Packet) -> None:
        self.redirects_dropped += 1
        self.network.record_drop(packet, self.name, "authority overloaded")

    # -- misc -----------------------------------------------------------------------------
    def tick(self) -> None:
        """Periodic maintenance: expire timed-out cache rules."""
        self.cache.expire(self._now())

    def _now(self) -> float:
        return self.network.scheduler.now if self.network is not None else 0.0
