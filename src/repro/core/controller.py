"""The DIFANE controller and the all-in-one network builder.

The controller's job in DIFANE is **proactive and off the critical path**
(the paper's central claim): it partitions the policy, places the
fragments on authority switches, pushes the tiny partition tables to every
switch, and afterwards only reacts to *management* events — policy
changes, topology changes, host mobility, authority failures (paper §4).
No packet ever waits for it.

:class:`DifaneNetwork` is the user-facing facade: hand it a topology, a
policy and a few knobs and it wires switches, controller, partitions and
routing into a runnable simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.flowspace.action import Encapsulate, Forward
from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Match, Rule, RuleKind
from repro.flowspace.table import RuleTable
from repro.core.authority import DifaneSwitch
from repro.core.partition import (
    Partition,
    PartitionResult,
    assign_partitions,
    partition_policy,
)
from repro.core.placement import choose_authority_switches
from repro.net.simnet import SimNetwork
from repro.net.topology import Topology
from repro.openflow.channel import (
    ChannelFaultModel,
    ControlChannel,
    DEFAULT_CONTROL_LATENCY_S,
)
from repro.obs.registry import Collectable
from repro.openflow.messages import Heartbeat, Message, PacketIn, PacketOut
from repro.switch.cache import EvictionPolicy

__all__ = [
    "DifaneController",
    "DifaneNetwork",
    "HeartbeatMonitor",
    "PartitionInvariantError",
]


class PartitionInvariantError(AssertionError):
    """Raised by :meth:`DifaneController.assert_all_partitions_owned`."""


class HeartbeatMonitor:
    """Controller-side failure detector driven by switch heartbeats.

    An authority switch is declared dead once no heartbeat has arrived
    for ``miss_threshold`` × ``interval_s`` seconds; detection latency is
    therefore an *emergent* property of the beat period, the threshold,
    the control-channel latency, and any channel faults — not a scripted
    delay.  On detection the monitor invokes the controller's existing
    :meth:`~DifaneController.handle_authority_failure` path; when beats
    later resume (the switch was repaired, or the detection was a false
    positive) the switch is reinstated as eligible for future placement.
    """

    def __init__(
        self,
        controller: "DifaneController",
        interval_s: float,
        miss_threshold: int = 3,
        on_detect: Optional[Callable[[str], None]] = None,
    ):
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {miss_threshold}")
        self.controller = controller
        self.interval_s = interval_s
        self.miss_threshold = miss_threshold
        self.on_detect = on_detect
        self.last_seen: Dict[str, float] = {}
        self.dead: set = set()
        #: (detection time, switch) pairs, in detection order.
        self.detections: List[Tuple[float, str]] = []
        #: (recovery time, switch) pairs: beats resumed from a dead-marked switch.
        self.recoveries: List[Tuple[float, str]] = []
        #: Detections of switches whose behaviour was in fact alive.
        self.false_positives = 0
        self._started = False

    def start(self) -> None:
        """Begin monitoring every current authority switch from now."""
        scheduler = self.controller.network.scheduler
        now = scheduler.now
        for name in self.controller.authority_switches:
            self.last_seen[name] = now
        self._started = True
        scheduler.schedule(self.interval_s, self._check)

    def observe(self, switch: str, when: float) -> None:
        """Record a heartbeat from ``switch`` received at ``when``."""
        if switch in self.dead:
            self.dead.discard(switch)
            self.recoveries.append((when, switch))
            self.controller.reinstate_authority(switch)
        self.last_seen[switch] = when

    @property
    def deadline_s(self) -> float:
        """Silence beyond this marks a switch dead."""
        return self.miss_threshold * self.interval_s

    def _check(self) -> None:
        scheduler = self.controller.network.scheduler
        now = scheduler.now
        for switch, seen in sorted(self.last_seen.items()):
            if switch in self.dead:
                continue
            if now - seen <= self.deadline_s:
                continue
            self.dead.add(switch)
            self.detections.append((now, switch))
            behaviour = self.controller.network.maybe_node(switch)
            if behaviour is not None and getattr(behaviour, "alive", True):
                self.false_positives += 1
            survivors = [
                name for name in self.controller.authority_switches
                if name != switch
            ]
            if switch in self.controller.authority_switches and survivors:
                repointed = self.controller.handle_authority_failure(switch)
                # Reconverged: give the caller its hook (e.g. invariant
                # checks).  When nothing was repointed — the switch owned
                # nothing, or no failover target was IGP-reachable — the
                # network is in degraded mode until a repair and there is
                # no new deployment state to validate.
                if repointed and self.on_detect is not None:
                    self.on_detect(switch)
        scheduler.schedule(self.interval_s, self._check)


@dataclass
class _PartitionState:
    """Controller-side record of one partition's deployment."""

    partition: Partition
    owners: List[str]  # primary first
    #: Authority-rule fragments installed per owner (owner -> fragments).
    installed: Dict[str, List[Rule]] = field(default_factory=dict)
    #: The partition rule (per ingress switch they are clones; we keep one
    #: object per switch so eviction is precise).
    partition_rules: Dict[str, Rule] = field(default_factory=dict)

    @property
    def primary(self) -> Optional[str]:
        """The first owner, or ``None`` while the partition is unowned."""
        return self.owners[0] if self.owners else None

    def fresh_fragments(self) -> List[Rule]:
        """New authority fragments for every partition rule, in rule order."""
        return [rule.derive(kind=RuleKind.AUTHORITY) for rule in self.partition.rules]

    def move_load_history(self, source: str, target: str) -> None:
        """Move the counters of ``source``'s fragments onto ``target``'s
        fragments of the same partition rule, zeroing the source.

        Paired by ``origin``, not list position: ``insert_rule`` appends
        to every owner's list but sorts ``partition.rules``, from which
        later owners are built.
        """
        by_origin = {f.origin: f for f in self.installed.get(target, ())}
        for old in self.installed.get(source, ()):
            new = by_origin.get(old.origin)
            if new is not None:
                new.packet_count += old.packet_count
                new.byte_count += old.byte_count
                old.packet_count = 0
                old.byte_count = 0


class DifaneController(Collectable):
    """Proactive rule partitioning and distribution, plus dynamics handling."""

    def __init__(
        self,
        network: SimNetwork,
        layout: HeaderLayout,
        authority_switches: Sequence[str],
        replication: int = 1,
        partitions_per_authority: int = 1,
        cut_strategy: str = "split-aware",
    ):
        if not authority_switches:
            raise ValueError("DIFANE needs at least one authority switch")
        self.network = network
        self.layout = layout
        self.authority_switches = list(authority_switches)
        self.replication = replication
        self.partitions_per_authority = partitions_per_authority
        self.cut_strategy = cut_strategy
        self.policy: List[Rule] = []
        self.result: Optional[PartitionResult] = None
        self._states: Dict[int, _PartitionState] = {}
        # Optional robustness layer (see connect_control_plane).
        self.channels: Dict[str, ControlChannel] = {}
        self.monitor: Optional[HeartbeatMonitor] = None
        #: Sharded control plane, when attached (see repro.core.shards).
        #: Failure handling then routes through the owning shard so a dead
        #: shard's partitions wait for the lease takeover.
        self.shard_plane = None
        self._policy_table: Optional[RuleTable] = None
        # Management statistics (experiment E9 reads these).
        self.control_messages = 0
        self.cache_entries_flushed = 0
        self.policy_updates = 0
        self.cache_budget_updates = 0
        self.degraded_packet_ins = 0
        # The run's registry reads it, so metrics JSON carries the
        # degraded-mode load without reaching into controller objects.
        network.metrics.collect(
            "controller_degraded_packet_ins_total", self, "degraded_packet_ins"
        )

    # -- robustness layer (opt-in; reliable fabric stays the default) --------------
    def connect_control_plane(
        self,
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
        fault_model: Optional[ChannelFaultModel] = None,
        heartbeat_interval_s: Optional[float] = None,
        miss_threshold: int = 3,
        max_retries: Optional[int] = None,
        on_detect: Optional[Callable[[str], None]] = None,
    ) -> Dict[str, ControlChannel]:
        """Wire an explicit switch ↔ controller control plane.

        Creates one :class:`ControlChannel` per switch (sharing
        ``fault_model``, so a chaos brownout throttles every session at
        once), attaches it to the switch for the degraded packet-in
        fallback, and — when ``heartbeat_interval_s`` is set — starts
        heartbeat emission at every authority switch plus a
        :class:`HeartbeatMonitor` that detects failures after
        ``miss_threshold`` missed intervals.

        Without this call nothing changes: rule distribution stays the
        immediate, perfectly reliable configuration-time path.
        """
        for name in self.network.topology.switches():
            switch = self._switch(name)
            channel = ControlChannel(
                self.network.scheduler,
                name,
                to_controller=self._receive_control,
                to_switch=switch.receive_control,
                latency_s=latency_s,
                fault_model=fault_model,
                max_retries=max_retries,
            )
            channel.on_lost = self._control_message_lost
            switch.connect_control(channel)
            self.channels[name] = channel
        if heartbeat_interval_s is not None:
            self.monitor = HeartbeatMonitor(
                self, heartbeat_interval_s,
                miss_threshold=miss_threshold, on_detect=on_detect,
            )
            for name in self.authority_switches:
                self._switch(name).enable_heartbeats(heartbeat_interval_s)
            self.monitor.start()
        return self.channels

    def _receive_control(self, message: Message) -> None:
        """Dispatch one switch-to-controller message."""
        if isinstance(message, Heartbeat):
            if self.monitor is not None:
                self.monitor.observe(message.switch, self.network.scheduler.now)
        elif isinstance(message, PacketIn):
            self._handle_degraded_packet_in(message)

    def _handle_degraded_packet_in(self, message: PacketIn) -> None:
        """Classify an orphaned-partition packet and send the verdict back.

        The NOX-style escape hatch of paper §4.3's failure story: when a
        partition has no reachable replica left, the ingress switch punts
        to the controller, which classifies against the full policy and
        returns a PacketOut.  Slow (a control round trip per packet) but
        never silent — degraded, not broken.
        """
        self.degraded_packet_ins += 1
        if self._policy_table is None:
            self._policy_table = RuleTable(self.layout, self.policy)
        packet = message.packet
        winner = self._policy_table.lookup(packet)
        if winner is None:
            self.network.record_drop(packet, "controller", "no policy rule")
            return
        self.channels[message.switch].send_to_switch(
            PacketOut(switch=message.switch, packet=packet, actions=winner.actions)
        )

    def _control_message_lost(self, direction: str, message: Message) -> None:
        """A control message was permanently lost: account for its payload."""
        if isinstance(message, PacketIn):
            self.network.record_drop(
                message.packet, message.switch, "control channel lost"
            )

    def reinstate_authority(self, name: str) -> bool:
        """Make a repaired (or falsely-suspected) switch eligible again.

        Partitions are not moved back proactively — a migration
        (:class:`~repro.core.shards.PartitionMigrator`) or the next
        failover will use the switch — but it rejoins the candidate pool.  Returns True when the list actually changed.

        Authority fragments the switch still holds from before it died
        (its partitions were re-homed while it was down, so the
        controller-side ``installed`` record is gone) are purged here:
        left in place they would shadow any fresh install with identical
        priority, so a later kill→recover→kill cycle double-counts the
        switch's rules and load.
        """
        if name in self.authority_switches:
            return False
        self._purge_stale_fragments(name)
        self.authority_switches.append(name)
        return True

    def assert_all_partitions_owned(self) -> int:
        """Invariant: every partition is deployed on live authority switches.

        Checks, for every partition: a non-empty owner list; every owner
        registered as an authority switch, alive, and holding installed
        fragments; and every ingress switch's partition rule pointing at
        the current primary.  Raises :class:`PartitionInvariantError`
        listing all violations; returns the number of partitions checked.

        Run this after every reconvergence (failover handling, migration,
        repair) — a clean pass means no redirected packet can black-hole
        on a stale partition rule.
        """
        problems: List[str] = []
        for pid, state in sorted(self._states.items()):
            if not state.owners:
                problems.append(f"partition {pid}: no owners")
                continue
            for owner in state.owners:
                if owner not in self.authority_switches:
                    problems.append(
                        f"partition {pid}: owner {owner!r} is not an authority switch"
                    )
                if not self.network.switch_alive(owner):
                    problems.append(f"partition {pid}: owner {owner!r} is dead")
                if state.partition.rules and not state.installed.get(owner):
                    problems.append(
                        f"partition {pid}: owner {owner!r} has no installed fragments"
                    )
            primary = state.owners[0]
            for switch_name, rule in sorted(state.partition_rules.items()):
                action = rule.actions.actions[0]
                if action.destination != primary:
                    problems.append(
                        f"partition {pid}: {switch_name} partition rule points at "
                        f"{action.destination!r}, primary is {primary!r}"
                    )
        if problems:
            raise PartitionInvariantError(
                f"{len(problems)} partition invariant violation(s): "
                + "; ".join(problems)
            )
        return len(self._states)

    def control_plane_counters(self) -> Dict[str, int]:
        """Aggregate attempted/delivered/retry/duplicate/lost counters
        across every control session (empty dict when no control plane)."""
        totals: Dict[str, int] = {}
        for channel in self.channels.values():
            for key, value in channel.counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- initial distribution ----------------------------------------------------
    def install_policy(self, rules: Sequence[Rule]) -> PartitionResult:
        """Partition ``rules`` and push everything to the switches.

        Initial distribution is configuration time (offline); it is applied
        immediately rather than through latency-modelled messages.
        """
        self.policy = list(rules)
        self._policy_table = None
        num_partitions = len(self.authority_switches) * self.partitions_per_authority
        result = partition_policy(
            self.policy,
            self.layout,
            num_partitions=num_partitions,
            cut_strategy=self.cut_strategy,
        )
        assignment = assign_partitions(
            result.partitions, self.authority_switches, replication=self.replication
        )
        self.result = result
        self._states.clear()

        for partition in result.partitions:
            state = _PartitionState(partition, list(assignment[partition.partition_id]))
            for owner in state.owners:
                self._install_fragments(state, owner)
            self._states[partition.partition_id] = state

        # Partition rules go to every switch (any switch can be an ingress).
        for name in self.network.topology.switches():
            switch = self._switch(name)
            for partition in result.partitions:
                state = self._states[partition.partition_id]
                rule = Rule(
                    match=Match(self.layout, partition.region),
                    priority=0,
                    actions=Encapsulate(
                        state.owners[0], backups=tuple(state.owners[1:])
                    ),
                    kind=RuleKind.PARTITION,
                )
                switch.install_rule(rule)
                state.partition_rules[name] = rule
                self.control_messages += 1
        return result

    # -- policy dynamics (paper §4.1) -----------------------------------------------
    def insert_rule(self, rule: Rule) -> int:
        """Add one policy rule at its priority; returns affected partitions.

        The new rule's clipped fragments are installed at the authority
        switches owning every partition it overlaps, and — for correctness
        — cache rules overlapping the new match are flushed everywhere
        (they may have been generated under the old, lower-priority
        winner).
        """
        if self.result is None:
            raise RuntimeError("install_policy must run before insert_rule")
        self.policy_updates += 1
        self._policy_table = None  # degraded-path classifier is stale
        self._insert_by_priority(rule)
        affected = 0
        for state in self._states.values():
            fragment_base = rule.clip_to(state.partition.region)
            if fragment_base is None:
                continue
            affected += 1
            state.partition.rules.append(fragment_base)
            state.partition.rules.sort(key=lambda r: -r.priority)
            for owner in state.owners:
                fragment = fragment_base.derive(kind=RuleKind.AUTHORITY)
                self._switch(owner).install_rule(fragment)
                state.installed[owner].append(fragment)
                self.control_messages += 1
        self._flush_caches(lambda cached: cached.match.intersects(rule.match))
        return affected

    def delete_rule(self, rule: Rule) -> int:
        """Remove one policy rule; returns affected partitions.

        Authority fragments derived from it are withdrawn and cache rules
        derived from it flushed.  Cache rules of *other* rules stay: their
        matches are subsets of their old win regions, which only grow when
        a higher-priority rule disappears, so they remain correct.
        """
        if self.result is None:
            raise RuntimeError("install_policy must run before delete_rule")
        self.policy_updates += 1
        self._policy_table = None  # degraded-path classifier is stale
        try:
            self.policy.remove(rule)
        except ValueError:
            raise ValueError("rule is not part of the installed policy") from None
        affected = 0
        for state in self._states.values():
            touched = False
            state.partition.rules = [
                fragment for fragment in state.partition.rules
                if fragment.root_origin() is not rule
            ]
            for owner in state.owners:
                fragments = state.installed[owner]
                doomed = [f for f in fragments if f.root_origin() is rule]
                for fragment in doomed:
                    self._switch(owner).uninstall_rule(fragment)
                    fragments.remove(fragment)
                    self.control_messages += 1
                    touched = True
            if touched:
                affected += 1
        self._flush_caches(lambda cached: cached.root_origin() is rule)
        return affected

    def _insert_by_priority(self, rule: Rule) -> None:
        index = 0
        while index < len(self.policy) and self.policy[index].priority >= rule.priority:
            index += 1
        self.policy.insert(index, rule)

    def _flush_caches(self, predicate) -> int:
        flushed_total = 0
        for name in self.network.topology.switches():
            switch = self._switch(name)
            flushed = switch.flush_cache_where(predicate)
            flushed_total += len(flushed)
            if flushed:
                self.control_messages += 1
        self.cache_entries_flushed += flushed_total
        return flushed_total

    # -- topology dynamics (paper §4.2) -----------------------------------------------
    def handle_link_failure(self, a: str, b: str) -> None:
        """React to a link failure: routing reconverges; partitions stand.

        This is the paper's separation argument made executable — no rule
        moves, no cache flush; only the link-state layer reacts.
        """
        self.network.topology.remove_link(a, b)
        self.network.rebuild_routes()

    def handle_host_move(self, host: str, new_switch: str) -> int:
        """Re-home ``host`` onto ``new_switch`` (paper §4.4, host mobility).

        Cached rules whose action forwards to the moved host are flushed
        at every switch (the paper's mechanism; idle timeouts are the
        backstop when the controller does not know about the move).
        Returns the number of flushed cache entries.
        """
        topology = self.network.topology
        old_switch = topology.host_attachment(host)
        spec = topology.link_spec(host, old_switch)
        topology.remove_link(host, old_switch)
        topology.add_link(host, new_switch, spec)
        self.network.rebuild_routes()
        return self._flush_caches(
            lambda cached: any(
                isinstance(action, Forward) and action.port == host
                for action in cached.actions
            )
        )

    def handle_authority_failure(self, failed: str) -> int:
        """Fail ``failed`` over to backups; returns re-pointed partitions.

        Partitions whose primary died promote their first live backup; if
        none exists the partition's fragments are re-installed on the
        least-loaded surviving authority switch.  Every ingress switch's
        partition rule for those partitions is re-pointed.

        The controller participates in the IGP, so it knows instantly
        which switches still have links: candidates with none (e.g. a
        backup that died moments ago, before its own heartbeat deadline)
        are never promoted.  A partition with no IGP-reachable candidate
        at all is left untouched — the data plane degrades to
        controller packet-in until a repair — rather than re-pointed at
        a switch known to be unreachable.  With a shard plane attached,
        partitions of a dead shard wait for its lease takeover instead.
        """
        if self.shard_plane is not None:
            return self.shard_plane.handle_authority_failure(failed)
        self._retire_authority(failed)
        repointed = 0
        for pid in sorted(self._states):
            if self.failover_partition(pid, failed):
                repointed += 1
        return repointed

    def _retire_authority(self, failed: str) -> None:
        """Drop ``failed`` from the authority candidate pool."""
        if failed not in self.authority_switches:
            raise ValueError(f"{failed!r} is not an authority switch")
        self.authority_switches.remove(failed)
        if not self.authority_switches:
            raise RuntimeError("last authority switch failed; policy is unreachable")

    def failover_partition(self, pid: int, failed: str) -> bool:
        """Fail one partition over from ``failed``; True when re-pointed.

        The per-partition core of :meth:`handle_authority_failure`,
        callable on its own by the sharded control plane for deferred
        failovers (the dead authority is already retired from the pool).
        """
        state = self._states[pid]
        if failed not in state.owners:
            return False
        state.owners.remove(failed)
        state.installed.pop(failed, None)
        if not any(self._igp_reachable(owner) for owner in state.owners):
            replacement = self._least_loaded_authority()
            if replacement is None:
                return False  # nothing reachable to fail over to
            self._install_fragments(state, replacement)
            state.owners = [replacement]
        elif not self._igp_reachable(state.owners[0]):
            # Rotate the first reachable backup into the primary slot.
            best = next(o for o in state.owners if self._igp_reachable(o))
            state.owners.remove(best)
            state.owners.insert(0, best)
        self._repoint_partition_rules(state)
        return True

    def _repoint_partition_rules(self, state: "_PartitionState") -> None:
        """Re-point every ingress switch's partition rule at the current
        owner list (primary first)."""
        primary = state.owners[0]
        for switch_name, partition_rule in state.partition_rules.items():
            switch = self._switch(switch_name)
            switch.uninstall_rule(partition_rule)
            new_rule = Rule(
                match=partition_rule.match,
                priority=0,
                actions=Encapsulate(primary, backups=tuple(state.owners[1:])),
                kind=RuleKind.PARTITION,
            )
            switch.install_rule(new_rule)
            state.partition_rules[switch_name] = new_rule
            self.control_messages += 1

    def _igp_reachable(self, name: str) -> bool:
        """Link-state view: a switch with no remaining links is known
        unreachable immediately, without waiting on a heartbeat deadline."""
        return bool(self.network.topology.links_of(name))

    def serviceable(self, name: str) -> bool:
        """Whether ``name`` is alive and IGP-reachable: fit to own a partition."""
        return self.network.switch_alive(name) and self._igp_reachable(name)

    def _least_loaded_authority(self) -> Optional[str]:
        """Least-loaded IGP-reachable authority switch, or ``None``."""
        load = {
            name: 0 for name in self.authority_switches
            if self._igp_reachable(name)
        }
        if not load:
            return None
        for state in self._states.values():
            for owner in state.owners:
                if owner in load:
                    load[owner] += state.partition.entry_count
        return min(sorted(load), key=lambda name: load[name])

    # -- load monitoring & repartitioning (paper §4) ------------------------------------
    def partition_loads(self) -> Dict[int, int]:
        """Measured redirect load per partition (packets at the primary).

        Authority-rule counters at the primary owner count exactly the
        redirected traffic of that partition (cache hits never reach the
        authority switch), which is the load metric rebalancing uses.  An
        unowned partition has no primary and load 0.
        """
        loads: Dict[int, int] = {}
        for pid, state in self._states.items():
            fragments = state.installed.get(state.primary, [])
            loads[pid] = sum(fragment.packet_count for fragment in fragments)
        return loads

    def load_imbalance(self) -> float:
        """``max / mean`` primary load across authority switches (>= 1)."""
        per_switch: Dict[str, int] = {name: 0 for name in self.authority_switches}
        for pid, load in self.partition_loads().items():
            primary = self._states[pid].primary
            if primary in per_switch:
                per_switch[primary] += load
        values = list(per_switch.values())
        mean = sum(values) / len(values) if values else 0.0
        if mean <= 0:
            return 1.0
        return max(values) / mean

    def _install_fragments(self, state: _PartitionState, owner: str) -> None:
        """Install fresh fragments of ``state``'s partition at ``owner`` on
        the configuration-time path and record them as ``owner``'s."""
        fragments = state.installed[owner] = state.fresh_fragments()
        switch = self._switch(owner)
        for fragment in fragments:
            switch.install_rule(fragment)
            self.control_messages += 1

    def _withdraw(self, owner: str, fragments: Sequence[Rule]) -> None:
        """Uninstall ``fragments`` from ``owner`` on the configuration-time path."""
        switch = self._switch(owner)
        for fragment in fragments:
            switch.uninstall_rule(fragment)
            self.control_messages += 1

    def _purge_stale_fragments(self, name: str) -> None:
        """Drop authority fragments ``name`` holds that no partition's
        ``installed`` record lists (left from before it was cut off)."""
        behaviour = self.network.maybe_node(name)
        if behaviour is not None and hasattr(behaviour, "purge_stale_authority_rules"):
            expected: List[Rule] = []
            for state in self._states.values():
                expected.extend(state.installed.get(name, ()))
            behaviour.purge_stale_authority_rules(expected)

    # -- cache budget partitioning (cost-aware caching) ---------------------------------
    def partition_cache_budgets(
        self, total_budget: Optional[int] = None, floor: int = 1
    ) -> Dict[str, int]:
        """Partition a network-wide cache budget by per-ingress offered load.

        A switch's offered load is the ingress classifications it has seen
        (cache hits + local authority hits + redirects out) — the demand
        its cache region actually absorbs.  The total budget (default: the
        sum of current per-switch capacities, i.e. a pure reshuffle) is
        apportioned by the largest-remainder method with a per-switch
        ``floor``, deterministically (fractional-part descending, switch
        name ascending), then applied through
        :meth:`CacheManager.set_capacity` — a shrinking switch evicts down
        under its own policy.  Returns the budget map.
        """
        names = sorted(self.network.topology.switches())
        if not names:
            return {}
        switches = {name: self._switch(name) for name in names}
        if total_budget is None:
            total_budget = sum(s.cache.capacity for s in switches.values())
        if total_budget < 0:
            raise ValueError(f"total budget must be non-negative, got {total_budget}")
        base = min(max(floor, 0), total_budget // len(names))
        remaining = total_budget - base * len(names)
        loads = {
            name: s.cache_hits + s.authority_hits + s.redirects_out
            for name, s in switches.items()
        }
        total_load = sum(loads.values())
        budgets = {name: base for name in names}
        if remaining > 0:
            if total_load > 0:
                quotas = {
                    name: remaining * loads[name] / total_load for name in names
                }
            else:
                quotas = {name: remaining / len(names) for name in names}
            leftover = remaining
            for name in names:
                whole = int(quotas[name])
                budgets[name] += whole
                leftover -= whole
            order = sorted(
                names, key=lambda name: (-(quotas[name] - int(quotas[name])), name)
            )
            for name in order[:leftover]:
                budgets[name] += 1
        now = self.network.scheduler.now
        for name in names:
            switches[name].cache.set_capacity(budgets[name], now=now)
            self.control_messages += 1
        self.cache_budget_updates += 1
        return budgets

    # -- transparency: per-policy-rule statistics -------------------------------------
    def collect_policy_counters(self):
        """Fold every derived rule's counters back onto the policy rules.

        DIFANE splits, clips and caches the operator's rules, but the
        operator still expects per-rule packet/byte counts (what a
        FlowStatsRequest would return from one giant switch).  Every
        packet is classified exactly once — at an ingress cache rule, a
        local authority rule, or the redirect-target authority rule — so
        summing those counters per :meth:`Rule.root_origin` reconstructs
        the single-table statistics exactly.

        Returns a mapping ``policy rule -> CounterSnapshot``.
        """
        from repro.switch.counters import aggregate_counters

        derived = []
        for name in self.network.topology.switches():
            switch = self._switch(name)
            derived.extend(switch.pipeline.cache.rules())
            derived.extend(switch.pipeline.authority.rules())
        return aggregate_counters(derived)

    # -- helpers -----------------------------------------------------------------------
    def _switch(self, name: str) -> DifaneSwitch:
        return self.network.node(name)

    def partitions(self) -> List[Partition]:
        """The current partitions (post any dynamics)."""
        return [state.partition for state in self._states.values()]

    def owners_of(self, partition_id: int) -> List[str]:
        """Current owner list (primary first) of a partition."""
        return list(self._states[partition_id].owners)

    def __repr__(self) -> str:
        return (
            f"<DifaneController {len(self._states)} partitions over "
            f"{len(self.authority_switches)} authority switches>"
        )


class DifaneNetwork:
    """Facade: build a complete DIFANE deployment in one call.

    Example
    -------
    >>> topo = TopologyBuilder.three_tier_campus()
    >>> dn = DifaneNetwork.build(topo, rules, FIVE_TUPLE_LAYOUT,
    ...                          authority_count=2, cache_capacity=64)
    >>> dn.send(host, packet)
    >>> dn.run(until=1.0)
    """

    def __init__(self, network: SimNetwork, controller: DifaneController):
        self.network = network
        self.controller = controller

    @classmethod
    def build(
        cls,
        topology: Topology,
        rules: Sequence[Rule],
        layout: HeaderLayout,
        authority_count: int = 1,
        authority_switches: Optional[Sequence[str]] = None,
        cache_capacity: int = 1024,
        replication: int = 1,
        partitions_per_authority: int = 1,
        redirect_rate: Optional[float] = None,
        redirect_queue: int = 512,
        idle_timeout: Optional[float] = None,
        eviction: EvictionPolicy = EvictionPolicy.LRU,
        cut_strategy: str = "split-aware",
        forwarding_delay_s: float = 0.0,
        prefetch_fragments: int = 1,
        loss_seed: int = 0,
        cache_options: Optional[dict] = None,
    ) -> "DifaneNetwork":
        """Construct switches, controller and partitions over ``topology``.

        ``loss_seed`` seeds per-link loss/jitter draws (only consulted on
        links whose spec enables faults).
        """
        network = SimNetwork(topology, loss_seed=loss_seed)
        for name in topology.switches():
            network.register_node(
                DifaneSwitch(
                    name,
                    layout,
                    cache_capacity=cache_capacity,
                    redirect_rate=redirect_rate,
                    redirect_queue=redirect_queue,
                    idle_timeout=idle_timeout,
                    eviction=eviction,
                    forwarding_delay_s=forwarding_delay_s,
                    prefetch_fragments=prefetch_fragments,
                    cache_options=cache_options,
                )
            )
        if authority_switches is None:
            authority_switches = choose_authority_switches(topology, authority_count)
        controller = DifaneController(
            network,
            layout,
            authority_switches,
            replication=replication,
            partitions_per_authority=partitions_per_authority,
            cut_strategy=cut_strategy,
        )
        controller.install_policy(rules)
        return cls(network, controller)

    # -- convenience -------------------------------------------------------------
    def send(self, host: str, packet: Packet) -> None:
        """Inject ``packet`` from ``host`` now."""
        self.network.inject_from_host(host, packet)

    def send_at(self, time: float, host: str, packet: Packet) -> None:
        """Schedule ``packet`` injection from ``host`` at absolute ``time``."""
        self.network.scheduler.schedule_in_order(
            time, self.network.inject_from_host, host, packet
        )

    def send_batch_at(self, time: float, switch: str, packets: List[Packet]) -> None:
        """Schedule a same-instant burst's injection at ``switch`` at ``time``.

        One scheduler event carries the whole burst; at fire time every
        packet of it takes the per-packet path (see
        :meth:`SimNetwork.inject_batch_at_switch`).
        """
        self.network.scheduler.schedule_in_order(
            time, self.network.inject_batch_at_switch, switch, packets
        )

    def run(self, until: Optional[float] = None) -> int:
        """Run the event loop."""
        return self.network.run(until=until)

    def switch(self, name: str) -> DifaneSwitch:
        """The :class:`DifaneSwitch` behaviour at ``name``."""
        return self.network.node(name)

    def switches(self) -> List[DifaneSwitch]:
        """All switch behaviours."""
        return [self.network.node(n) for n in self.network.topology.switches()]

    # -- aggregate statistics --------------------------------------------------------
    def cache_hit_rate(self) -> float:
        """Fraction of ingress classifications served from the cache."""
        hits = sum(s.cache_hits for s in self.switches())
        local = sum(s.authority_hits for s in self.switches())
        misses = sum(s.redirects_out for s in self.switches())
        total = hits + local + misses
        return hits / total if total else 0.0

    def total_redirects(self) -> int:
        """Packets that detoured through an authority switch."""
        return sum(s.redirects_handled for s in self.switches())

    def policy_counters(self):
        """Per-policy-rule statistics (see
        :meth:`DifaneController.collect_policy_counters`)."""
        return self.controller.collect_policy_counters()

    def tcam_report(self) -> Dict[str, Dict[str, int]]:
        """Per-switch TCAM occupancy by region."""
        report = {}
        for switch in self.switches():
            report[switch.name] = {
                "cache": len(switch.pipeline.cache),
                "authority": len(switch.pipeline.authority),
                "partition": len(switch.pipeline.partition),
            }
        return report
