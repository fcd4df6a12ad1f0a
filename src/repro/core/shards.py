"""Self-healing sharded control plane with online partition migration.

PR 2 gave the controller a failure story (heartbeats, ARQ channels,
backup promotion) but kept it a single process with an oracle view.
This module splits the *management* half of the controller into ``N``
replica shards, each owning a subset of partitions, and adds the two
pieces a replicated control plane needs:

* :class:`ShardedControlPlane` — deterministic shard membership
  (SHA-256 ownership derivation, like the PR 4 sweep seeds), a leader
  lease renewed over the PR 2 ARQ-reliable channel, deterministic
  lowest-live-id elections when the lease expires, and an
  OwnershipTransfer → OwnershipAck handshake that re-homes a dead
  shard's partitions onto the survivors.  Authority-switch failures
  route through the owning shard: a dead shard's partitions *defer*
  their failover until the lease takeover adopts them — detection is
  emergent from message timing, never a scripted callback.

* :class:`PartitionMigrator` — two-phase online migration of one
  partition to a new authority switch: (1) install fragments at the
  target over the reliable channel (the target joins the owner list as
  a backup, so the partition is never unowned); (2) once every install
  is acked, *flip* — one atomic event that moves the load history,
  promotes the target to primary, and re-points every ingress
  partition rule; (3) after a grace period long enough for in-flight
  redirects to drain, retire the source's fragments.
  :meth:`DifaneController.assert_all_partitions_owned` holds at every
  event boundary of a migration.

* :class:`Rebalancer` — the self-healing loop.  On its own simulated
  cadence it snapshots per-switch work into synthetic telemetry
  windows, runs the :mod:`repro.obs.health` detectors over them, and
  acts on the findings: a *degraded-mode* critical (or a partition
  with no live reachable owner) triggers orphan healing onto spare
  switches; an *authority-imbalance* warning triggers a greedy hot
  repack, pulling spares into the pool until the projected Jain
  fairness clears the detector's own threshold.

Everything is seeded and event-driven: identical runs (any ``--jobs``)
produce byte-identical migration histories.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.partition import assign_partitions_to_shards, greedy_pack
from repro.obs.health import (
    IMBALANCE_FAIRNESS_THRESHOLD,
    evaluate_telemetry,
    jain_fairness,
)
from repro.obs.trace import TraceKind
from repro.flowspace.rule import Rule
from repro.openflow.channel import (
    ChannelFaultModel,
    ControlChannel,
    DEFAULT_CONTROL_LATENCY_S,
)
from repro.openflow.messages import (
    FlowMod,
    FlowModCommand,
    LeaseRenew,
    Message,
    OwnershipAck,
    OwnershipTransfer,
)

__all__ = [
    "ControllerShard",
    "Migration",
    "PartitionMigrator",
    "Rebalancer",
    "ShardedControlPlane",
    "attach_sharded_control_plane",
]

#: A migration stuck in its retire phase (the source died before acking
#: the fragment deletes) force-completes after this long.
RETIRE_TIMEOUT_S = 0.25


@dataclass
class ControllerShard:
    """One control-plane replica's membership view (plane-side record)."""

    name: str
    shard_id: int
    alive: bool = True
    #: Highest lease term this shard has seen.
    term: int = 0
    #: When the last lease renewal arrived (shards start leased).
    last_lease: float = 0.0


class ShardedControlPlane:
    """N controller shards coordinating over ARQ-reliable channels.

    Partition ownership is derived deterministically
    (``derive_seed(seed, ("shard", pid, n_shards)) % n_shards``), the
    leader renews its lease every ``lease_interval_s`` over a dedicated
    :class:`ControlChannel` per follower, and a follower whose lease
    goes stale for ``miss_threshold`` intervals elects the lowest-id
    live shard.  The new leader adopts dead shards' partitions through
    the OwnershipTransfer/OwnershipAck handshake — each transfer rides
    the channel's seq/ack machinery, so the takeover tolerates the
    same drop/delay faults as the data-plane control sessions.

    Management operations on a partition (authority failover, hot
    migration) are routed through :meth:`can_act_on`: a partition whose
    owning shard is dead *defers* until adoption lands, mirroring a
    real control plane's unavailability window.
    """

    def __init__(
        self,
        controller,
        n_shards: int = 2,
        seed: int = 0,
        lease_interval_s: float = 0.02,
        miss_threshold: int = 3,
        latency_s: float = DEFAULT_CONTROL_LATENCY_S,
        fault_model: Optional[ChannelFaultModel] = None,
        max_retries: Optional[int] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if miss_threshold < 1:
            raise ValueError(f"miss_threshold must be >= 1, got {miss_threshold}")
        self.controller = controller
        self.network = controller.network
        self.n_shards = n_shards
        self.seed = seed
        self.lease_interval_s = lease_interval_s
        self.miss_threshold = miss_threshold
        self.shards: Dict[str, ControllerShard] = {
            f"shard{i}": ControllerShard(name=f"shard{i}", shard_id=i)
            for i in range(n_shards)
        }
        self.leader_name = "shard0"
        self.term = 0
        #: Bumped per adoption round so re-derived ownership differs
        #: between successive takeovers (deterministically).
        self.generation = 0
        #: Authoritative (leader-view) owner shard per partition id.
        self.ownership: Dict[int, str] = {}
        #: Partitions mid-handshake: pid -> target shard awaiting its ack.
        self.in_transfer: Dict[int, str] = {}
        #: Deferred work for partitions whose shard is dead / in transfer.
        self.pending_failovers: List[Tuple[int, str]] = []
        self.pending_migrations: List[Tuple[int, str, str]] = []
        #: Structured event log (exported; deterministic).
        self.events: List[Dict[str, object]] = []
        self.deferred_failovers_applied = 0
        #: Optional migrator for draining deferred migrations.
        self.migrator: Optional["PartitionMigrator"] = None
        self.rebalancer: Optional["Rebalancer"] = None
        self._last_ack: Dict[str, float] = {}
        self._epoch = 0.0
        self._started = False
        scheduler = self.network.scheduler
        self.channels: Dict[str, ControlChannel] = {
            name: ControlChannel(
                scheduler,
                name,
                to_controller=functools.partial(self._receive_at_leader, name),
                to_switch=functools.partial(self._receive_at_shard, name),
                latency_s=latency_s,
                fault_model=fault_model,
                max_retries=max_retries,
                metrics=self.network.metrics,
            )
            for name in sorted(self.shards)
        }
        registry = self.network.metrics
        self._m = {
            event: registry.counter("control_plane_events_total", event=event)
            for event in (
                "lease-renewal", "election", "adoption", "transfer",
                "transfer-ack", "shard-kill", "shard-restore",
                "deferred-failover", "deferred-migration",
            )
        }

    # -- lifecycle -----------------------------------------------------------
    @property
    def timeout_s(self) -> float:
        """Lease silence beyond this marks the leaseholder suspect."""
        return self.miss_threshold * self.lease_interval_s

    def start(self) -> None:
        """Derive the initial ownership map and begin the lease loop."""
        now = self.network.scheduler.now
        self._epoch = now
        pids = sorted(self.controller._states)
        shard_of = assign_partitions_to_shards(pids, self.n_shards, seed=self.seed)
        self.ownership = {pid: f"shard{shard_of[pid]}" for pid in pids}
        for shard in self.shards.values():
            shard.last_lease = now
            self._last_ack[shard.name] = now
        self.controller.shard_plane = self
        self._started = True
        self.network.scheduler.schedule(self.lease_interval_s, self._tick)

    def _by_id(self) -> List[ControllerShard]:
        return sorted(self.shards.values(), key=lambda s: s.shard_id)

    def can_act_on(self, pid: int) -> bool:
        """Whether management operations on ``pid`` can run *now*.

        False while the owning shard is dead or the partition is mid
        ownership-transfer — callers defer and the work drains once
        adoption completes.
        """
        if pid in self.in_transfer:
            return False
        owner = self.ownership.get(pid)
        if owner is None:
            return True
        return self.shards[owner].alive

    # -- chaos hooks ---------------------------------------------------------
    def kill_shard(self, name: str) -> bool:
        """Kill one control-plane replica (idempotent; False if dead)."""
        shard = self.shards[name]
        if not shard.alive:
            return False
        now = self.network.scheduler.now
        shard.alive = False
        self._m["shard-kill"].inc()
        self._event(now, "shard-kill", name, "replica down")
        channel = self.channels[name]
        channel.set_endpoint_alive("down", False)
        channel.drain_pending()
        if name == self.leader_name:
            # The leader role itself went dark: nothing receives the
            # "up" direction until a takeover (or this shard's repair).
            for other in self.channels.values():
                other.set_endpoint_alive("up", False)
        return True

    def restore_shard(self, name: str) -> bool:
        """Repair a replica; it rejoins owning nothing (idempotent)."""
        shard = self.shards[name]
        if shard.alive:
            return False
        now = self.network.scheduler.now
        shard.alive = True
        shard.last_lease = now
        self._last_ack[name] = now
        self._m["shard-restore"].inc()
        self._event(now, "shard-restore", name, "replica up")
        self.channels[name].set_endpoint_alive("down", True)
        if name == self.leader_name:
            # Restored before any takeover: it resumes leadership.
            for other in self.channels.values():
                other.set_endpoint_alive("up", True)
        return True

    # -- management routing ----------------------------------------------------
    def handle_authority_failure(self, failed: str) -> int:
        """Shard-routed authority failover; returns re-pointed partitions.

        Partitions owned by live shards fail over immediately through
        :meth:`DifaneController.failover_partition`; the rest queue
        until their shard's partitions are adopted by a live leader.
        """
        controller = self.controller
        controller._retire_authority(failed)
        repointed = 0
        now = self.network.scheduler.now
        for pid in sorted(controller._states):
            if failed not in controller._states[pid].owners:
                continue
            if self.can_act_on(pid):
                if controller.failover_partition(pid, failed):
                    repointed += 1
            else:
                self.pending_failovers.append((pid, failed))
                self._m["deferred-failover"].inc()
                self._event(
                    now, "deferred-failover", self.ownership.get(pid, "?"),
                    f"partition {pid}: owner shard unavailable",
                )
        return repointed

    def defer_migration(self, pid: int, target: str, reason: str) -> None:
        """Queue a migration until ``pid``'s shard is available again."""
        self.pending_migrations.append((pid, target, reason))
        self._m["deferred-migration"].inc()
        self._event(
            self.network.scheduler.now, "deferred-migration",
            self.ownership.get(pid, "?"),
            f"partition {pid} -> {target} ({reason})",
        )

    def _drain_deferred(self) -> None:
        """Apply queued work whose partitions became actionable."""
        if not self.pending_failovers and not self.pending_migrations:
            return
        controller = self.controller
        still_f: List[Tuple[int, str]] = []
        for pid, failed in self.pending_failovers:
            if not self.can_act_on(pid):
                still_f.append((pid, failed))
                continue
            if failed in controller._states[pid].owners:
                controller.failover_partition(pid, failed)
            self.deferred_failovers_applied += 1
        self.pending_failovers = still_f
        still_m: List[Tuple[int, str, str]] = []
        for pid, target, reason in self.pending_migrations:
            if not self.can_act_on(pid):
                still_m.append((pid, target, reason))
                continue
            if self.migrator is not None:
                self.migrator.migrate(pid, target, reason=reason)
        self.pending_migrations = still_m

    # -- lease protocol --------------------------------------------------------
    def _tick(self) -> None:
        now = self.network.scheduler.now
        leader = self.shards[self.leader_name]
        if leader.alive:
            self._broadcast_lease(now)
            self._adopt_from_silent_followers(now)
        else:
            self._maybe_elect(now)
        self.network.scheduler.schedule(self.lease_interval_s, self._tick)

    def _broadcast_lease(self, now: float) -> None:
        for shard in self._by_id():
            if shard.name == self.leader_name:
                continue
            self._m["lease-renewal"].inc()
            self.channels[shard.name].send_to_switch(
                LeaseRenew(leader=self.leader_name, term=self.term, sent_at=now),
                on_acked=functools.partial(self._lease_acked, shard.name),
            )

    def _lease_acked(self, name: str) -> None:
        self._last_ack[name] = self.network.scheduler.now

    def _adopt_from_silent_followers(self, now: float) -> None:
        """Leader-side death detection: a follower that stopped acking
        lease renewals past the timeout — and whose replica really is
        down — has its partitions adopted.  The ack-staleness gate keeps
        detection emergent from message timing; the liveness check keeps
        a merely-browned-out follower from being robbed of partitions it
        still serves."""
        for shard in self._by_id():
            if shard.name == self.leader_name or shard.alive:
                continue
            if now - self._last_ack.get(shard.name, self._epoch) <= self.timeout_s:
                continue
            orphans = [
                pid for pid, owner in sorted(self.ownership.items())
                if owner == shard.name and pid not in self.in_transfer
            ]
            orphans += [
                pid for pid, target in sorted(self.in_transfer.items())
                if target == shard.name
            ]
            if orphans:
                self._event(
                    now, "follower-dead", shard.name,
                    f"no lease ack for {self.timeout_s:g}s; "
                    f"adopting {len(orphans)} partition(s)",
                )
                self._adopt(sorted(set(orphans)), now)

    def _maybe_elect(self, now: float) -> None:
        live = [s for s in self._by_id() if s.alive]
        if not live:
            return
        if not any(now - s.last_lease > self.timeout_s for s in live):
            return  # lease not stale yet: detection stays emergent
        self._become_leader(live[0].name, now)

    def _become_leader(self, name: str, now: float) -> None:
        old = self.leader_name
        self.term += 1
        self.leader_name = name
        shard = self.shards[name]
        shard.last_lease = now
        shard.term = self.term
        self._m["election"].inc()
        self._event(now, "election", name, f"term {self.term} replaces {old}")
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.record(
                now, TraceKind.SHARD_TAKEOVER, shard, node=name,
                detail=f"term {self.term} replaces {old}",
            )
        # The "up" endpoint is the leader *role*; it is alive again.
        for channel in self.channels.values():
            channel.set_endpoint_alive("up", True)
        self._adopt_orphans(now)
        self._broadcast_lease(now)

    def _adopt_orphans(self, now: float) -> None:
        orphans: List[int] = []
        for pid in sorted(self.ownership):
            target = self.in_transfer.get(pid)
            if target is not None:
                if not self.shards[target].alive:
                    del self.in_transfer[pid]
                    orphans.append(pid)
                continue
            if not self.shards[self.ownership[pid]].alive:
                orphans.append(pid)
        self._adopt(orphans, now)

    def _adopt(self, pids: List[int], now: float) -> None:
        """Re-derive ownership of ``pids`` over the live membership."""
        live = [s.name for s in self._by_id() if s.alive]
        if not live or not pids:
            return
        from repro.parallel.seeds import derive_seed

        self.generation += 1
        assignment: Dict[str, List[int]] = {}
        for pid in sorted(pids):
            target = live[
                derive_seed(self.seed, ("takeover", pid, self.generation)) % len(live)
            ]
            assignment.setdefault(target, []).append(pid)
        for target in sorted(assignment):
            chunk = assignment[target]
            if target == self.leader_name:
                self._m["adoption"].inc()
                self._event(
                    now, "adoption", target,
                    f"leader adopts partition(s) {chunk}",
                )
                self._apply_ownership(target, chunk)
            else:
                for pid in chunk:
                    self.in_transfer[pid] = target
                self._m["transfer"].inc()
                self._event(
                    now, "transfer", target,
                    f"ownership transfer of partition(s) {chunk}",
                )
                self.channels[target].send_to_switch(
                    OwnershipTransfer(
                        shard=target, partition_ids=tuple(chunk), term=self.term
                    )
                )

    def _apply_ownership(self, shard_name: str, pids: Sequence[int]) -> None:
        for pid in pids:
            self.ownership[pid] = shard_name
            self.in_transfer.pop(pid, None)
        self._drain_deferred()

    # -- message receive (the two channel endpoints) -----------------------------
    def _receive_at_shard(self, name: str, message: Message) -> None:
        shard = self.shards[name]
        if not shard.alive:
            return
        if isinstance(message, LeaseRenew):
            shard.last_lease = self.network.scheduler.now
            shard.term = max(shard.term, message.term)
        elif isinstance(message, OwnershipTransfer):
            # Handshake: adoption is complete only when this ack makes
            # it back to the leader (itself ARQ-reliable).
            self.channels[name].send_to_controller(
                OwnershipAck(
                    shard=name,
                    partition_ids=message.partition_ids,
                    term=message.term,
                )
            )

    def _receive_at_leader(self, name: str, message: Message) -> None:
        if not self.shards[self.leader_name].alive:
            return
        if isinstance(message, OwnershipAck):
            if message.term != self.term:
                return  # stale ack from a previous leadership
            pids = sorted(
                pid for pid in message.partition_ids
                if self.in_transfer.get(pid) == message.shard
            )
            if pids:
                self._m["transfer-ack"].inc()
                self._event(
                    self.network.scheduler.now, "transfer-ack", message.shard,
                    f"partition(s) {pids} adopted",
                )
                self._apply_ownership(message.shard, pids)

    # -- export -----------------------------------------------------------------
    def channel_counters(self) -> Dict[str, int]:
        """Aggregate ARQ counters over every shard channel."""
        totals: Dict[str, int] = {}
        for name in sorted(self.channels):
            for key, value in self.channels[name].counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def export(self) -> Dict[str, object]:
        """The ``control_plane`` metrics-document section."""
        owned: Dict[str, List[int]] = {name: [] for name in self.shards}
        for pid in sorted(self.ownership):
            owned[self.ownership[pid]].append(pid)
        migrations: List[Dict[str, object]] = []
        if self.migrator is not None:
            migrations = self.migrator.export()
        rebalancer = None
        if self.rebalancer is not None:
            rebalancer = self.rebalancer.export()
        return {
            "schema": "difane-control-plane/1",
            "n_shards": self.n_shards,
            "seed": self.seed,
            "leader": self.leader_name,
            "term": self.term,
            "shards": [
                {
                    "name": shard.name,
                    "alive": shard.alive,
                    "leader": shard.name == self.leader_name,
                    "partitions": owned[shard.name],
                }
                for shard in self._by_id()
            ],
            "in_transfer": len(self.in_transfer),
            "pending_failovers": len(self.pending_failovers),
            "pending_migrations": len(self.pending_migrations),
            "deferred_failovers_applied": self.deferred_failovers_applied,
            "events": list(self.events),
            "channel": self.channel_counters(),
            "migrations": migrations,
            "rebalancer": rebalancer,
        }

    def _event(self, now: float, event: str, shard: str, detail: str) -> None:
        self.events.append(
            {"time": round(now, 9), "event": event, "shard": shard, "detail": detail}
        )

    def __repr__(self) -> str:
        live = sum(1 for s in self.shards.values() if s.alive)
        return (
            f"<ShardedControlPlane {live}/{self.n_shards} shards, "
            f"leader={self.leader_name} term={self.term}>"
        )


@dataclass
class Migration:
    """One partition's two-phase move between authority switches."""

    pid: int
    source: str
    target: str
    reason: str
    started_at: float
    flipped_at: Optional[float] = None
    completed_at: Optional[float] = None
    phase: str = "install"
    awaiting: int = field(default=0, repr=False)
    retire_fragments: List[Rule] = field(default_factory=list, repr=False)
    deadline: object = field(default=None, repr=False)
    #: Install-watchdog progress marker (acks outstanding at last check).
    awaiting_at_check: int = field(default=-1, repr=False)

    def as_dict(self) -> Dict[str, object]:
        return {
            "partition": self.pid,
            "source": self.source,
            "target": self.target,
            "reason": self.reason,
            "phase": self.phase,
            "started_at": round(self.started_at, 9),
            "flipped_at": None if self.flipped_at is None else round(self.flipped_at, 9),
            "completed_at": (
                None if self.completed_at is None else round(self.completed_at, 9)
            ),
        }


class PartitionMigrator:
    """Two-phase online migration of partitions between authority switches.

    install-at-target → flip-redirects → retire-at-source, with the
    target joining the owner list before the flip and the source
    leaving it only *at* the flip — so at every event boundary the
    partition has live owners and
    :meth:`DifaneController.assert_all_partitions_owned` passes.
    Installs and retires travel as FlowMods over the per-switch ARQ
    channel when one is connected (the flip waits for every install
    ack), or apply immediately on the configuration-time path.
    """

    def __init__(self, controller, retire_grace_s: float = 0.01,
                 on_complete: Optional[Callable[[Migration], None]] = None):
        self.controller = controller
        self.network = controller.network
        self.retire_grace_s = retire_grace_s
        self.on_complete = on_complete
        #: In-flight migrations by partition id.
        self.active: Dict[int, Migration] = {}
        #: Finished migrations (phase "done" or "aborted"), in order.
        self.finished: List[Migration] = []
        registry = self.network.metrics
        self._m_phase = {
            phase: registry.counter("control_plane_migrations_total", phase=phase)
            for phase in ("started", "flipped", "completed", "aborted")
        }
        self._m_reason = {}
        self._registry = registry

    # -- public API ------------------------------------------------------------
    def migrate(self, pid: int, target: str, reason: str = "manual"
                ) -> Optional[Migration]:
        """Begin moving partition ``pid``'s primary to ``target``.

        Returns the :class:`Migration`, or ``None`` when the move is a
        no-op or impossible (already migrating, target is the primary,
        target dead or IGP-unreachable).
        """
        controller = self.controller
        state = controller._states.get(pid)
        if state is None or pid in self.active:
            return None
        if state.primary == target or not controller.serviceable(target):
            return None
        if target not in controller.authority_switches:
            # Promote the spare into the pool (also purges any stale
            # fragments it kept from an earlier life as an authority).
            controller.reinstate_authority(target)
        else:
            # An existing authority may hold stale fragments from before
            # a kill window (its partitions were migrated away while it
            # was dead, so no retire FlowMods could reach it).  Left in
            # place they would shadow the fresh install below — purge
            # against the controller's installed records first.
            controller._purge_stale_fragments(target)
        now = self.network.scheduler.now
        # A partition can be fully unowned (every replica died and no
        # failover target was reachable): the migration is then a pure
        # adoption with nothing to retire.
        source = state.primary or "(none)"
        migration = Migration(
            pid=pid, source=source, target=target,
            reason=reason, started_at=now,
        )
        self.active[pid] = migration
        self._m_phase["started"].inc()
        self._count_reason(reason)
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.record(
                now, TraceKind.MIGRATE_START, state.partition, node=target,
                detail=f"partition {pid}: {migration.source}->{target} ({reason})",
            )
        if target in state.owners:
            # Already a backup: fragments are in place, flip directly.
            self._flip(migration)
            return migration
        state.owners.append(target)  # joins as backup: never unowned
        channel = controller.channels.get(target)
        if channel is None or not state.partition.rules:
            controller._install_fragments(state, target)
            self._flip(migration)
            return migration
        fragments = state.installed[target] = state.fresh_fragments()
        migration.awaiting = len(fragments)
        # Install watchdog: a target killed mid-install never acks (its
        # channel deliveries are swallowed and drained), which would
        # otherwise pin the migration in "install" forever.
        migration.deadline = self.network.scheduler.schedule(
            RETIRE_TIMEOUT_S, self._install_check, migration
        )
        for fragment in fragments:
            controller.control_messages += 1
            channel.send_to_switch(
                FlowMod(switch=target, command=FlowModCommand.ADD, rule=fragment),
                on_acked=functools.partial(self._install_acked, migration),
            )
        return migration

    def export(self) -> List[Dict[str, object]]:
        """Finished migrations first, then in-flight ones, as dicts."""
        records = [m.as_dict() for m in self.finished]
        records += [self.active[pid].as_dict() for pid in sorted(self.active)]
        return records

    # -- phase machinery ---------------------------------------------------------
    def _install_acked(self, migration: Migration) -> None:
        if migration.phase != "install":
            return
        migration.awaiting -= 1
        if migration.awaiting == 0:
            self._flip(migration)

    def _install_check(self, migration: Migration) -> None:
        """Install watchdog: abort when the target died or acks stalled.

        Fires every ``RETIRE_TIMEOUT_S`` while installs are outstanding.
        A dead/unreachable target aborts immediately; a live target that
        made no ack progress over a whole period (retry budget exhausted
        on a faulty channel) aborts too, so the partition never stays
        pinned behind a migration that cannot finish.
        """
        if migration.phase != "install":
            return
        migration.deadline = None
        controller = self.controller
        state = controller._states[migration.pid]
        stalled = migration.awaiting == migration.awaiting_at_check
        if (
            stalled
            or migration.target not in state.owners
            or not controller.serviceable(migration.target)
        ):
            self._abort(migration)
            return
        migration.awaiting_at_check = migration.awaiting
        migration.deadline = self.network.scheduler.schedule(
            RETIRE_TIMEOUT_S, self._install_check, migration
        )

    def _flip(self, migration: Migration) -> None:
        """Atomically promote the target: one event moves the load
        history, rewrites the owner list, and re-points every ingress
        partition rule — no packet window sees a half-flipped state."""
        controller = self.controller
        state = controller._states[migration.pid]
        if migration.phase != "install":
            return
        if migration.target not in state.owners or not controller.serviceable(migration.target):
            # The target was lost mid-install (failover or chaos kill).
            self._abort(migration)
            return
        if migration.deadline is not None:
            migration.deadline.cancel()
            migration.deadline = None
        now = self.network.scheduler.now
        source = migration.source
        if state.primary == source:
            # Move the load history so post-migration measurements stay
            # meaningful and transparency counters never double-count.
            state.move_load_history(source, migration.target)
        state.owners = [migration.target] + [
            owner for owner in state.owners
            if owner not in (migration.target, source)
        ]
        migration.retire_fragments = state.installed.pop(source, [])
        controller._repoint_partition_rules(state)
        migration.phase = "retire"
        migration.flipped_at = now
        self._m_phase["flipped"].inc()
        tracer = self.network.tracer
        if tracer.enabled:
            tracer.record(
                now, TraceKind.MIGRATE_FLIP, state.partition, node=migration.target,
                detail=f"partition {migration.pid}: primary now {migration.target}",
            )
        if migration.retire_fragments and self.network.switch_alive(source):
            self.network.scheduler.schedule(
                self.retire_grace_s, self._retire, migration
            )
        else:
            # Nothing to withdraw (or the source is dead: its stale
            # fragments are purged if it ever rejoins the pool).
            self._complete(migration)

    def _retire(self, migration: Migration) -> None:
        controller = self.controller
        source = migration.source
        if migration.phase != "retire":
            return
        if not self.network.switch_alive(source):
            self._complete(migration)
            return
        channel = controller.channels.get(source)
        if channel is None:
            controller._withdraw(source, migration.retire_fragments)
            self._complete(migration)
            return
        migration.awaiting = len(migration.retire_fragments)
        migration.deadline = self.network.scheduler.schedule(
            RETIRE_TIMEOUT_S, self._complete, migration
        )
        for fragment in migration.retire_fragments:
            controller.control_messages += 1
            channel.send_to_switch(
                FlowMod(switch=source, command=FlowModCommand.DELETE, rule=fragment),
                on_acked=functools.partial(self._retire_acked, migration),
            )

    def _retire_acked(self, migration: Migration) -> None:
        if migration.phase != "retire":
            return
        migration.awaiting -= 1
        if migration.awaiting == 0:
            self._complete(migration)

    def _complete(self, migration: Migration) -> None:
        if migration.pid not in self.active:
            return
        del self.active[migration.pid]
        if migration.deadline is not None:
            migration.deadline.cancel()
            migration.deadline = None
        now = self.network.scheduler.now
        migration.phase = "done"
        migration.completed_at = now
        self.finished.append(migration)
        self._m_phase["completed"].inc()
        tracer = self.network.tracer
        if tracer.enabled:
            state = self.controller._states[migration.pid]
            tracer.record(
                now, TraceKind.MIGRATE_DONE, state.partition, node=migration.target,
                detail=f"partition {migration.pid}: source {migration.source} retired",
            )
        if self.on_complete is not None:
            self.on_complete(migration)

    def _abort(self, migration: Migration) -> None:
        controller = self.controller
        state = controller._states[migration.pid]
        if migration.deadline is not None:
            migration.deadline.cancel()
            migration.deadline = None
        if migration.target in state.owners and state.owners[:1] != [migration.target]:
            state.owners.remove(migration.target)
            state.installed.pop(migration.target, None)
        del self.active[migration.pid]
        migration.phase = "aborted"
        migration.completed_at = self.network.scheduler.now
        self.finished.append(migration)
        self._m_phase["aborted"].inc()

    def _count_reason(self, reason: str) -> None:
        counter = self._m_reason.get(reason)
        if counter is None:
            counter = self._registry.counter(
                "control_plane_migration_reasons_total", reason=reason
            )
            self._m_reason[reason] = counter
        counter.inc()


class Rebalancer:
    """Telemetry-driven self-healing: consume health findings, migrate.

    Every ``interval_s`` of simulated time the rebalancer snapshots a
    synthetic telemetry window (per-switch redirect / degraded-packet
    deltas, in the exact counter-key format the real recorder exports)
    and runs :func:`repro.obs.health.evaluate_telemetry` over the
    accumulated series.  Findings in the newest window drive action:

    * **degraded-mode** (critical) — some partition lost every live
      owner; each orphan is migrated (reason ``"orphan"``) to the
      least-loaded live candidate among authorities and spares.
    * **authority-imbalance** (warning) — greedy repack of partitions
      by window load over the live authorities, pulling in spares one
      at a time while the projected Jain fairness stays below the
      detector threshold; at most ``max_moves_per_cycle`` migrations
      (reason ``"hot"``) per firing, then ``cooldown_cycles`` quiet
      cycles so in-flight moves can land before re-evaluating.

    When a :class:`ShardedControlPlane` is attached, actions on a
    partition whose owner shard is unavailable are deferred to it.
    """

    def __init__(
        self,
        controller,
        migrator: PartitionMigrator,
        plane: Optional[ShardedControlPlane] = None,
        interval_s: float = 0.02,
        spares: Sequence[str] = (),
        fairness_threshold: float = IMBALANCE_FAIRNESS_THRESHOLD,
        max_moves_per_cycle: int = 2,
        cooldown_cycles: int = 2,
    ):
        self.controller = controller
        self.network = controller.network
        self.migrator = migrator
        self.plane = plane
        self.interval_s = interval_s
        self.spares = list(spares)
        self.fairness_threshold = fairness_threshold
        self.max_moves_per_cycle = max_moves_per_cycle
        self.cooldown_cycles = cooldown_cycles
        #: Synthetic telemetry windows (health-detector input format).
        self.windows: List[Dict[str, object]] = []
        #: Per-cycle record: fairness and what was done.
        self.history: List[Dict[str, object]] = []
        #: Actions taken/deferred, in order.
        self.actions: List[Dict[str, object]] = []
        self._cooldown = 0
        self._last_switch: Dict[Tuple[str, str], int] = {}
        self._cumulative_redirects: Dict[str, int] = {}
        self._last_partition: Dict[int, int] = {}
        self._window_redirects: Dict[str, float] = {}
        registry = self.network.metrics
        self._m = {
            event: registry.counter("control_plane_rebalance_total", event=event)
            for event in ("cycle", "hot-move", "orphan-heal", "deferred")
        }
        self._started = False

    _SWITCH_STATS = (
        ("redirects_handled", "difane_redirects_handled_total"),
        ("degraded_packets", "difane_degraded_packets_total"),
    )

    def start(self) -> None:
        """Take the load baseline and begin the evaluation cadence."""
        for name in self.network.topology.switches():
            behaviour = self.network.node(name)
            for attr, _ in self._SWITCH_STATS:
                self._last_switch[(name, attr)] = getattr(behaviour, attr, 0)
        self._last_partition = dict(self.controller.partition_loads())
        self._started = True
        self.network.scheduler.schedule(self.interval_s, self._cycle)

    # -- the evaluation loop -----------------------------------------------------
    def _cycle(self) -> None:
        now = self.network.scheduler.now
        self._m["cycle"].inc()
        index = len(self.windows)
        counters: Dict[str, float] = {}
        self._window_redirects = {}
        for name in self.network.topology.switches():
            behaviour = self.network.node(name)
            for attr, metric in self._SWITCH_STATS:
                current = getattr(behaviour, attr, 0)
                delta = current - self._last_switch.get((name, attr), 0)
                self._last_switch[(name, attr)] = current
                if attr == "redirects_handled":
                    self._cumulative_redirects[name] = current
                    if delta:
                        self._window_redirects[name] = float(delta)
                if delta:
                    counters[f"{metric}{{switch={name}}}"] = float(delta)
        window = {
            "index": index,
            "start": round(now - self.interval_s, 9),
            "end": round(now, 9),
            "counters": counters,
        }
        self.windows.append(window)
        findings = [
            finding
            for finding in evaluate_telemetry({"windows": self.windows})
            if finding["window"] == index and finding["severity"] != "info"
        ]
        loads = self.controller.partition_loads()
        window_loads = {
            pid: max(0, loads.get(pid, 0) - self._last_partition.get(pid, 0))
            for pid in loads
        }
        self._last_partition = dict(loads)

        acted: List[str] = []
        if any(f["detector"] == "degraded-mode" for f in findings):
            acted += self._heal_orphans(now)
        if self._cooldown > 0:
            self._cooldown -= 1
        elif (
            any(f["detector"] == "authority-imbalance" for f in findings)
            and not self.migrator.active
        ):
            moves = self._plan_repack(window_loads)
            for pid, target in moves[: self.max_moves_per_cycle]:
                if self._request(pid, target, "hot", now):
                    acted.append(f"hot:{pid}->{target}")
            if moves:
                self._cooldown = self.cooldown_cycles
        self.history.append(
            {
                "index": index,
                "time": round(now, 9),
                "fairness": round(self._window_fairness(), 6),
                "findings": sorted(f["detector"] for f in findings),
                "acted": acted,
            }
        )
        self.network.scheduler.schedule(self.interval_s, self._cycle)

    def _window_fairness(self) -> float:
        """Jain fairness of this window's redirect load, computed over
        the same denominator the health detector uses (switches with any
        cumulative redirect work)."""
        authorities = sorted(
            name for name, total in self._cumulative_redirects.items() if total
        )
        if len(authorities) < 2:
            return 1.0
        return jain_fairness(
            [self._window_redirects.get(name, 0.0) for name in authorities]
        )

    # -- orphan healing ------------------------------------------------------------
    def _heal_orphans(self, now: float) -> List[str]:
        controller = self.controller
        healed: List[str] = []
        for pid in sorted(controller._states):
            state = controller._states[pid]
            if any(controller.serviceable(owner) for owner in state.owners):
                continue
            target = self._pick_target(exclude=set(state.owners))
            if target is None:
                continue
            if self._request(pid, target, "orphan", now):
                healed.append(f"orphan:{pid}->{target}")
        return healed

    def _pick_target(self, exclude: Set[str]) -> Optional[str]:
        controller = self.controller
        candidates = [
            name
            for name in dict.fromkeys(
                list(controller.authority_switches) + self.spares
            )
            if name not in exclude and controller.serviceable(name)
        ]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda name: (self._window_redirects.get(name, 0.0), name),
        )

    # -- hot repacking ---------------------------------------------------------------
    def _plan_repack(self, window_loads: Dict[int, float]) -> List[Tuple[int, str]]:
        """Greedy repack by measured window load; widen with spares while
        the projected fairness stays under the detector threshold."""
        controller = self.controller
        candidates = [
            name for name in controller.authority_switches
            if controller.serviceable(name)
        ]
        if not candidates:
            return []
        spares_left = [
            name for name in self.spares
            if name not in candidates and controller.serviceable(name)
        ]
        while True:
            assignment, packed = greedy_pack(window_loads, candidates)
            projected = jain_fairness(list(packed.values()))
            if projected >= self.fairness_threshold or not spares_left:
                break
            candidates = candidates + [spares_left.pop(0)]
        # Only move when the repack genuinely improves on the current
        # assignment: the detector can keep firing on a load profile no
        # repack can fix (e.g. an inherently dominant partition, or a
        # vacated authority pinning the fairness denominator), and
        # re-shuffling partitions then is pure thrash.
        current = {name: 0.0 for name in candidates}
        for pid, load in window_loads.items():
            primary = controller._states[pid].primary
            if primary in current:
                current[primary] += max(load, 1.0)
        if projected <= jain_fairness(list(current.values())) + 1e-9:
            return []
        # The assignment iterates in placement order: (-load, pid).
        return [
            (pid, target)
            for pid, (target,) in assignment.items()
            if target != controller._states[pid].primary
        ]

    # -- action routing ---------------------------------------------------------------
    def _request(self, pid: int, target: str, reason: str, now: float) -> bool:
        if self.plane is not None and not self.plane.can_act_on(pid):
            self.plane.defer_migration(pid, target, reason)
            self._m["deferred"].inc()
            self.actions.append(
                {
                    "time": round(now, 9), "partition": pid, "target": target,
                    "reason": reason, "outcome": "deferred",
                }
            )
            return False
        migration = self.migrator.migrate(pid, target, reason=reason)
        if migration is None:
            return False
        self._m["hot-move" if reason == "hot" else "orphan-heal"].inc()
        self.actions.append(
            {
                "time": round(now, 9), "partition": pid, "target": target,
                "reason": reason, "outcome": "migrating",
            }
        )
        return True

    def export(self) -> Dict[str, object]:
        """The ``rebalancer`` slice of the control-plane section."""
        return {
            "cycles": len(self.history),
            "spares": list(self.spares),
            "history": list(self.history),
            "actions": list(self.actions),
        }


def attach_sharded_control_plane(
    controller,
    n_shards: int = 2,
    seed: int = 0,
    lease_interval_s: float = 0.02,
    miss_threshold: int = 3,
    latency_s: float = DEFAULT_CONTROL_LATENCY_S,
    fault_model: Optional[ChannelFaultModel] = None,
    max_retries: Optional[int] = None,
    spares: Sequence[str] = (),
    rebalance: bool = True,
    rebalance_interval_s: float = 0.02,
    retire_grace_s: float = 0.01,
    max_moves_per_cycle: int = 2,
    cooldown_cycles: int = 2,
    on_migration_complete: Optional[Callable[[Migration], None]] = None,
) -> ShardedControlPlane:
    """Wire shards + migrator (+ optional rebalancer) onto a controller.

    Call after ``install_policy`` (ownership derivation needs the
    partitions).  Starts the lease loop and, when ``rebalance`` is on,
    the health-driven evaluation cadence.  Returns the plane; the
    migrator and rebalancer hang off it as attributes.
    """
    plane = ShardedControlPlane(
        controller,
        n_shards=n_shards,
        seed=seed,
        lease_interval_s=lease_interval_s,
        miss_threshold=miss_threshold,
        latency_s=latency_s,
        fault_model=fault_model,
        max_retries=max_retries,
    )
    migrator = PartitionMigrator(
        controller, retire_grace_s=retire_grace_s, on_complete=on_migration_complete
    )
    plane.migrator = migrator
    if rebalance:
        plane.rebalancer = Rebalancer(
            controller,
            migrator,
            plane=plane,
            interval_s=rebalance_interval_s,
            spares=spares,
            max_moves_per_cycle=max_moves_per_cycle,
            cooldown_cycles=cooldown_cycles,
        )
    plane.start()
    if plane.rebalancer is not None:
        plane.rebalancer.start()
    return plane
