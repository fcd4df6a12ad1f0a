"""Cache-rule management at ingress switches.

DIFANE ingress switches hold reactively-installed wildcard **cache rules**
in a bounded TCAM region.  The paper keeps cache maintenance simple — the
partition rules below the cache guarantee correctness whatever the cache
contents, so eviction is purely a performance knob.  We implement the
policies the evaluation exercises:

* **LRU** — evict the least recently hit cache rule (the paper's default);
* **FIFO** — evict the oldest install (ablation);
* **RANDOM** — evict uniformly at random (ablation baseline);
* **COST** — flow-driven cost-aware eviction (FDRC-style): the victim is
  the entry with the lowest predicted re-fetch cost, a GreedyDual-style
  score combining a deterministic EWMA of the entry's hit rate, the
  headerspace coverage of the cached fragment, and the measured redirect
  penalty to the owning authority switch;
* idle / hard **timeouts** — the mechanism host-mobility handling relies
  on (§4 of the paper): stale cache rules age out.

The manager's bookkeeping is index-backed: an exact occupancy counter, a
``(match, actions)``-keyed duplicate map, a lazy-stale min-heap keyed per
policy, and a lazy-stale **deadline heap** for timeouts replace the
per-install linear scans of the original implementation.
:class:`ScanCacheManager` keeps those scans alive as the equivalence
oracle for property tests.  The indexes stay exact even when callers
mutate the TCAM directly (predicate eviction, ``clear``) because they are
maintained from the TCAM's observer hooks, not from the manager's own
call sites.

The deadline heap holds, per rule that carries a timeout, a *lower bound*
on the instant it can expire.  The bound needs no push per hit under one
contract: timeouts are stamped before the rule reaches ``tcam.install``
and activity stamps (``installed_at``, ``last_hit_at``) only move forward
with the simulation clock.  ``Rule.is_expired`` stays the only judge of
expiry; the heap merely nominates whom to ask.
"""

from __future__ import annotations

import heapq
import math
import random
from enum import Enum
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.flowspace.rule import Rule, RuleKind
from repro.switch.tcam import Tcam

__all__ = ["EvictionPolicy", "CacheManager", "ScanCacheManager"]

#: EWMA step for the manager-level re-fetch penalty estimate (used for
#: entries installed without a per-rule penalty stamp).
_PENALTY_ALPHA = 0.25
#: COST policy: the re-fetch penalty (seconds) that normalizes the score
#: to 1.0 per expected hit when no measured penalty exists.
_COST_BASE_PENALTY_S = 1e-3
#: COST policy: weight of the fragment's headerspace coverage term (a
#: fully wildcarded fragment scores ``1 + weight`` times an exact-match
#: one at equal rate and penalty).
_COST_COVERAGE_WEIGHT = 1.0


class EvictionPolicy(Enum):
    """Which cache rule to sacrifice when the cache region is full."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"
    COST = "cost"


class _Entry:
    """Per-cached-rule index record.

    ``order_key`` mirrors the rule table's ``(-priority, insertion seq)``
    iteration order so heap ties resolve exactly like the scan oracle's
    first-minimal ``min()``.  COST state (EWMA ``rate``, cached ``score``,
    headerspace ``coverage``) lives here so both the indexed manager and
    the scan oracle read identical numbers.
    """

    __slots__ = ("rule", "order_key", "alive", "rate", "last_obs", "score",
                 "coverage")

    def __init__(self, rule: Rule, order_key: Tuple[int, int]):
        self.rule = rule
        self.order_key = order_key
        self.alive = True
        self.rate = 0.0
        self.last_obs: Optional[float] = None
        self.score = 0.0
        self.coverage = 0.0


class CacheManager:
    """Bounded cache region of an ingress switch's TCAM.

    Parameters
    ----------
    tcam:
        The TCAM holding the cache rules (cache rules only — DIFANE stores
        partition rules in a separate, tiny region; see
        :class:`repro.switch.pipeline.DifanePipeline`).
    capacity:
        Maximum number of cache rules.
    policy:
        Eviction policy; LRU matches the paper.
    default_idle_timeout / default_hard_timeout:
        Timeouts stamped onto installed cache rules (seconds; ``None``
        disables).
    cost_tau:
        COST policy: EWMA time constant (seconds) of the per-entry hit
        rate; hits decay by ``exp(-dt/tau)``.
    class_weights:
        QoS: per-flow-class multipliers on the COST score (see
        :mod:`repro.obs.qos`).  Empty/None leaves scoring untouched.
    reserved:
        QoS: per-flow-class reserved entry counts.  While a class holds
        at most its reservation, its entries are never selected as
        victims for *other* classes' installs (residency protection).
    """

    def __init__(
        self,
        tcam: Tcam,
        capacity: int,
        policy: EvictionPolicy = EvictionPolicy.LRU,
        default_idle_timeout: Optional[float] = None,
        default_hard_timeout: Optional[float] = None,
        seed: int = 0,
        cost_tau: float = 1.0,
        class_weights: Optional[Dict[str, float]] = None,
        reserved: Optional[Dict[str, int]] = None,
    ):
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        self.tcam = tcam
        self.capacity = capacity
        self.policy = policy
        self.default_idle_timeout = default_idle_timeout
        self.default_hard_timeout = default_hard_timeout
        self._rng = random.Random(seed)
        self.inserted = 0
        #: Churn attribution split: capacity/policy evictions vs timeout
        #: expirations vs policy-change invalidations.  The legacy
        #: ``evicted`` total is the :attr:`evicted` property (their sum).
        self.evicted_capacity = 0
        self.expired = 0
        self.invalidated = 0
        self.cost_tau = float(cost_tau)
        #: Running estimate of the redirect penalty, fed by the
        #: ``refetch_penalty_s`` stamps on installed rules.
        self.refetch_penalty_ewma: Optional[float] = None
        # GreedyDual inflation clock: raised to the victim's score on every
        # capacity eviction, so long-resident entries age without rescans.
        self._cost_clock = 0.0
        # -- QoS residency protection (empty = zero-overhead legacy path) --
        self._class_weights: Dict[str, float] = {}
        self._reserved: Dict[str, int] = {}
        self._class_occupancy: Dict[str, int] = {}
        # -- indexes (maintained from the TCAM's observer hooks) --
        self._entries: Dict[int, _Entry] = {}
        self._by_key: Dict[tuple, Rule] = {}
        self._occupancy = 0
        self._heap: List[tuple] = []
        self._push_seq = 0
        self._install_seq = 0
        # Lazy-stale deadline heap: (due lower bound, order_key, entry).
        self._deadlines: List[tuple] = []
        for rule in tcam.rules(RuleKind.CACHE):
            self._note_install(rule)
        tcam.add_install_hook(self._note_install)
        tcam.add_evict_hook(self._note_evict)
        if policy is EvictionPolicy.COST:
            tcam.add_hit_hook(self._note_hit)
        if class_weights:
            self.set_class_weights(class_weights)
        if reserved:
            self.set_reservations(reserved)

    # -- installs ---------------------------------------------------------------
    def cache_rules(self) -> List[Rule]:
        """Cache rules currently installed."""
        return self.tcam.rules(RuleKind.CACHE)

    def occupancy(self) -> int:
        """Number of cache rules installed."""
        return self._occupancy

    @property
    def evicted(self) -> int:
        """Total cache rules removed — the golden-compatible aggregate."""
        return self.evicted_capacity + self.expired + self.invalidated

    def eviction_breakdown(self) -> Dict[str, int]:
        """The churn split: capacity evictions / expirations / invalidations."""
        return {
            "evicted": self.evicted_capacity,
            "expired": self.expired,
            "invalidated": self.invalidated,
        }

    # -- QoS protection knobs ---------------------------------------------------
    def set_class_weights(self, weights: Optional[Dict[str, float]]) -> None:
        """Install per-class COST score multipliers (QoS residency bias).

        Rescores live entries so the heap reflects the new weights
        immediately; non-COST policies just store them (inert).
        """
        self._class_weights = {
            name: float(value) for name, value in (weights or {}).items()
        }
        if self.policy is EvictionPolicy.COST:
            for entry in self._entries.values():
                self._rescore(entry)

    def set_reservations(self, reserved: Optional[Dict[str, int]]) -> None:
        """Install per-class reserved entry counts (residency protection).

        Rebuilds the per-class occupancy index from the live entries, so
        reservations configured after warm-up still count what's already
        resident.
        """
        self._reserved = {
            name: int(value)
            for name, value in (reserved or {}).items()
            if int(value) > 0
        }
        self._class_occupancy = {}
        if self._reserved:
            for entry in self._entries.values():
                name = entry.rule.flow_class
                if name is not None:
                    self._class_occupancy[name] = (
                        self._class_occupancy.get(name, 0) + 1
                    )

    def _shielded(self, rule: Rule, installing_class: Optional[str]) -> bool:
        """True when ``rule`` sits inside its class's reservation and the
        install pressuring it comes from a *different* class."""
        name = rule.flow_class
        if name is None or name == installing_class:
            return False
        reserve = self._reserved.get(name, 0)
        return 0 < self._class_occupancy.get(name, 0) <= reserve

    def install(self, rule: Rule, now: float) -> Optional[Rule]:
        """Install a cache rule, evicting per policy if needed.

        Returns the installed rule, or ``None`` when ``capacity`` is zero
        (caching disabled).  Duplicate installs (same match & actions
        already present) refresh the existing rule instead of consuming a
        new entry — the common case when several packets of one flow miss
        back-to-back before the install completes.
        """
        if self.capacity == 0:
            return None
        if rule.kind is not RuleKind.CACHE:
            raise ValueError(f"expected a cache rule, got {rule.kind}")
        existing = self._find_duplicate(rule)
        if existing is not None:
            existing.last_hit_at = now
            if self.policy is EvictionPolicy.COST:
                entry = self._entries.get(id(existing))
                if entry is not None:
                    self._observe(entry, 1, now)
            return existing
        while self.occupancy() >= self.capacity:
            victim = self._select_victim(now, installing_class=rule.flow_class)
            if victim is None:
                return None
            self._evict_victim(victim)
        if rule.idle_timeout is None:
            rule.idle_timeout = self.default_idle_timeout
        if rule.hard_timeout is None:
            rule.hard_timeout = self.default_hard_timeout
        self._note_penalty(rule)
        self.tcam.install(rule, now=now)
        self.inserted += 1
        return rule

    def set_capacity(self, capacity: int, now: float = 0.0) -> List[Rule]:
        """Retarget the cache budget, evicting down per policy if shrinking.

        This is the controller's budget-partitioning hook: per-switch
        budgets computed from offered load land here.  Returns the rules
        evicted to fit the new budget (counted as capacity evictions).
        """
        if capacity < 0:
            raise ValueError(f"cache capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        evicted: List[Rule] = []
        while self.occupancy() > self.capacity:
            victim = self._select_victim(now)
            if victim is None and self._reserved:
                # A shrink must land whatever the reservations say; the
                # protection only arbitrates *between* classes at equal
                # total budget.
                victim = self._select_victim(now, ignore_protection=True)
            if victim is None:
                break
            self._evict_victim(victim)
            evicted.append(victim)
        return evicted

    def _evict_victim(self, victim: Rule) -> None:
        if self.policy is EvictionPolicy.COST:
            entry = self._entries.get(id(victim))
            if entry is not None:
                self._cost_clock = max(self._cost_clock, entry.score)
        self.tcam.evict(victim)
        self.evicted_capacity += 1

    def _find_duplicate(self, rule: Rule) -> Optional[Rule]:
        return self._by_key.get((rule.match, rule.actions))

    def _select_victim(
        self,
        now: Optional[float] = None,
        installing_class: Optional[str] = None,
        ignore_protection: bool = False,
    ) -> Optional[Rule]:
        guard = bool(self._reserved) and not ignore_protection
        if self.policy is EvictionPolicy.RANDOM:
            candidates = self.cache_rules()
            if guard:
                candidates = [
                    rule for rule in candidates
                    if not self._shielded(rule, installing_class)
                ]
            if not candidates:
                return None
            return self._rng.choice(candidates)
        if self._occupancy == 0:
            return None
        heap = self._heap
        cost = self.policy is EvictionPolicy.COST
        # Shielded entries popped during the search are parked here and
        # re-pushed afterwards: re-pushing a *current* key immediately
        # would pop the same tuple again forever.
        deferred: List[tuple] = []
        victim: Optional[Rule] = None
        while heap:
            key, order_key, _seq, entry = heapq.heappop(heap)
            if not entry.alive:
                continue
            current = entry.score if cost else self._sort_key(entry)
            if key != current:
                # Stale tuple.  LRU/FIFO keys move without a push (hits
                # mutate last_hit_at directly), so requeue at the current
                # key; COST pushes on every score change, so a fresh tuple
                # already exists and the stale one just drops.
                if not cost:
                    self._push(entry, current)
                continue
            if guard and self._shielded(entry.rule, installing_class):
                deferred.append((current, entry))
                continue
            # Keep the heap covering every alive entry even if the caller
            # decides not to evict the returned victim.
            self._push(entry, current)
            victim = entry.rule
            break
        for key, entry in deferred:
            self._push(entry, key)
        return victim

    # -- index maintenance (TCAM observer hooks) --------------------------------
    def _note_install(self, rule: Rule) -> None:
        if rule.kind is not RuleKind.CACHE:
            return
        order_key = (-rule.priority, self._install_seq)
        self._install_seq += 1
        entry = _Entry(rule, order_key)
        self._entries[id(rule)] = entry
        self._by_key[(rule.match, rule.actions)] = rule
        self._occupancy += 1
        if self._reserved:
            cls = rule.flow_class
            if cls is not None:
                self._class_occupancy[cls] = self._class_occupancy.get(cls, 0) + 1
        if self.policy is EvictionPolicy.COST:
            ternary = rule.match.ternary
            if ternary.width:
                entry.coverage = ternary.wildcard_bits() / ternary.width
            entry.rate = 1.0 / self.cost_tau
            entry.last_obs = rule.installed_at
            self._rescore(entry)
        elif self.policy is not EvictionPolicy.RANDOM:
            self._push(entry, self._sort_key(entry))
        due = _deadline(rule, -math.inf)
        if due != math.inf:
            heap = self._deadlines
            heapq.heappush(heap, (due, order_key, entry))
            if len(heap) > max(64, 4 * self._occupancy):
                # Capacity-evicted and invalidated entries linger until
                # due: drop them (a live entry's old bound stays valid).
                heap[:] = [item for item in heap if item[2].alive]
                heapq.heapify(heap)

    def _note_evict(self, rule: Rule) -> None:
        entry = self._entries.pop(id(rule), None)
        if entry is None:
            return
        entry.alive = False
        key = (rule.match, rule.actions)
        if self._by_key.get(key) is rule:
            del self._by_key[key]
        self._occupancy -= 1
        if self._reserved:
            cls = rule.flow_class
            if cls is not None:
                remaining = self._class_occupancy.get(cls, 0) - 1
                if remaining > 0:
                    self._class_occupancy[cls] = remaining
                else:
                    self._class_occupancy.pop(cls, None)

    def _note_hit(self, rule: Rule, now: Optional[float]) -> None:
        entry = self._entries.get(id(rule))
        if entry is not None:
            self._observe(entry, 1, now)

    def _note_penalty(self, rule: Rule) -> None:
        penalty = rule.refetch_penalty_s
        if penalty is None:
            return
        if self.refetch_penalty_ewma is None:
            self.refetch_penalty_ewma = float(penalty)
        else:
            self.refetch_penalty_ewma += _PENALTY_ALPHA * (
                penalty - self.refetch_penalty_ewma
            )

    # -- COST scoring -----------------------------------------------------------
    def _observe(self, entry: _Entry, count: int, now: Optional[float]) -> None:
        if now is not None:
            if entry.last_obs is not None and now > entry.last_obs:
                entry.rate *= math.exp((entry.last_obs - now) / self.cost_tau)
            if entry.last_obs is None or now > entry.last_obs:
                entry.last_obs = now
        entry.rate += count / self.cost_tau
        self._rescore(entry)

    def _rescore(self, entry: _Entry) -> None:
        entry.score = self._cost_clock + self._value(entry)
        self._push(entry, entry.score)

    def _value(self, entry: _Entry) -> float:
        penalty = entry.rule.refetch_penalty_s
        if penalty is None:
            penalty = self.refetch_penalty_ewma
        if penalty is None or penalty <= 0.0:
            penalty = _COST_BASE_PENALTY_S
        value = (
            (entry.rate * self.cost_tau)
            * (penalty / _COST_BASE_PENALTY_S)
            * (1.0 + _COST_COVERAGE_WEIGHT * entry.coverage)
        )
        if self._class_weights:
            value *= self._class_weights.get(entry.rule.flow_class, 1.0)
        return value

    # -- heap -------------------------------------------------------------------
    def _sort_key(self, entry: _Entry) -> float:
        if self.policy is EvictionPolicy.FIFO:
            return _install_time(entry.rule)
        return _last_activity(entry.rule)

    def _push(self, entry: _Entry, key: float) -> None:
        heapq.heappush(self._heap, (key, entry.order_key, self._push_seq, entry))
        self._push_seq += 1
        if len(self._heap) > max(64, 4 * self._occupancy):
            self._compact()

    def _compact(self) -> None:
        cost = self.policy is EvictionPolicy.COST
        heap = []
        seq = 0
        for entry in self._entries.values():
            key = entry.score if cost else self._sort_key(entry)
            heap.append((key, entry.order_key, seq, entry))
            seq += 1
        heapq.heapify(heap)
        self._heap = heap
        self._push_seq = seq

    # -- maintenance ----------------------------------------------------------------
    def expire(self, now: float) -> List[Rule]:
        """Evict cache rules whose timeouts have elapsed, in table order.

        ``is_expired`` tests ``now - ref >= timeout`` while the heap orders
        by ``ref + timeout``; the two round an ulp apart, so the horizon
        carries a few ulps of slack and the exact predicate decides.
        """
        heap = self._deadlines
        if not heap:
            return []
        horizon = now + 4 * math.ulp(now)
        doomed: List[_Entry] = []
        # Live nominees that are not expired (a hit or refresh moved their
        # reference) are re-keyed after the loop: re-pushing a borderline
        # bound inside it would pop the same tuple again forever.
        deferred: List[_Entry] = []
        while heap and heap[0][0] <= horizon:
            entry = heapq.heappop(heap)[2]
            if entry.alive:
                (doomed if entry.rule.is_expired(now) else deferred).append(entry)
        for entry in deferred:
            heapq.heappush(heap, (_deadline(entry.rule, now), entry.order_key, entry))
        doomed.sort(key=attrgetter("order_key"))
        expired = [entry.rule for entry in doomed]
        for rule in expired:
            self.tcam.evict(rule)
        self.expired += len(expired)
        return expired

    def invalidate_origin(self, policy_rule: Rule) -> List[Rule]:
        """Evict every cache rule derived from ``policy_rule``.

        This is the policy-change path: when the controller updates a rule,
        authority switches flush the cache entries it spawned.  Matching is
        by identity with a stable-id fallback so rules that crossed a
        serialization or shard-migration boundary (same ``rule_id`` but a
        different object) still invalidate.
        """
        flushed = self.tcam.evict_if(
            lambda rule: rule.kind is RuleKind.CACHE
            and _derives_from(rule, policy_rule)
        )
        self.invalidated += len(flushed)
        return flushed

    def flush(self) -> List[Rule]:
        """Evict all cache rules (e.g. on ingress switch reset)."""
        flushed = self.tcam.evict_if(lambda rule: rule.kind is RuleKind.CACHE)
        self.invalidated += len(flushed)
        return flushed


class ScanCacheManager(CacheManager):
    """Reference oracle: the pre-index linear scans over shared state.

    Overrides only the four scan points (occupancy, expiry, duplicate
    detection, victim selection) with the original O(n) implementations;
    every piece of state maintenance — counters, COST scores, penalty
    EWMA — is inherited, so property tests can drive an indexed manager
    and a scan manager through identical operation sequences and require
    the same victims, survivors, and counters byte-for-byte.
    """

    def occupancy(self) -> int:
        return len(self.cache_rules())

    def expire(self, now: float) -> List[Rule]:
        expired = self.tcam.evict_if(
            lambda rule: rule.kind is RuleKind.CACHE and rule.is_expired(now)
        )
        self.expired += len(expired)
        return expired

    def _find_duplicate(self, rule: Rule) -> Optional[Rule]:
        for existing in self.cache_rules():
            if existing.match == rule.match and existing.actions == rule.actions:
                return existing
        return None

    def _select_victim(
        self,
        now: Optional[float] = None,
        installing_class: Optional[str] = None,
        ignore_protection: bool = False,
    ) -> Optional[Rule]:
        candidates = self.cache_rules()
        if self._reserved and not ignore_protection:
            candidates = [
                rule for rule in candidates
                if not self._shielded(rule, installing_class)
            ]
        if not candidates:
            return None
        if self.policy is EvictionPolicy.LRU:
            return min(candidates, key=_last_activity)
        if self.policy is EvictionPolicy.FIFO:
            return min(candidates, key=_install_time)
        if self.policy is EvictionPolicy.COST:
            entries = self._entries
            return min(candidates, key=lambda rule: entries[id(rule)].score)
        return self._rng.choice(candidates)


def _derives_from(rule: Rule, policy_rule: Rule) -> bool:
    root = rule.root_origin()
    if root is policy_rule:
        return True
    return (
        root.rule_id == policy_rule.rule_id
        and root.kind is policy_rule.kind
        and root.priority == policy_rule.priority
        and root.match == policy_rule.match
    )


def _deadline(rule: Rule, now: float) -> float:
    """Lower bound on the instant ``rule`` can expire (``inf`` = never).

    A rule with an idle timeout but no stamp yet cannot be stamped before
    ``now`` (``-inf`` when unknown, so the next ``expire`` asks again).
    """
    due = math.inf
    if rule.hard_timeout is not None and rule.installed_at is not None:
        due = rule.installed_at + rule.hard_timeout
    if rule.idle_timeout is not None:
        reference = rule.last_hit_at
        if reference is None:
            reference = rule.installed_at
        if reference is None:
            reference = now
        due = min(due, reference + rule.idle_timeout)
    return due


def _last_activity(rule: Rule) -> float:
    if rule.last_hit_at is not None:
        return rule.last_hit_at
    if rule.installed_at is not None:
        return rule.installed_at
    return float("-inf")


def _install_time(rule: Rule) -> float:
    return rule.installed_at if rule.installed_at is not None else float("-inf")
