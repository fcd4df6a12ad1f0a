"""Cost-aware cache management: indexed-vs-scan equivalence and policy tests.

The PR-9 cache core replaces three per-install linear scans with indexes
(occupancy counter, duplicate map, lazy-stale min-heap).  The contract is
*byte-equivalence*: an indexed :class:`CacheManager` and the scan-backed
:class:`ScanCacheManager` oracle driven through an identical operation
sequence must agree on every victim, survivor, timestamp, and counter.
That contract is property-tested here across all four eviction policies,
alongside the behavioural tests for the COST policy itself, install
batching, and controller budget partitioning.
"""

import contextlib
import pickle
import random
import signal

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.flowspace import (
    Drop,
    Forward,
    Match,
    Packet,
    Rule,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.rule import RuleKind
from repro.switch import Tcam
from repro.switch.cache import CacheManager, EvictionPolicy, ScanCacheManager

L = TWO_FIELD_LAYOUT

POLICIES = [
    EvictionPolicy.LRU,
    EvictionPolicy.FIFO,
    EvictionPolicy.RANDOM,
    EvictionPolicy.COST,
]


def cache_rule(f1, priority=5, port="x", origin=None, penalty=None):
    rule = Rule(
        Match.build(L, f1=f1), priority, Forward(port),
        kind=RuleKind.CACHE, origin=origin,
    )
    if penalty is not None:
        rule.refetch_penalty_s = penalty
    return rule


def manager(cls=CacheManager, capacity=3, policy=EvictionPolicy.LRU, **kwargs):
    return cls(Tcam(L), capacity=capacity, policy=policy, **kwargs)


# ---------------------------------------------------------------------------
# Property: indexed manager == scan oracle, byte for byte
# ---------------------------------------------------------------------------

TIMEOUTS = [None, 0.5, 3.0, 6.0]
#: Clock steps: fractional, so sums like 0.1 + 0.3 round the way real
#: simulation clocks do, and 0.0, so several ops share one instant.
STEPS = st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0, 2.5])

op_install = st.tuples(
    st.just("install"),
    st.integers(min_value=0, max_value=5),        # f1 (small: forces dups)
    st.integers(min_value=1, max_value=3),        # priority (heap ties)
    st.sampled_from(["x", "y"]),                  # action (dup key part)
    st.sampled_from([None, 1e-3, 2e-2]),          # refetch penalty stamp
    st.integers(min_value=0, max_value=2),        # origin index
    st.sampled_from(TIMEOUTS),                    # idle timeout (None: never)
    st.sampled_from(TIMEOUTS),                    # hard timeout
)
#: A rule that reaches the TCAM behind the manager's back, with no
#: install time: its idle timeout has no reference until the first hit.
op_raw = st.tuples(
    st.just("raw"), st.integers(min_value=0, max_value=5),
    st.sampled_from(TIMEOUTS),
)
op_hit = st.tuples(st.just("hit"), st.integers(min_value=0, max_value=5))
op_expire = st.tuples(st.just("expire"))
op_flush = st.tuples(st.just("flush"))
op_capacity = st.tuples(st.just("capacity"), st.integers(min_value=0, max_value=4))
op_invalidate = st.tuples(st.just("invalidate"), st.integers(min_value=0, max_value=2))

ops_lists = st.lists(
    st.tuples(
        STEPS,
        st.one_of(op_install, op_install, op_hit, op_expire, op_expire,
                  op_raw, op_flush, op_capacity, op_invalidate),
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(cls, policy, ops, origins):
    m = manager(cls, capacity=3, policy=policy, seed=7, cost_tau=4.0)
    #: What the outside sees: every eviction in hook order, and each
    #: ``expire`` call's returned list.
    m.log = []
    m.tcam.add_evict_hook(lambda rule: m.log.append(("evict", str(rule.match))))
    clock = 0.0
    for step, op in ops:
        clock += step
        kind = op[0]
        if kind == "install":
            _, f1, priority, port, penalty, origin_idx, idle, hard = op
            rule = cache_rule(f1, priority, port, origin=origins[origin_idx],
                              penalty=penalty)
            rule.idle_timeout, rule.hard_timeout = idle, hard
            m.install(rule, now=clock)
        elif kind == "raw":
            rule = cache_rule(op[1], 4, "raw")
            rule.idle_timeout = op[2]
            m.tcam.install(rule, now=None)
        elif kind == "hit":
            m.tcam.lookup(Packet.from_fields(L, f1=op[1]), now=clock)
        elif kind == "expire":
            expired = m.expire(now=clock)
            m.log.append(("expired", [str(rule.match) for rule in expired]))
        elif kind == "flush":
            m.flush()
        elif kind == "capacity":
            m.set_capacity(op[1], now=clock)
        elif kind == "invalidate":
            m.invalidate_origin(origins[op[1]])
    return m


def fingerprint(m):
    rules = m.cache_rules()
    scores = None
    if m.policy is EvictionPolicy.COST:
        scores = [m._entries[id(rule)].score for rule in rules]
    return (
        [
            (str(rule.match), str(rule.actions), rule.priority,
             rule.installed_at, rule.last_hit_at, rule.idle_timeout,
             rule.hard_timeout, rule.refetch_penalty_s)
            for rule in rules
        ],
        scores,
        m.occupancy(),
        m.capacity,
        m.inserted,
        m.evicted_capacity,
        m.expired,
        m.invalidated,
        m.evicted,
        m.refetch_penalty_ewma,
        m.tcam.evictions,
        getattr(m, "log", None),
    )


#: ``ref + timeout`` and ``now - ref`` round differently around this pair.
ADVERSARIAL_REF = 0.8553402726544312
ADVERSARIAL_DUE = 3.8553402726544315   # == ADVERSARIAL_REF + 3.0


@contextlib.contextmanager
def must_finish_within(seconds):
    """Turn a non-terminating call into a failure (no timeout plugin here)."""
    def overdue(signum, frame):
        raise AssertionError(f"did not finish within {seconds}s")
    previous = signal.signal(signal.SIGALRM, overdue)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


_IDLE_3 = ("install", 1, 5, "x", None, 0, 3.0, None)
_MISS = ("hit", 5)


@settings(max_examples=150, deadline=None)
@given(ops=ops_lists, policy=st.sampled_from(POLICIES))
# Plain clock steps reach the rounding gap: 0.1 + 0.3 + 0.3 = 0.7 and the
# clock lands on 3.6999999999999997, where ``now - 0.7 >= 3.0`` although
# ``0.7 + 3.0 > now`` — a heap that trusts ``due <= now`` keeps the rule.
@example(
    ops=[(0.1, _MISS), (0.3, _MISS), (0.3, _IDLE_3), (0.1, _MISS),
         (2.5, _MISS), (0.1, _MISS), (0.3, ("expire",))],
    policy=EvictionPolicy.LRU,
)
# One ulp short of expiry: nominated by the slack, refused by the
# predicate.  Re-pushed inside the pop loop it would pop forever.
@example(
    ops=[(ADVERSARIAL_REF, _IDLE_3), (2.9999999999999996, ("expire",)),
         (1.0, ("expire",))],
    policy=EvictionPolicy.LRU,
)
def test_prop_indexed_matches_scan_oracle(ops, policy):
    """Identical op sequences → identical state, victims, and counters.

    Expiry is the deadline heap on one side and the full-table scan on
    the other; the log pins the order rules leave in, not just the set.
    """
    origins = [Rule(Match.any(L), 9, Forward(f"o{i}")) for i in range(3)]
    with must_finish_within(30):
        indexed = apply_ops(CacheManager, policy, ops, origins)
    oracle = apply_ops(ScanCacheManager, policy, ops, origins)
    assert fingerprint(indexed) == fingerprint(oracle)
    assert len(indexed._deadlines) <= max(64, 4 * indexed.occupancy())


# ---------------------------------------------------------------------------
# Deadline-heap expiry: floating point, termination, bounded staleness
# ---------------------------------------------------------------------------

class TestDeadlineHeapExpiry:
    def pair(self, **kwargs):
        return [manager(cls, capacity=4, **kwargs)
                for cls in (CacheManager, ScanCacheManager)]

    def test_expired_by_subtraction_but_not_by_addition(self):
        """``now - ref >= 3.0`` holds although ``ref + 3.0 > now``: the scan
        expires the rule, and so must the heap — a ``due <= now`` test
        without rounding slack would keep it."""
        now = 3.855340272654431
        assert now - ADVERSARIAL_REF >= 3.0 and ADVERSARIAL_DUE > now
        for m in self.pair(default_idle_timeout=3.0):
            rule = m.install(cache_rule(1), now=ADVERSARIAL_REF)
            assert m.expire(now) == [rule]
            assert m.expired == 1 and m.occupancy() == 0

    def test_nominated_but_not_expired_terminates_and_survives(self):
        """One ulp earlier the bound is within the slack but the predicate
        says no: the nominee is parked and re-keyed after the pop loop
        (re-pushed inside it, the same tuple would pop forever) and still
        expires when its time comes."""
        early = 3.8553402726544306
        assert not (early - ADVERSARIAL_REF >= 3.0)
        for m in self.pair(default_idle_timeout=3.0):
            rule = m.install(cache_rule(1), now=ADVERSARIAL_REF)
            with must_finish_within(5):
                assert m.expire(early) == []
            assert m.occupancy() == 1
            assert m.expire(ADVERSARIAL_DUE) == [rule]

    def test_hits_and_refreshes_postpone_idle_but_not_hard(self):
        for m in self.pair(default_idle_timeout=3.0, default_hard_timeout=10.0):
            rule = m.install(cache_rule(1), now=0.0)
            m.tcam.lookup(Packet.from_fields(L, f1=1), now=2.0)
            assert m.expire(3.5) == []              # idle reference moved to 2.0
            m.install(cache_rule(1), now=4.5)       # duplicate refresh → 4.5
            assert m.expire(7.0) == []
            m.tcam.lookup(Packet.from_fields(L, f1=1), now=7.4)
            m.tcam.lookup(Packet.from_fields(L, f1=1), now=9.9)
            assert m.expire(9.99) == []
            assert m.expire(10.0) == [rule]         # hard timeout from install

    def test_rules_without_timeouts_never_enter_the_heap(self):
        m = manager(capacity=4)
        for i in range(4):
            m.install(cache_rule(i), now=float(i))
        assert m._deadlines == []
        assert m.expire(1e9) == [] and m.occupancy() == 4

    def test_unstamped_rule_is_keyed_from_its_first_sighting(self):
        """``installed_at=None`` + idle timeout: no reference until a hit."""
        for m in self.pair():
            rule = cache_rule(1)
            rule.idle_timeout = 2.0
            m.tcam.install(rule, now=None)
            assert m.expire(100.0) == []            # nothing to measure from
            m.tcam.lookup(Packet.from_fields(L, f1=1), now=100.5)
            assert m.expire(102.0) == []
            assert m.expire(102.5) == [rule]

    def test_simultaneous_expiries_leave_in_table_order(self):
        for m in self.pair(default_idle_timeout=1.0):
            low = m.install(cache_rule(1, priority=1), now=0.0)
            high_late = m.install(cache_rule(2, priority=3), now=0.5)
            high_early = m.install(cache_rule(3, priority=3), now=0.25)
            seen = []
            m.tcam.add_evict_hook(seen.append)
            # Lookup order: priority first, then installation order — not
            # deadline order (low is due first and leaves last).
            assert m.expire(5.0) == [high_late, high_early, low]
            assert seen == [high_late, high_early, low]

    def test_dead_entries_are_compacted_away(self):
        """10^4 ops of installs, capacity evictions, hits and expiries: the
        heap stays within the eviction heap's ``max(64, 4 x occupancy)``
        bound and the manager keeps agreeing with the scan."""
        rng = random.Random(22)
        indexed, oracle = self.pair()
        clock = 0.0
        for _ in range(10_000):
            clock += rng.choice([0.0, 0.01, 0.05])
            roll = rng.random()
            f1 = rng.randrange(200)
            hard = rng.choice([None, 80.0])
            for m in (indexed, oracle):
                if roll < 0.7:
                    rule = cache_rule(f1)
                    # Far-off deadlines: capacity evicts long before due.
                    rule.idle_timeout, rule.hard_timeout = 50.0, hard
                    m.install(rule, now=clock)
                elif roll < 0.9:
                    m.tcam.lookup(Packet.from_fields(L, f1=f1), now=clock)
                else:
                    m.expire(clock)
            assert len(indexed._deadlines) <= max(64, 4 * indexed.occupancy())
        assert fingerprint(indexed) == fingerprint(oracle)
        assert indexed.evicted_capacity > 6000


def test_indexed_survives_external_tcam_mutation():
    """evict_if/clear on the TCAM keep the indexes exact (observer hooks)."""
    m = manager(capacity=4)
    installed = [m.install(cache_rule(i), now=float(i)) for i in range(4)]
    m.tcam.evict_if(lambda rule: rule.match.field("f1").value in (0, 2))
    assert m.occupancy() == 2
    assert m._find_duplicate(cache_rule(0)) is None
    assert m._find_duplicate(cache_rule(1)) is installed[1]
    m.tcam.clear()
    assert m.occupancy() == 0
    assert m.install(cache_rule(0), now=9.0) is not None
    assert m.occupancy() == 1


# ---------------------------------------------------------------------------
# Duplicate installs refresh instead of consuming capacity
# ---------------------------------------------------------------------------

class TestDuplicateRefresh:
    @pytest.mark.parametrize(
        "policy", [EvictionPolicy.LRU, EvictionPolicy.COST], ids=["lru", "cost"]
    )
    def test_refreshes_activity_not_install_time(self, policy):
        m = manager(capacity=1, policy=policy, default_hard_timeout=60.0)
        first = m.install(cache_rule(1), now=0.0)
        again = m.install(cache_rule(1), now=5.0)
        assert again is first
        assert first.last_hit_at == 5.0
        assert first.installed_at == 0.0          # hard-timeout base untouched
        assert first.hard_timeout == 60.0
        assert m.occupancy() == 1                 # no capacity consumed
        assert m.inserted == 1
        assert m.evicted == 0                     # and no one was sacrificed

    def test_cost_duplicate_raises_score(self):
        m = manager(capacity=2, policy=EvictionPolicy.COST)
        rule = m.install(cache_rule(1), now=0.0)
        before = m._entries[id(rule)].score
        m.install(cache_rule(1), now=0.5)
        assert m._entries[id(rule)].score > before


# ---------------------------------------------------------------------------
# COST policy behaviour
# ---------------------------------------------------------------------------

class TestCostPolicy:
    def test_evicts_the_cold_entry(self):
        m = manager(capacity=2, policy=EvictionPolicy.COST, cost_tau=10.0)
        hot = m.install(cache_rule(1), now=0.0)
        m.install(cache_rule(2), now=0.0)
        for t in range(1, 6):
            m.tcam.lookup(Packet.from_fields(L, f1=1), now=float(t))
        m.install(cache_rule(3), now=6.0)
        remaining = {r.match.field("f1").value for r in m.cache_rules()}
        assert 1 in remaining and 2 not in remaining

    def test_expensive_refetch_outweighs_recency(self):
        """A pricier-to-refetch entry survives a same-rate cheap one."""
        m = manager(capacity=2, policy=EvictionPolicy.COST, cost_tau=10.0)
        m.install(cache_rule(1, penalty=1e-3), now=0.0)   # cheap re-fetch
        m.install(cache_rule(2, penalty=5e-2), now=0.0)   # 50x pricier
        m.install(cache_rule(3), now=1.0)
        remaining = {r.match.field("f1").value for r in m.cache_rules()}
        assert 2 in remaining and 1 not in remaining

    def test_clock_inflation_ages_residents(self):
        """GreedyDual: entries installed after an eviction outrank dead-cold
        residents installed before it, even at equal hit rates."""
        m = manager(capacity=1, policy=EvictionPolicy.COST)
        m.install(cache_rule(1), now=0.0)
        m.install(cache_rule(2), now=1.0)   # evicts 1, raises the clock
        assert m._cost_clock > 0.0
        entry = m._entries[id(m.cache_rules()[0])]
        assert entry.score > m._cost_clock or entry.score == pytest.approx(
            m._cost_clock + m._value(entry)
        )

    def test_penalty_ewma_tracks_stamps(self):
        m = manager(capacity=4, policy=EvictionPolicy.COST)
        m.install(cache_rule(1, penalty=0.01), now=0.0)
        assert m.refetch_penalty_ewma == pytest.approx(0.01)
        m.install(cache_rule(2, penalty=0.05), now=1.0)
        assert 0.01 < m.refetch_penalty_ewma < 0.05


# ---------------------------------------------------------------------------
# Eviction-counter split + set_capacity
# ---------------------------------------------------------------------------

class TestCounterSplit:
    def test_split_and_aggregate(self):
        origin = Rule(Match.any(L), 9, Forward("o"))
        m = manager(capacity=2, default_idle_timeout=1.0)
        m.install(cache_rule(1), now=0.0)
        m.install(cache_rule(2), now=0.0)
        m.install(cache_rule(3), now=0.1)      # capacity eviction
        m.expire(now=50.0)                     # everything idles out
        m.install(cache_rule(4, origin=origin), now=50.0)
        m.invalidate_origin(origin)            # policy-change invalidation
        m.install(cache_rule(5), now=51.0)
        m.flush()                              # flush counts as invalidation
        assert m.evicted_capacity == 1
        assert m.expired == 2
        assert m.invalidated == 2
        assert m.evicted == 5                  # golden-compatible aggregate
        assert m.eviction_breakdown() == {
            "evicted": 1, "expired": 2, "invalidated": 2,
        }

    def test_set_capacity_shrink_evicts_per_policy(self):
        m = manager(capacity=4, policy=EvictionPolicy.LRU)
        rules = [m.install(cache_rule(i), now=float(i)) for i in range(4)]
        evicted = m.set_capacity(2, now=10.0)
        assert [r.match.field("f1").value for r in evicted] == [0, 1]
        assert m.occupancy() == 2
        assert m.capacity == 2
        assert m.evicted_capacity == 2
        assert m.install(cache_rule(9), now=11.0) is not None  # still bounded
        assert m.occupancy() == 2

    def test_set_capacity_grow_is_free(self):
        m = manager(capacity=1)
        m.install(cache_rule(1), now=0.0)
        assert m.set_capacity(8) == []
        assert m.occupancy() == 1
        assert m.evicted == 0

    def test_set_capacity_rejects_negative(self):
        with pytest.raises(ValueError):
            manager().set_capacity(-1)


# ---------------------------------------------------------------------------
# Stable-id invalidation across serialization boundaries
# ---------------------------------------------------------------------------

class TestStableIdInvalidation:
    def test_pickled_policy_rule_still_invalidates(self):
        """A policy rule that crossed a pickle boundary (shard migration,
        control-channel serialization) is a different object with the same
        rule_id — invalidation must still find its cache offspring."""
        origin = Rule(Match.build(L, f1="0000xxxx"), 9, Forward("o"))
        other = Rule(Match.build(L, f2="0000xxxx"), 8, Forward("p"))
        m = manager(capacity=4)
        m.install(cache_rule(1, origin=origin), now=0.0)
        m.install(cache_rule(2, origin=origin), now=0.0)
        m.install(cache_rule(3, origin=other), now=0.0)
        copy = pickle.loads(pickle.dumps(origin))
        assert copy is not origin
        flushed = m.invalidate_origin(copy)
        assert len(flushed) == 2
        assert m.occupancy() == 1
        assert m.invalidated == 2

    def test_same_id_different_rule_does_not_invalidate(self):
        """The fallback is guarded: matching rule_id alone is not enough."""
        origin = Rule(Match.build(L, f1="0000xxxx"), 9, Forward("o"))
        impostor = pickle.loads(pickle.dumps(origin))
        impostor.priority = 1                   # same id, different rule
        m = manager(capacity=4)
        m.install(cache_rule(1, origin=origin), now=0.0)
        assert m.invalidate_origin(impostor) == []
        assert m.occupancy() == 1


# ---------------------------------------------------------------------------
# Dependency-aware install batching (authority side)
# ---------------------------------------------------------------------------

def _chain_policy():
    def rule(priority, action, **fields):
        return Rule(Match.build(L, **fields), priority, action)

    return [
        rule(30, Drop(), f1="0000xxxx", f2="0000xxxx"),
        rule(20, Forward("a"), f1="0000xxxx"),
        rule(10, Forward("b"), f2="0000xxxx"),
        rule(0, Forward("c")),
    ]


class TestInstallBatching:
    def _network(self, prefetch):
        from repro.core import DifaneNetwork
        from repro.net import TopologyBuilder

        topo = TopologyBuilder.linear(2, hosts_per_switch=1)
        return DifaneNetwork.build(
            topo, _chain_policy(), L,
            authority_switches=["s1"], cache_capacity=64,
            redirect_rate=None, prefetch_fragments=prefetch,
        )

    def test_sibling_fragments_travel_in_one_message(self):
        dn = self._network(prefetch=4)
        authority = dn.switch("s1")
        ingress = dn.switch("s0")
        bits = L.pack_values(f1=200, f2=200)   # won by the default rule
        winner = authority.pipeline.authority.table.lookup_bits(bits)
        assert winner is not None
        fragments = authority._cache_rules_for(winner, bits)
        assert len(fragments) > 1              # the default rule shatters
        authority._install_at("s0", winner, bits, Packet(L, bits))
        dn.run()
        # One flow miss, k sibling fragments: k installs counted on both
        # ends, but only ONE batched message crossed the network.
        k = len(fragments)
        assert authority.cache_installs_sent == k
        assert authority.cache_install_batches_sent == 1
        assert ingress.cache_installs_received == k
        assert ingress.cache.occupancy() == k
        # Every fragment carries the measured re-fetch penalty stamp.
        for rule in ingress.cache.cache_rules():
            assert rule.refetch_penalty_s is not None
            assert rule.refetch_penalty_s > 0.0

    def test_single_fragment_keeps_legacy_message(self):
        dn = self._network(prefetch=1)
        authority = dn.switch("s1")
        bits = L.pack_values(f1=200, f2=200)
        winner = authority.pipeline.authority.table.lookup_bits(bits)
        authority._install_at("s0", winner, bits, Packet(L, bits))
        dn.run()
        assert authority.cache_installs_sent == 1
        assert authority.cache_install_batches_sent == 0
        assert dn.switch("s0").cache.occupancy() == 1


# ---------------------------------------------------------------------------
# Controller budget partitioning
# ---------------------------------------------------------------------------

class TestBudgetPartitioning:
    def _network(self):
        from repro.core import DifaneNetwork
        from repro.net import TopologyBuilder
        from repro.flowspace import FIVE_TUPLE_LAYOUT
        from repro.workloads.policies import routing_policy_for_topology

        topo = TopologyBuilder.linear(4, hosts_per_switch=1)
        rules, _ = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
        return DifaneNetwork.build(
            topo, rules, FIVE_TUPLE_LAYOUT,
            authority_switches=["s1", "s2"], cache_capacity=8,
            redirect_rate=None,
        )

    def test_budgets_follow_load_with_floor(self):
        dn = self._network()
        dn.switch("s0").cache_hits = 90
        dn.switch("s1").cache_hits = 10
        budgets = dn.controller.partition_cache_budgets(total_budget=32)
        assert sum(budgets.values()) == 32
        assert set(budgets) == {"s0", "s1", "s2", "s3"}
        assert all(b >= 1 for b in budgets.values())     # per-switch floor
        assert budgets["s0"] > budgets["s1"] > budgets["s3"]
        # Applied, not just computed:
        for name, budget in budgets.items():
            assert dn.switch(name).cache.capacity == budget
        assert dn.controller.cache_budget_updates == 1

    def test_deterministic_and_conserving(self):
        dn = self._network()
        dn.switch("s0").cache_hits = 7
        dn.switch("s2").redirects_out = 7                # tie with s0
        first = dn.controller.partition_cache_budgets(total_budget=9)
        second = dn.controller.partition_cache_budgets(total_budget=9)
        assert first == second                           # name-ordered ties
        assert sum(first.values()) == 9

    def test_default_budget_is_a_reshuffle(self):
        dn = self._network()
        before = sum(dn.switch(n).cache.capacity
                     for n in dn.network.topology.switches())
        budgets = dn.controller.partition_cache_budgets()
        assert sum(budgets.values()) == before

    def test_shrinking_switch_evicts_down(self):
        dn = self._network()
        victim = dn.switch("s3")
        for i in range(8):
            victim.cache.install(
                Rule(Match.build(victim.layout, nw_proto=i), 5, Forward("x"),
                     kind=RuleKind.CACHE),
                now=0.0,
            )
        dn.switch("s0").cache_hits = 100
        budgets = dn.controller.partition_cache_budgets(total_budget=12)
        assert budgets["s3"] < 8
        assert victim.cache.occupancy() == budgets["s3"]
        assert victim.cache.evicted_capacity == 8 - budgets["s3"]


# ---------------------------------------------------------------------------
# Telemetry exposure (COST-gated probe keys)
# ---------------------------------------------------------------------------

class TestTelemetryExposure:
    def _switch(self, policy):
        from repro.core.authority import DifaneSwitch

        return DifaneSwitch("s", L, cache_capacity=4, eviction=policy)

    def test_cost_probe_exports_churn_split(self):
        switch = self._switch(EvictionPolicy.COST)
        samples = switch._telemetry_probe()
        assert "difane_cache_expirations{switch=s}" in samples
        assert "difane_cache_invalidations{switch=s}" in samples
        assert "difane_cache_refetch_penalty_s{switch=s}" in samples

    def test_default_probe_unchanged(self):
        """Golden safety: LRU runs export exactly the legacy probe keys."""
        switch = self._switch(EvictionPolicy.LRU)
        assert sorted(switch._telemetry_probe()) == [
            "difane_cache_evictions{switch=s}",
            "difane_cache_occupancy{switch=s}",
        ]


# ---------------------------------------------------------------------------
# E8 ablation smoke: the headline claim
# ---------------------------------------------------------------------------

class TestCachingAblation:
    def test_cost_beats_lru_under_flash_crowd(self):
        from repro.experiments.cachingablation import run_caching_ablation

        result = run_caching_ablation(
            workloads=["flash-crowd"], policies=["lru", "cost"],
            capacities=(16,),
        )
        delta = result.notes["cost_minus_lru_miss_rate"]["flash-crowd"]["16"]
        assert delta > 0, f"COST did not beat LRU: delta={delta}"
        labels = {series.label for series in result.series}
        assert labels == {"flash-crowd/lru", "flash-crowd/cost"}

    def test_unknown_names_rejected(self):
        from repro.experiments.cachingablation import run_caching_ablation

        with pytest.raises(ValueError):
            run_caching_ablation(workloads=["nope"])
        with pytest.raises(ValueError):
            run_caching_ablation(policies=["mru"])
