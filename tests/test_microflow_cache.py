"""Tests for the trace-driven cache simulators."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import ReplayTrace, simulate_microflow_cache, simulate_wildcard_cache
from repro.baselines.microflow_cache import CacheSimResult
from repro.core.cachegen import win_fragment
from repro.flowspace import (
    Drop, Forward, Match, Rule, RuleTable, Ternary, TWO_FIELD_LAYOUT,
)
from repro.workloads.classbench import generate_classbench
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT

L = TWO_FIELD_LAYOUT


def tiny_policy():
    return [
        Rule(Match.build(L, f1="0000xxxx"), 20, Forward("a")),
        Rule(Match.build(L, f2="0000xxxx"), 10, Forward("b")),
        Rule(Match.any(L), 0, Drop()),
    ]


class TestMicroflowCache:
    def test_repeat_flow_hits(self):
        policy = tiny_policy()
        sequence = [0x0101, 0x0101, 0x0101]
        result = simulate_microflow_cache(ReplayTrace(policy, L, sequence), cache_size=4)
        assert result.misses == 1
        assert result.hits == 2

    def test_distinct_flows_each_miss(self):
        policy = tiny_policy()
        sequence = [0x0101, 0x0202, 0x0303]
        result = simulate_microflow_cache(ReplayTrace(policy, L, sequence), cache_size=4)
        assert result.misses == 3
        assert result.hits == 0

    def test_lru_eviction(self):
        policy = tiny_policy()
        sequence = [0x0101, 0x0202, 0x0303, 0x0101]  # cache of 2: 0x0101 evicted
        result = simulate_microflow_cache(ReplayTrace(policy, L, sequence), cache_size=2)
        assert result.misses == 4
        assert result.evictions == 2

    def test_zero_cache(self):
        policy = tiny_policy()
        result = simulate_microflow_cache(ReplayTrace(policy, L, [0x0101] * 5), cache_size=0)
        assert result.misses == 5
        assert result.miss_rate == 1.0

    def test_unmatched_counted_separately(self):
        policy = tiny_policy()[:2]  # no default rule
        result = simulate_microflow_cache(ReplayTrace(policy, L, [0xFFFF]), cache_size=4)
        assert result.unmatched == 1
        assert result.misses == 0


class TestWildcardCache:
    def test_single_fragment_covers_flow_family(self):
        policy = tiny_policy()
        # All these hit rule a (f1=0000xxxx, f2 outside 0000xxxx).
        sequence = [0x01FF, 0x02FF, 0x03FF, 0x04FF]
        result = simulate_wildcard_cache(ReplayTrace(policy, L, sequence), cache_size=4)
        # One miss builds the fragment; the siblings all hit it.
        assert result.misses <= 2
        assert result.hits >= 2

    def test_beats_microflow_on_same_trace(self):
        policy = generate_classbench("acl", count=100, seed=9, layout=FIVE_TUPLE_LAYOUT)
        from repro.workloads.traffic import flow_headers_for_policy, packet_sequence
        flows = flow_headers_for_policy(policy, 200, seed=1)
        sequence = packet_sequence(flows, 2000, alpha=1.0, seed=2)
        trace = ReplayTrace(policy, FIVE_TUPLE_LAYOUT, sequence)
        wildcard = simulate_wildcard_cache(trace, 20)
        microflow = simulate_microflow_cache(trace, 20)
        assert wildcard.miss_rate < microflow.miss_rate

    def test_respects_dependency_chains(self):
        """Caching rule a's fragment must not capture rule-overlap traffic."""
        policy = tiny_policy()
        overlap_point = 0x0101  # f1 and f2 both small: rule a wins (prio 20)
        a_only = 0x01FF
        b_only = 0xFF01
        result = simulate_wildcard_cache(
            ReplayTrace(policy, L, [a_only, b_only, overlap_point]), cache_size=8
        )
        # All three classified; semantics checked implicitly by construction.
        assert result.packets == 3
        assert result.misses + result.hits == 3

    def test_zero_cache(self):
        policy = tiny_policy()
        result = simulate_wildcard_cache(ReplayTrace(policy, L, [0x01FF] * 5), cache_size=0)
        assert result.miss_rate == 1.0

    def test_miss_rate_monotone_in_cache_size(self):
        policy = generate_classbench("acl", count=100, seed=10, layout=FIVE_TUPLE_LAYOUT)
        from repro.workloads.traffic import flow_headers_for_policy, packet_sequence
        flows = flow_headers_for_policy(policy, 150, seed=3)
        sequence = packet_sequence(flows, 1500, alpha=1.0, seed=4)
        trace = ReplayTrace(policy, FIVE_TUPLE_LAYOUT, sequence)
        rates = [simulate_wildcard_cache(trace, size).miss_rate for size in (5, 20, 80)]
        assert rates[0] >= rates[1] >= rates[2]

    def test_result_rates_sum(self):
        policy = tiny_policy()
        result = simulate_wildcard_cache(ReplayTrace(policy, L, [0x01FF, 0x01FE]), cache_size=4)
        assert result.hit_rate + result.miss_rate == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Oracles: the scan-based replays the resolved trace replaced
# ---------------------------------------------------------------------------

def scan_microflow_cache(policy, layout, header_sequence, cache_size):
    """``simulate_microflow_cache`` as it was first written: every header
    probes an LRU of exact headers and every miss looks the policy up."""
    table = RuleTable(layout, policy)
    cache = OrderedDict()
    hits = misses = installs = evictions = unmatched = packets = 0
    for bits in header_sequence:
        packets += 1
        if bits in cache:
            hits += 1
            cache.move_to_end(bits)
            continue
        if table.lookup_bits(bits) is None:
            unmatched += 1
            continue
        misses += 1
        if cache_size > 0:
            cache[bits] = True
            installs += 1
            if len(cache) > cache_size:
                cache.popitem(last=False)
                evictions += 1
    return CacheSimResult(cache_size, packets, hits, misses, installs, evictions, unmatched)


def scan_wildcard_cache(policy, layout, header_sequence, cache_size, eviction="lru"):
    """``simulate_wildcard_cache`` as it was: every header scans the cache
    MRU -> LRU, every miss looks the policy up and scans every fragment
    generated so far.  Relies on nothing but fragments being disjoint."""
    table = RuleTable(layout, policy)
    ordered_rules = list(table.rules)
    cost = eviction == "cost"
    fragment_memo = {}
    cache = OrderedDict()
    freq, score, clock = {}, {}, 0.0

    def rescore(fragment):
        bonus = 1.0
        if fragment.width:
            bonus += fragment.wildcard_bits() / fragment.width
        score[fragment] = clock + freq[fragment] * bonus

    hits = misses = installs = evictions = unmatched = packets = 0
    for bits in header_sequence:
        packets += 1
        found = None
        for fragment in reversed(cache):
            if fragment.matches(bits):
                found = fragment
                break
        if found is not None:
            hits += 1
            cache.move_to_end(found)
            if cost:
                freq[found] += 1
                rescore(found)
            continue
        winner = table.lookup_bits(bits)
        if winner is None:
            unmatched += 1
            continue
        misses += 1
        if cache_size <= 0:
            continue
        fragment = None
        for memoized in fragment_memo.values():
            if memoized.matches(bits):
                fragment = memoized
                break
        if fragment is None:
            fragment = win_fragment(ordered_rules, winner, bits)
            if fragment is None:
                continue
            fragment_memo[fragment] = fragment
        cache[fragment] = True
        installs += 1
        if cost:
            freq[fragment] = 1
            rescore(fragment)
        if len(cache) > cache_size:
            if cost:
                victim = min(cache, key=score.get)
                clock = score[victim]
                del cache[victim], freq[victim], score[victim]
            else:
                cache.popitem(last=False)
            evictions += 1
    return CacheSimResult(cache_size, packets, hits, misses, installs, evictions, unmatched)


#: Coarse ternaries (a few cared bits per field, high or low) so random
#: rules overlap yet nearby headers land in different fragments.
_coarse = st.builds(
    lambda v, m: Ternary(v & m, m, L.width),
    st.integers(min_value=0, max_value=0xFFFF),
    st.sampled_from(
        [0x0000, 0xC000, 0x00C0, 0xC0C0, 0x0303, 0x0103, 0x0301, 0x000F, 0x0F00]
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    # Priorities 0-3 over up to 10 rules: equal priorities are the norm.
    specs=st.lists(st.tuples(_coarse, st.integers(0, 3)), min_size=1, max_size=10),
    default_rule=st.booleans(),
    flows=st.lists(st.integers(0, 0xFFFF), min_size=4, max_size=12, unique=True),
    picks=st.lists(st.integers(0, 11), min_size=20, max_size=200),
    cache_sizes=st.lists(st.sampled_from([0, 1, 2, 3, 8, 16]), min_size=1, max_size=4),
)
def test_prop_replay_equals_scan_oracle(specs, default_rule, flows, picks, cache_sizes):
    """One resolved trace, replayed at every size under every policy ==
    a fresh scan-everything replay each time, field for field."""
    policy = [
        Rule(Match(L, ternary), priority, Forward(f"p{i}"))
        for i, (ternary, priority) in enumerate(specs)
    ]
    if default_rule:
        policy.append(Rule(Match.any(L), 0, Drop()))
    # Few flows, many packets: headers repeat, so hits, re-installs after
    # eviction, stale heap entries, heap rebuilds and repeated unmatched
    # headers all occur.
    sequence = [flows[pick % len(flows)] for pick in picks]
    trace = ReplayTrace(policy, L, sequence)
    for cache_size in cache_sizes:
        for eviction in ("lru", "cost"):
            expected = scan_wildcard_cache(policy, L, sequence, cache_size, eviction)
            assert simulate_wildcard_cache(trace, cache_size, eviction) == expected
        assert simulate_microflow_cache(trace, cache_size) == scan_microflow_cache(
            policy, L, sequence, cache_size
        )


def test_cost_tie_evicts_least_recently_used():
    """Equal scores go to the least-recently-used entry, not the first
    inserted: ``min`` over an LRU-ordered cache, replayed by the heap."""
    # Four disjoint fragments with the same coverage bonus (1.5).
    policy = [
        Rule(Match.build(L, f1=format(tag, "08b")), 1, Forward(f"p{tag}"))
        for tag in (1, 2, 3, 4)
    ]
    a, b, c, d = 0x0100, 0x0200, 0x0300, 0x0400
    # A and B reach score 3.0, B hit first; C (1.5) evicts itself and
    # lifts the clock to 1.5, so D enters at 3.0: A, B and D tie and B,
    # the least recently used, goes.  The last A then hits.
    sequence = [a, b, b, a, c, d, a]
    result = simulate_wildcard_cache(ReplayTrace(policy, L, sequence), 2, eviction="cost")
    assert (result.hits, result.misses, result.evictions) == (3, 4, 2)
    assert result == scan_wildcard_cache(policy, L, sequence, 2, eviction="cost")
