"""Tuple-space search inside LinearEngine: the probe path equals the scan.

``LinearEngine`` keeps its rules grouped by mask shape (one hash per
group, keyed by the masked header bits).  These tests build the index
and drive the probe directly — ``_probe_bits`` — whatever the table's
probe/scan binding, and compare it with ``RuleTable`` / the scan.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import (
    Forward,
    LinearEngine,
    Match,
    Packet,
    Rule,
    RuleTable,
    Ternary,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.workloads.classbench import generate_classbench

L = TWO_FIELD_LAYOUT


def rule(priority, t):
    return Rule(Match(L, t), priority, Forward("x"))


def indexed(layout, rules=()):
    """An engine whose mask index exists whatever its probe/scan binding."""
    engine = LinearEngine(layout, rules)
    engine._ensure_index()
    return engine


class TestBasics:
    def test_empty(self):
        engine = indexed(L)
        assert engine._probe_bits(0) is None
        assert len(engine) == 0
        assert not engine._groups

    def test_single_rule(self):
        r = rule(5, Ternary.from_string("0000xxxx" + "x" * 8))
        engine = indexed(L, [r])
        assert engine._probe_bits(0x01FF) is r
        assert engine._probe_bits(0xF000) is None
        assert len(engine._groups) == 1

    def test_groups_by_mask(self):
        a = rule(1, Ternary.from_string("0000xxxx" + "x" * 8))
        b = rule(2, Ternary.from_string("1111xxxx" + "x" * 8))
        c = rule(3, Ternary.from_string("x" * 8 + "0000xxxx"))
        engine = indexed(L, [a, b, c])
        assert len(engine._groups) == 2
        assert len(engine._groups[a.match.ternary.mask]) == 2  # two buckets
        assert len(engine) == 3

    def test_priority_respected_across_groups(self):
        low = rule(1, Ternary.wildcard(16))
        high = rule(9, Ternary.from_string("0000xxxx" + "x" * 8))
        engine = indexed(L, [low, high])
        assert engine._probe_bits(0x0100) is high
        assert engine._probe_bits(0xFF00) is low

    def test_tie_break_insertion_order(self):
        first = rule(5, Ternary.wildcard(16))
        second = rule(5, Ternary.from_string("x" * 16))
        engine = indexed(L, [first, second])
        assert engine._probe_bits(0) is first

    def test_tie_break_across_groups(self):
        first = rule(5, Ternary.from_string("0xxxxxxx" + "x" * 8))
        second = rule(5, Ternary.from_string("x" * 8 + "0xxxxxxx"))
        engine = indexed(L, [first, second])
        # A point matching both must go to the earlier-inserted rule.
        assert engine._probe_bits(0) is first

    def test_remove(self):
        a = rule(5, Ternary.wildcard(16))
        b = rule(3, Ternary.wildcard(16))
        engine = indexed(L, [a, b])
        assert engine.remove(a)
        assert engine._probe_bits(0) is b
        assert not engine.remove(a)
        assert len(engine) == 1
        assert engine.remove(b)
        assert not engine._groups  # empty buckets and groups are dropped

    def test_layout_checked(self):
        foreign = Rule(Match.any(FIVE_TUPLE_LAYOUT), 1, Forward("x"))
        with pytest.raises(ValueError):
            indexed(L, [foreign])

    def test_lookup_packet(self):
        r = rule(1, Ternary.wildcard(16))
        table = RuleTable(L, [r])
        assert table.lookup(Packet.from_fields(L, f1=1)) is r


class TestEquivalenceOnClassBench:
    def test_matches_rule_table_everywhere(self):
        rules = generate_classbench("acl", count=300, seed=77, layout=FIVE_TUPLE_LAYOUT)
        linear = RuleTable(FIVE_TUPLE_LAYOUT, rules)
        engine = indexed(FIVE_TUPLE_LAYOUT, rules)
        rng = random.Random(0)
        probes = [rng.getrandbits(FIVE_TUPLE_LAYOUT.width) for _ in range(300)]
        probes += [r.match.ternary.sample(rng) for r in rules[:100]]
        for bits in probes:
            assert engine._probe_bits(bits) is linear.lookup_bits(bits)

    def test_bulk_construction_equals_incremental(self):
        """Constructor-time and one-at-a-time adds build the same index:
        same ordered bucket contents (priority then insertion tie-break)
        and the same winners everywhere."""
        rules = generate_classbench("fw", count=250, seed=13, layout=FIVE_TUPLE_LAYOUT)
        bulk = indexed(FIVE_TUPLE_LAYOUT, rules)
        incremental = indexed(FIVE_TUPLE_LAYOUT)
        for r in rules:
            incremental.add(r)
        assert len(bulk) == len(incremental) == len(rules)
        assert bulk._groups.keys() == incremental._groups.keys()
        for mask, buckets in bulk._groups.items():
            other = incremental._groups[mask]
            assert {k: [(key, id(r)) for key, r in b] for k, b in buckets.items()} \
                == {k: [(key, id(r)) for key, r in b] for k, b in other.items()}
        rng = random.Random(3)
        probes = [rng.getrandbits(FIVE_TUPLE_LAYOUT.width) for _ in range(200)]
        probes += [r.match.ternary.sample(rng) for r in rules[:100]]
        for bits in probes:
            assert bulk._probe_bits(bits) is incremental._probe_bits(bits)

    def test_tuple_count_small_on_operator_policies(self):
        """Operator-style policies reuse a handful of mask shapes — the
        regime the probe wins in (synthetic ClassBench draws prefix lengths
        independently, so its mask count is higher and it scans)."""
        from repro.workloads.policies import vpn_policy
        rules = vpn_policy(customers=40, sites_per_customer=4,
                           layout=FIVE_TUPLE_LAYOUT)
        engine = indexed(FIVE_TUPLE_LAYOUT, rules)
        assert len(engine._groups) <= 3  # /24-pair rules + the default
        assert len(engine) == len(rules)
        assert engine.lookup_bits == engine._probe_bits


ternaries16 = st.builds(
    lambda v, m: Ternary(v & m, m, 16),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)


@settings(max_examples=120, deadline=None)
@given(
    specs=st.lists(
        st.tuples(ternaries16, st.integers(min_value=0, max_value=7)),
        min_size=0,
        max_size=14,
    ),
    probes=st.lists(st.integers(min_value=0, max_value=0xFFFF),
                    min_size=1, max_size=10),
    removals=st.lists(st.integers(min_value=0, max_value=13), max_size=4),
)
def test_prop_equivalent_to_rule_table(specs, probes, removals):
    """Probe lookup (including after removals) matches RuleTable exactly."""
    rules = [rule(prio, t) for t, prio in specs]
    linear = RuleTable(L, rules)
    engine = indexed(L, rules)
    for index in removals:
        if index < len(rules):
            victim = rules[index]
            assert linear.remove(victim) == engine.remove(victim)
    for bits in probes:
        assert engine._probe_bits(bits) is linear.lookup_bits(bits)
