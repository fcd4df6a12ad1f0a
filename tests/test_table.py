"""Unit and property tests for RuleTable."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import (
    Drop,
    Forward,
    Match,
    Packet,
    Rule,
    RuleTable,
    Ternary,
    TWO_FIELD_LAYOUT,
)

L = TWO_FIELD_LAYOUT


def rule(priority, action=None, **fields):
    return Rule(Match.build(L, **fields), priority, action or Forward("out"))


class TestOrdering:
    def test_priority_order(self):
        low = rule(1, Forward("low"))
        high = rule(9, Forward("high"))
        table = RuleTable(L, [low, high])
        assert list(table.rules) == [high, low]

    def test_tie_break_is_insertion_order(self):
        first = rule(5, Forward("first"))
        second = rule(5, Forward("second"))
        table = RuleTable(L, [first, second])
        assert list(table.rules) == [first, second]

    def test_incremental_add_keeps_order(self):
        table = RuleTable(L)
        r5, r7, r3 = rule(5), rule(7), rule(3)
        for r in (r5, r7, r3):
            table.add(r)
        assert [r.priority for r in table.rules] == [7, 5, 3]

    def test_layout_mismatch_rejected(self):
        from repro.flowspace import FIVE_TUPLE_LAYOUT
        table = RuleTable(L)
        foreign = Rule(Match.any(FIVE_TUPLE_LAYOUT), 1, Drop())
        with pytest.raises(ValueError):
            table.add(foreign)


class TestLookup:
    def test_highest_priority_wins(self, overlapping_table):
        p = Packet.from_fields(L, f1=1, f2=1)  # in the deny's region
        winner = overlapping_table.lookup(p)
        assert winner.priority == 30

    def test_mid_rules(self, overlapping_table):
        assert overlapping_table.lookup(
            Packet.from_fields(L, f1=1, f2=200)
        ).priority == 20
        assert overlapping_table.lookup(
            Packet.from_fields(L, f1=200, f2=1)
        ).priority == 10

    def test_default(self, overlapping_table):
        assert overlapping_table.lookup(
            Packet.from_fields(L, f1=200, f2=200)
        ).priority == 0

    def test_empty_table_returns_none(self):
        assert RuleTable(L).lookup(Packet.from_fields(L)) is None

    def test_classify_updates_counters(self, overlapping_table):
        p = Packet.from_fields(L, f1=1, f2=1)
        winner = overlapping_table.classify(p)
        assert winner.packet_count == 1


class TestMutation:
    def test_remove_by_identity(self):
        a, b = rule(5), rule(5)
        table = RuleTable(L, [a, b])
        assert table.remove(a)
        assert list(table.rules) == [b]
        assert not table.remove(a)

    def test_remove_if(self):
        rules = [rule(p) for p in range(6)]
        table = RuleTable(L, rules)
        removed = table.remove_if(lambda r: r.priority % 2 == 0)
        assert len(removed) == 3
        assert all(r.priority % 2 == 1 for r in table)

    def test_clear(self):
        table = RuleTable(L, [rule(1), rule(2)])
        table.clear()
        assert len(table) == 0

    def test_contains_identity(self):
        a = rule(1)
        table = RuleTable(L, [a])
        assert a in table
        assert rule(1) not in table


# ---------------------------------------------------------------------------
# Property: table lookup == naive max-priority scan
# ---------------------------------------------------------------------------

small_ternaries = st.builds(
    lambda v, m: Ternary(v & m, m, 16),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)


@settings(max_examples=100)
@given(
    specs=st.lists(
        st.tuples(small_ternaries, st.integers(min_value=0, max_value=7)),
        min_size=1,
        max_size=12,
    ),
    point=st.integers(min_value=0, max_value=0xFFFF),
)
def test_prop_lookup_matches_naive_scan(specs, point):
    rules = [Rule(Match(L, t), prio, Forward(f"p{i}")) for i, (t, prio) in enumerate(specs)]
    table = RuleTable(L, rules)
    winner = table.lookup_bits(point)
    matching = [r for r in rules if r.match.matches_bits(point)]
    if not matching:
        assert winner is None
    else:
        best = max(matching, key=lambda r: r.priority)
        # Among equal priorities, first inserted wins.
        assert winner.priority == best.priority
        firsts = [r for r in matching if r.priority == best.priority]
        assert winner is firsts[0]
