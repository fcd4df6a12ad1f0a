"""Unit and property tests for independent cache-rule generation.

The central caching invariant (paper §3.2): a generated cache rule may be
installed *alone*, at any priority, without changing any packet's verdict
— because its match is exactly (a subset of) the region where its origin
rule wins.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import generate_cache_rule, generate_cache_rules
from repro.core.cachegen import win_fragment, win_region
from repro.flowspace import (
    Drop,
    Forward,
    Match,
    Rule,
    RuleTable,
    Ternary,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.rule import RuleKind
from repro.workloads.classbench import generate_classbench
from repro.workloads.traffic import flow_headers_for_policy

L = TWO_FIELD_LAYOUT


def rule(priority, action=None, **fields):
    return Rule(Match.build(L, **fields), priority, action or Forward("out"))


def chain_policy():
    return [
        rule(30, Drop(), f1="0000xxxx", f2="0000xxxx"),
        rule(20, Forward("a"), f1="0000xxxx"),
        rule(10, Forward("b"), f2="0000xxxx"),
        rule(0, Forward("c")),
    ]


class TestWinRegion:
    def test_top_rule_wins_everywhere_it_matches(self):
        rules = chain_policy()
        region = win_region(rules, rules[0])
        assert region.covers(rules[0].match.ternary)

    def test_default_rule_excludes_all_overlaps(self):
        rules = chain_policy()
        region = win_region(rules, rules[-1])
        table = RuleTable(L, rules)
        rng = random.Random(0)
        for _ in range(200):
            bits = rng.getrandbits(16)
            assert region.contains_bits(bits) == (table.lookup_bits(bits) is rules[-1])

    def test_shadowed_rule_has_empty_region(self):
        wide = rule(10, Forward("w"), f1="0000xxxx")
        hidden = rule(5, Forward("h"), f1="00001xxx")
        region = win_region([wide, hidden], hidden)
        assert region.is_empty()

    def test_target_not_in_rules_raises(self):
        rules = chain_policy()
        with pytest.raises(ValueError):
            win_region(rules[:-1], rules[-1])


class TestGenerateCacheRule:
    def test_covers_the_packet(self):
        rules = chain_policy()
        table = RuleTable(L, rules)
        bits = L.pack_values(f1=1, f2=200)  # hits the priority-20 rule
        winner = table.lookup_bits(bits)
        cached = generate_cache_rule(rules, winner, bits)
        assert cached is not None
        assert cached.kind is RuleKind.CACHE
        assert cached.match.matches_bits(bits)
        assert cached.root_origin() is winner

    def test_carries_winner_actions(self):
        rules = chain_policy()
        bits = L.pack_values(f1=1, f2=1)  # hits the drop
        cached = generate_cache_rule(rules, rules[0], bits)
        assert cached.actions == rules[0].actions

    def test_never_steals_from_higher_priority(self):
        """The independence invariant, exhaustively on 16-bit headers."""
        rules = chain_policy()
        table = RuleTable(L, rules)
        target = rules[-1]  # the default: longest dependency chain
        bits = L.pack_values(f1=200, f2=200)
        cached = generate_cache_rule(rules, target, bits)
        for point in cached.match.ternary.enumerate():
            assert table.lookup_bits(point) is target

    def test_outside_win_region_returns_none(self):
        rules = chain_policy()
        bits = L.pack_values(f1=1, f2=1)  # actually won by rules[0]
        assert generate_cache_rule(rules, rules[1], bits) is None


def search_win_fragment(rules, target, packet_bits):
    """Oracle: ``win_fragment`` as it was before the closed form — build
    every piece of every subtraction and keep the one holding the packet."""
    if not target.match.matches_bits(packet_bits):
        return None
    region = target.match.ternary
    for rule in rules:
        if rule is target:
            return region
        if rule.match.matches_bits(packet_bits):
            return None
        if region.intersects(rule.match.ternary):
            containing = None
            for piece in region.subtract(rule.match.ternary):
                if piece.matches(packet_bits):
                    containing = piece
                    break
            if containing is None:
                return None
            region = containing
    raise ValueError("target rule is not present in the rule sequence")


class TestWinFragment:
    def test_agrees_with_search_on_classbench_acl(self):
        """Winner and a random non-winner per header, 200-rule ACL."""
        policy = generate_classbench("acl", count=200, seed=7, layout=FIVE_TUPLE_LAYOUT)
        table = RuleTable(FIVE_TUPLE_LAYOUT, policy)
        ordered = table.rules
        rng = random.Random(18)
        clipped = declined = 0
        for bits in flow_headers_for_policy(policy, 300, seed=2):
            winner = table.lookup_bits(bits)
            fragment = win_fragment(ordered, winner, bits)
            assert fragment == search_win_fragment(ordered, winner, bits)
            assert fragment.matches(bits)
            clipped += fragment != winner.match.ternary
            # Both ``None`` branches: a random rule (almost always one the
            # packet is outside of) and every rule it matches but loses.
            beaten = [
                r for r in ordered if r is not winner and r.match.matches_bits(bits)
            ]
            stranger = rng.choice([r for r in ordered if r is not winner])
            for other in beaten + [stranger]:
                assert win_fragment(ordered, other, bits) is None
                assert search_win_fragment(ordered, other, bits) is None
            declined += len(beaten)
        assert clipped > 50 and declined > 50

    def test_unclipped_target_is_returned_itself(self):
        rules = chain_policy()
        bits = L.pack_values(f1=1, f2=1)
        assert win_fragment(rules, rules[0], bits) is rules[0].match.ternary
        # Disjoint higher-priority rules do not clip either.
        low = rule(1, f1="1111xxxx")
        bits = L.pack_values(f1=0xF0, f2=0xF0)
        assert win_fragment(rules[:2] + [low], low, bits) is low.match.ternary

    def test_absent_target_and_width_mismatch_raise(self):
        rules = chain_policy()
        bits = L.pack_values(f1=200, f2=200)
        with pytest.raises(ValueError, match="not present"):
            win_fragment(rules[:-1], rules[-1], bits)
        alien = Rule(Match.build(FIVE_TUPLE_LAYOUT, nw_proto=6), 99, Drop())
        for implementation in (win_fragment, search_win_fragment):
            with pytest.raises(ValueError, match="width mismatch"):
                implementation([alien] + rules, rules[-1], bits)


class TestGenerateCacheRules:
    def test_fragments_cover_win_region_exactly(self):
        rules = chain_policy()
        fragments = generate_cache_rules(rules, rules[-1])
        table = RuleTable(L, rules)
        covered = set()
        for fragment in fragments:
            covered.update(fragment.match.ternary.enumerate())
        expected = {
            bits for bits in range(1 << 16) if table.lookup_bits(bits) is rules[-1]
        }
        assert covered == expected

    def test_fragments_pairwise_disjoint(self):
        rules = chain_policy()
        fragments = generate_cache_rules(rules, rules[-1])
        for i, a in enumerate(fragments):
            for b in fragments[i + 1:]:
                assert not a.match.intersects(b.match)

    def test_packet_fragment_first(self):
        rules = chain_policy()
        bits = L.pack_values(f1=200, f2=200)
        fragments = generate_cache_rules(rules, rules[-1], packet_bits=bits)
        assert fragments[0].match.matches_bits(bits)

    def test_max_fragments_cap(self):
        rules = chain_policy()
        fragments = generate_cache_rules(rules, rules[-1], max_fragments=2)
        assert len(fragments) <= 2


# ---------------------------------------------------------------------------
# Property: caching never changes semantics
# ---------------------------------------------------------------------------

ternaries16 = st.builds(
    lambda v, m: Ternary(v & m, m, 16),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)


@settings(max_examples=50, deadline=None)
@given(
    specs=st.lists(
        st.tuples(ternaries16, st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=8,
    ),
    probe=st.integers(min_value=0, max_value=0xFFFF),
    checks=st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=10, max_size=10),
)
def test_prop_cache_rule_independence(specs, probe, checks):
    """For a random policy and a random miss, the generated cache rule's
    entire match agrees with the policy's verdict for the winner."""
    rules = [
        Rule(Match(L, t), prio, Forward(f"p{i}"))
        for i, (t, prio) in enumerate(specs)
    ]
    table = RuleTable(L, rules)
    ordered = list(table.rules)
    winner = table.lookup_bits(probe)
    if winner is None:
        return
    cached = generate_cache_rule(ordered, winner, probe)
    assert cached is not None
    assert cached.match.matches_bits(probe)
    # Every point of the cached match must be won by the same origin rule.
    for bits in checks:
        if cached.match.matches_bits(bits):
            assert table.lookup_bits(bits) is winner
    # And exhaustively when the fragment is small.
    if cached.match.ternary.size() <= 64:
        for bits in cached.match.ternary.enumerate():
            assert table.lookup_bits(bits) is winner
