"""Unit and property tests for the flow-space partitioner.

The two invariants everything else rests on:

1. **Tiling** — partition regions are pairwise disjoint and cover the full
   header space (every packet has exactly one owning authority switch).
2. **Semantics** — looking a packet up inside its partition's clipped rule
   list gives exactly the same policy verdict as the original table.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import assign_partitions, partition_policy
from repro.core.partition import greedy_pack
from repro.flowspace import (
    Drop,
    Forward,
    Match,
    Rule,
    RuleTable,
    Ternary,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.rule import RuleKind
from repro.workloads.classbench import generate_classbench
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.obs.health import jain_fairness

L = TWO_FIELD_LAYOUT


def rule(priority, action=None, **fields):
    return Rule(Match.build(L, **fields), priority, action or Forward("out"))


def small_policy():
    return [
        rule(30, Drop(), f1="0000xxxx", f2="0000xxxx"),
        rule(20, Forward("a"), f1="0000xxxx"),
        rule(10, Forward("b"), f2="0000xxxx"),
        rule(0, Forward("c")),
    ]


def assert_tiling(result, samples=300, seed=0):
    rng = random.Random(seed)
    width = result.layout.width
    for _ in range(samples):
        bits = rng.getrandbits(width)
        owners = [p for p in result.partitions if p.contains_bits(bits)]
        assert len(owners) == 1


def assert_semantics(result, original_rules, samples=300, seed=1):
    table = RuleTable(result.layout, original_rules)
    rng = random.Random(seed)
    width = result.layout.width
    for _ in range(samples):
        bits = rng.getrandbits(width)
        partition = result.find_partition(bits)
        fragment = next(
            (r for r in partition.rules if r.match.matches_bits(bits)), None
        )
        expected = table.lookup_bits(bits)
        if expected is None:
            assert fragment is None
        else:
            assert fragment is not None
            assert fragment.root_origin() is expected


class TestBasics:
    def test_single_partition_is_identity(self):
        rules = small_policy()
        result = partition_policy(rules, L, num_partitions=1)
        assert len(result.partitions) == 1
        assert result.partitions[0].region.is_wildcard()
        assert result.total_entries == len(rules)
        assert result.duplication_overhead == 0

    def test_requested_partition_count(self):
        for k in (2, 3, 5, 8):
            result = partition_policy(small_policy(), L, num_partitions=k)
            assert len(result.partitions) == k

    def test_tiling_small(self):
        result = partition_policy(small_policy(), L, num_partitions=8)
        assert_tiling(result)

    def test_semantics_small(self):
        rules = small_policy()
        result = partition_policy(rules, L, num_partitions=8)
        assert_semantics(result, rules)

    def test_fragments_are_authority_kind(self):
        result = partition_policy(small_policy(), L, num_partitions=4)
        for partition in result.partitions:
            for fragment in partition.rules:
                assert fragment.kind is RuleKind.AUTHORITY
                assert fragment.origin is not None

    def test_priority_order_preserved_in_partition(self):
        result = partition_policy(small_policy(), L, num_partitions=4)
        for partition in result.partitions:
            priorities = [r.priority for r in partition.rules]
            assert priorities == sorted(priorities, reverse=True)

    def test_empty_policy(self):
        result = partition_policy([], L, num_partitions=4)
        assert len(result.partitions) == 4
        assert result.total_entries == 0
        assert result.duplication_factor == 1.0
        assert_tiling(result)

    def test_max_rules_per_partition(self):
        rules = generate_classbench("acl", count=120, seed=2, layout=FIVE_TUPLE_LAYOUT)
        result = partition_policy(
            rules, FIVE_TUPLE_LAYOUT, max_rules_per_partition=40
        )
        # The wildcard default rule duplicates everywhere, so leaves can
        # never exceed the budget only if splittable; verify best effort.
        for partition in result.partitions:
            assert partition.entry_count <= 40 or not _splittable(partition)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            partition_policy(small_policy(), L)
        with pytest.raises(ValueError):
            partition_policy(small_policy(), L, num_partitions=0)
        with pytest.raises(ValueError):
            partition_policy(small_policy(), L, num_partitions=2, cut_strategy="bogus")

    def test_layout_mismatch_rejected(self):
        foreign = generate_classbench("acl", count=5, layout=FIVE_TUPLE_LAYOUT)
        with pytest.raises(ValueError):
            partition_policy(foreign, L, num_partitions=2)

    def test_deterministic(self):
        rules = generate_classbench("acl", count=100, seed=3, layout=FIVE_TUPLE_LAYOUT)
        a = partition_policy(rules, FIVE_TUPLE_LAYOUT, num_partitions=8)
        b = partition_policy(rules, FIVE_TUPLE_LAYOUT, num_partitions=8)
        assert [p.region for p in a.partitions] == [p.region for p in b.partitions]


def _splittable(partition):
    return any(partition.region.bit(i) == "x" for i in range(partition.region.width))


class TestRealisticPolicies:
    @pytest.mark.parametrize("k", [2, 8, 32])
    def test_classbench_tiling_and_semantics(self, k):
        rules = generate_classbench("acl", count=200, seed=4, layout=FIVE_TUPLE_LAYOUT)
        result = partition_policy(rules, FIVE_TUPLE_LAYOUT, num_partitions=k)
        assert len(result.partitions) == k
        assert_tiling(result, samples=150)
        assert_semantics(result, rules, samples=150)

    def test_duplication_grows_with_k(self):
        rules = generate_classbench("fw", count=200, seed=5, layout=FIVE_TUPLE_LAYOUT)
        totals = [
            partition_policy(rules, FIVE_TUPLE_LAYOUT, num_partitions=k).total_entries
            for k in (1, 4, 16)
        ]
        assert totals[0] <= totals[1] <= totals[2]

    def test_split_aware_beats_occupancy(self):
        rules = generate_classbench("acl", count=300, seed=6, layout=FIVE_TUPLE_LAYOUT)
        aware = partition_policy(
            rules, FIVE_TUPLE_LAYOUT, num_partitions=16, cut_strategy="split-aware"
        )
        naive = partition_policy(
            rules, FIVE_TUPLE_LAYOUT, num_partitions=16, cut_strategy="occupancy"
        )
        assert aware.total_entries <= naive.total_entries

    def test_max_partition_shrinks_with_k(self):
        rules = generate_classbench("acl", count=300, seed=7, layout=FIVE_TUPLE_LAYOUT)
        sizes = [
            partition_policy(rules, FIVE_TUPLE_LAYOUT, num_partitions=k).max_partition_entries
            for k in (1, 8, 64)
        ]
        assert sizes[0] > sizes[1] > sizes[2]


class TestAllowedFields:
    def test_cuts_only_in_allowed_field(self):
        rules = generate_classbench("acl", count=150, seed=8, layout=FIVE_TUPLE_LAYOUT)
        result = partition_policy(
            rules, FIVE_TUPLE_LAYOUT, num_partitions=8, allowed_fields=["nw_dst"]
        )
        offset = FIVE_TUPLE_LAYOUT.offset("nw_dst")
        width = FIVE_TUPLE_LAYOUT.field("nw_dst").width
        for partition in result.partitions:
            region = partition.region
            for position in range(region.width):
                if region.bit(position) != "x":
                    assert offset <= position < offset + width

    def test_single_dimension_preserves_semantics(self):
        rules = generate_classbench("acl", count=150, seed=8, layout=FIVE_TUPLE_LAYOUT)
        result = partition_policy(
            rules, FIVE_TUPLE_LAYOUT, num_partitions=8, allowed_fields=["nw_dst"]
        )
        assert_tiling(result, samples=150)
        assert_semantics(result, rules, samples=150)

    def test_unknown_field_rejected(self):
        with pytest.raises(KeyError):
            partition_policy(
                small_policy(), L, num_partitions=2, allowed_fields=["bogus"]
            )

    def test_exhausted_dimension_stops_splitting(self):
        """When the allowed field's bits run out, leaves become final."""
        rules = small_policy()
        result = partition_policy(
            rules, L, num_partitions=1024, allowed_fields=["f1"]
        )
        # f1 has 8 bits: at most 256 leaves are possible.
        assert len(result.partitions) <= 256
        assert_tiling(result, samples=100)


class TestAssignment:
    def make_partitions(self, sizes):
        result = partition_policy(small_policy(), L, num_partitions=len(sizes))
        # Fake the entry counts for balance testing.
        for partition, size in zip(result.partitions, sizes):
            partition.rules = [rule(1) for _ in range(size)]
        return result.partitions

    def test_every_partition_assigned(self):
        partitions = self.make_partitions([5, 3, 2, 1])
        assignment = assign_partitions(partitions, ["a", "b"])
        assert set(assignment) == {p.partition_id for p in partitions}
        assert all(len(owners) == 1 for owners in assignment.values())

    def test_balance(self):
        partitions = self.make_partitions([8, 8, 1, 1])
        assignment = assign_partitions(partitions, ["a", "b"])
        load = {"a": 0, "b": 0}
        for partition in partitions:
            load[assignment[partition.partition_id][0]] += partition.entry_count
        assert abs(load["a"] - load["b"]) <= 2

    def test_replication(self):
        partitions = self.make_partitions([2, 2])
        assignment = assign_partitions(partitions, ["a", "b", "c"], replication=2)
        for owners in assignment.values():
            assert len(owners) == 2
            assert len(set(owners)) == 2

    def test_replication_capped_at_switch_count(self):
        partitions = self.make_partitions([1])
        assignment = assign_partitions(partitions, ["a"], replication=5)
        assert assignment[partitions[0].partition_id] == ["a"]

    def test_no_authorities_rejected(self):
        partitions = self.make_partitions([1])
        with pytest.raises(ValueError):
            assign_partitions(partitions, [])


# The three greedy packers greedy_pack replaced, kept verbatim as oracles:
# their inputs become arguments and each returns what it placed and loaded.

def _assign_partitions_oracle(partitions, authority_switches, replication):
    load = {name: 0 for name in authority_switches}
    assignment = {}
    ordered = sorted(partitions, key=lambda p: (-p.entry_count, p.partition_id))
    for partition in ordered:
        ranked = sorted(load, key=lambda name: (load[name], name))
        chosen = ranked[:replication]
        assignment[partition.partition_id] = chosen
        for name in chosen:
            load[name] += max(partition.entry_count, 1)
    return assignment, load


def _rebalance_oracle(loads, authority_switches):
    order = sorted(loads, key=lambda pid: (-loads[pid], pid))
    switch_load = {name: 0 for name in authority_switches}
    assignment = {}
    for pid in order:
        ranked = sorted(
            authority_switches, key=lambda name: (switch_load[name], name)
        )
        new_primary = ranked[0]
        switch_load[new_primary] += max(loads[pid], 1)
        assignment[pid] = new_primary
    return assignment, switch_load


def _repack_oracle(window_loads, candidates):
    packed = {name: 0.0 for name in candidates}
    assignment = {}
    for pid in sorted(window_loads, key=lambda p: (-window_loads[p], p)):
        best = min(sorted(packed), key=lambda name: packed[name])
        assignment[pid] = best
        packed[best] += max(window_loads[pid], 1.0)
    return assignment, packed


def _same_packing(ours, theirs):
    (assignment, load), (expected, expected_load) = ours, theirs
    assert list(assignment.items()) == list(expected.items())
    assert list(load.items()) == list(expected_load.items())
    fairness = jain_fairness(list(load.values()))
    assert fairness == jain_fairness(list(expected_load.values()))


# Small ranges make ties common; zeros exercise the max(weight, 1) floor.
# The bounds keep every sum exact in a float, as window loads are: past
# 2**53 an int total and a float total would square to different values.
_int_weights = st.integers(min_value=0, max_value=6) | st.integers(0, 10_000)
_float_weights = st.sampled_from([0.0, 0.25, 1.0, 1.5, 3.0]) | st.floats(
    min_value=0, max_value=1e4, allow_nan=False, allow_infinity=False
)


@settings(max_examples=150, deadline=None)
@given(
    weights=st.dictionaries(
        st.integers(0, 60), _int_weights | _float_weights, max_size=40
    ),
    candidates=st.lists(st.sampled_from("edcbagf"), min_size=1, unique=True),
    replication=st.integers(1, 7),
)
def test_prop_greedy_pack_equals_the_packers_it_replaced(weights, candidates, replication):
    replication = min(replication, len(candidates))
    partitions = [
        SimpleNamespace(partition_id=pid, entry_count=weight)
        for pid, weight in weights.items()
    ]
    _same_packing(
        greedy_pack(weights, candidates, replication),
        _assign_partitions_oracle(partitions, candidates, replication),
    )
    assignment, load = greedy_pack(weights, candidates)
    single = ({pid: chosen[0] for pid, chosen in assignment.items()}, load)
    _same_packing(single, _rebalance_oracle(weights, candidates))
    _same_packing(single, _repack_oracle(weights, candidates))


# ---------------------------------------------------------------------------
# Property tests over random small policies
# ---------------------------------------------------------------------------

ternaries16 = st.builds(
    lambda v, m: Ternary(v & m, m, 16),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)


@settings(max_examples=40, deadline=None)
@given(
    specs=st.lists(
        st.tuples(ternaries16, st.integers(min_value=0, max_value=9)),
        min_size=1,
        max_size=10,
    ),
    k=st.integers(min_value=1, max_value=6),
    points=st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=5, max_size=20),
)
def test_prop_partition_preserves_semantics(specs, k, points):
    rules = [
        Rule(Match(L, t), prio, Forward(f"p{i}"))
        for i, (t, prio) in enumerate(specs)
    ]
    result = partition_policy(rules, L, num_partitions=k)
    table = RuleTable(L, rules)
    for bits in points:
        owners = [p for p in result.partitions if p.contains_bits(bits)]
        assert len(owners) == 1
        fragment = next(
            (r for r in owners[0].rules if r.match.matches_bits(bits)), None
        )
        expected = table.lookup_bits(bits)
        if expected is None:
            assert fragment is None
        else:
            assert fragment is not None and fragment.root_origin() is expected
