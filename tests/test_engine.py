"""Tests for the match engine.

The load-bearing property: :class:`LinearEngine` returns the winner a
pure scan would — highest priority, first-installed-wins on ties — on any
policy and any packet.  Randomized policies (both unstructured hypothesis
rules and ClassBench ACL/FW/IPC classifiers) drive that equivalence
against :class:`ScanModel` here.  ``LinearEngine`` answers from a mask
index or a scan; both, and its indexed win fragment, are checked against
the same model.
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
    Ternary,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.core.cachegen import win_fragment as scan_win_fragment
from repro.flowspace.engine import PROBE_RULES_PER_MASK
from repro.obs import context as obs_context
from repro.workloads.classbench import generate_classbench

L = TWO_FIELD_LAYOUT


def rule(priority, f1="xxxxxxxx", f2="xxxxxxxx"):
    return Rule(Match.build(L, f1=f1, f2=f2), priority, Forward("out"))


class ScanModel:
    """The pure-scan oracle: rules with their insertion sequence, the
    winner being the smallest ``(-priority, sequence)`` that matches."""

    def __init__(self, rules=()):
        self.entries = []
        self.sequence = 0
        for r in rules:
            self.add(r)

    def add(self, r):
        self.entries.append(((-r.priority, self.sequence), r))
        self.sequence += 1

    def remove(self, r):
        before = len(self.entries)
        self.entries = [e for e in self.entries if e[1] is not r]
        return len(self.entries) != before

    def clear(self):
        self.entries = []
        self.sequence = 0

    def ordered(self):
        return [r for _, r in sorted(self.entries, key=lambda e: e[0])]

    def winner(self, bits):
        for r in self.ordered():
            if r.match.ternary.matches(bits):
                return r
        return None


def assert_equivalent(engine, model, probes):
    for bits in probes:
        expected = model.winner(bits)
        got = engine.lookup_bits(bits)
        assert got is expected, (
            f"engine returned {got!r}, model returned {expected!r} "
            f"for bits {bits:#x}"
        )


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------

pattern = st.text(alphabet="01x", min_size=8, max_size=8)


class TestOracleEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(
        specs=st.lists(
            st.tuples(pattern, pattern, st.integers(0, 3)),
            min_size=1,
            max_size=32,
        ),
        probes=st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=24),
    )
    def test_random_policies(self, specs, probes):
        """The engine agrees with the scan, including priority ties.

        Priorities are drawn from {0..3} so most examples contain ties:
        the tie-break (first installed wins) is exercised constantly.
        """
        rules = [rule(priority, f1, f2) for f1, f2, priority in specs]
        engine, model = LinearEngine(L, rules), ScanModel(rules)
        assert_equivalent(engine, model, probes)
        # Removing a slice must not disturb equivalence either.
        for doomed in rules[::3]:
            assert engine.remove(doomed)
            assert model.remove(doomed)
        assert_equivalent(engine, model, probes)

    @pytest.mark.parametrize("kind", ["acl", "fw", "ipc"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_classbench_policies(self, kind, seed):
        layout = FIVE_TUPLE_LAYOUT
        rules = generate_classbench(kind, count=150, seed=seed, layout=layout)
        rng = random.Random(seed)
        probes = [rng.getrandbits(layout.width) for _ in range(100)]
        probes += [r.match.ternary.sample(rng) for r in rules[::5]]
        engine, model = LinearEngine(layout, rules), ScanModel(rules)
        assert_equivalent(engine, model, probes)
        assert engine.rules() == model.ordered()

    def test_priority_tie_first_installed_wins(self):
        first = rule(5, f1="0000xxxx")
        second = rule(5, f1="0000xxxx")
        probe = 0x00FF  # f1=0x00 matches both
        engine = LinearEngine(L, [first, second])
        assert engine.lookup_bits(probe) is first


# ---------------------------------------------------------------------------
# LinearEngine bookkeeping (the remove/clear fix)
# ---------------------------------------------------------------------------

class TestLinearEngineBookkeeping:
    def test_remove_is_by_identity(self):
        engine = LinearEngine(L)
        installed = rule(3, f1="0000xxxx")
        twin = rule(3, f1="0000xxxx")  # equal match, different object
        engine.add(installed)
        assert twin not in engine
        assert not engine.remove(twin)
        assert engine.remove(installed)
        assert len(engine) == 0

    def test_clear_resets_sequence_state(self):
        engine = LinearEngine(L)
        stale = rule(1)
        engine.add(stale)
        engine.clear()
        assert engine._sequence == 0
        assert not engine._order and not engine._by_id
        # A fresh pair after clear() must tie-break as if newly built.
        first, second = rule(2, f1="0000xxxx"), rule(2, f1="0000xxxx")
        engine.add(first)
        engine.add(second)
        assert engine.lookup_bits(0x00FF) is first
        assert stale not in engine

    def test_remove_if_cleans_indices(self):
        engine = LinearEngine(L)
        rules = [rule(i % 2, f1=f"{i:08b}") for i in range(10)]
        for r in rules:
            engine.add(r)
        removed = engine.remove_if(lambda r: r.priority == 0)
        assert len(removed) == 5
        assert len(engine) == 5
        for r in removed:
            assert r not in engine
            engine.add(r)  # re-adding must work cleanly
        assert len(engine) == 10


# ---------------------------------------------------------------------------
# Tuple-space invariant: every rule sits in the bucket of its own mask/value
# ---------------------------------------------------------------------------

def assert_index_consistent(engine):
    """``_groups`` holds exactly ``_rules``, each under its own
    ``(mask, value)``, every bucket key-sorted and non-empty; ``_masks``
    counts the rules per mask."""
    assert sum(engine._masks.values()) == len(engine)
    assert all(engine._masks.values())
    if engine._groups is None:
        return
    assert engine._groups.keys() == engine._masks.keys()
    indexed = []
    for mask, buckets in engine._groups.items():
        assert buckets, "empty group left behind"
        for value, bucket in buckets.items():
            assert bucket, "empty bucket left behind"
            assert [key for key, _ in bucket] == sorted(key for key, _ in bucket)
            for key, r in bucket:
                assert (r.match.ternary.mask, r.match.ternary.value) == (mask, value)
                assert key == engine._key(r)
                indexed.append((key, r))
    assert [r for _, r in sorted(indexed, key=lambda e: e[0])] == engine.rules()


class TestTupleGroupInvariant:
    def test_index_keys_agree_with_rule_masks(self):
        engine = LinearEngine(L)
        rules = [rule(i % 3, f1="0000xxxx" if i % 2 else "00000001") for i in range(9)]
        rules.append(rule(1, f2="00000001"))  # a third mask shape
        for r in rules[:5]:
            engine.add(r)
        assert engine._groups is None  # 5 rules in 2 masks: scanning
        engine._ensure_index()
        for r in rules[5:]:
            engine.add(r)
        assert_index_consistent(engine)
        for r in rules[::2]:
            engine.remove(r)
        assert_index_consistent(engine)
        engine.clear()
        assert engine._groups is None and not engine._masks

    def test_engine_routes_masks_to_matching_groups(self):
        engine = LinearEngine(L)
        a, b = rule(1, f1="00000001"), rule(1, f2="00000001")
        engine.add(a)
        engine.add(b)
        engine._ensure_index()
        assert len(engine._groups) == 2
        assert engine._probe_bits(0x01FF) is a
        assert engine._probe_bits(0xFF01) is b


# ---------------------------------------------------------------------------
# Probe / scan / indexed win fragment against a pure-scan oracle
# ---------------------------------------------------------------------------

W = L.width
#: Few shapes → tables cross into probing; many → they stay on the scan.
FEW_MASKS = [0xFF00, 0xFFF0]
MANY_MASKS = [0xFF00, 0xFFF0, 0xF000, 0x00FF, 0x0F0F, 0xFFFF, 0x0000, 0xF0F0,
              0x3C3C, 0x8001, 0x7FFE, 0x00F0]
#: Few values, so duplicate (mask, value) rules and overlaps are common.
VALUES = [0x0000, 0x1010, 0x1111, 0x0101, 0xFFFF]


def masked_rule(mask, value, priority):
    return Rule(Match(L, Ternary(value & mask, mask, W)), priority, Forward("out"))


def indexed_engine(*rules):
    """A small (scanning) engine with its mask index built."""
    engine = LinearEngine(L, rules)
    engine._ensure_index()
    return engine


def assert_same_fragment(got, expected):
    if expected is None:
        assert got is None
    else:
        assert got is not None
        assert (got.mask, got.value) == (expected.mask, expected.value)


def check_engine(engine, model, probes, rng):
    assert engine.rules() == model.ordered()
    assert_index_consistent(engine)
    probe_side = len(engine) > PROBE_RULES_PER_MASK * len(engine._masks)
    assert probe_side <= (engine._groups is not None)
    engine._ensure_index()  # drive the probe paths on scanning tables too
    assert_index_consistent(engine)
    assert engine.lookup_bits == (engine._probe_bits if probe_side else engine._scan_bits)
    assert engine.win_fragment == (
        engine._probe_fragment if probe_side else engine._scan_fragment
    )
    for bits in probes:
        expected = model.winner(bits)
        assert engine._probe_bits(bits) is expected
        assert engine._scan_bits(bits) is expected
        assert engine.lookup_bits(bits) is expected
    ordered = engine.rules()
    for target in ordered:
        for bits in [target.match.ternary.sample(rng) for _ in range(3)] + probes[:3]:
            expected = scan_win_fragment(ordered, target, bits)
            assert_same_fragment(engine._probe_fragment(target, bits), expected)
            assert_same_fragment(engine.win_fragment(target, bits), expected)


add_op = st.tuples(st.just("add"), st.integers(0, 11), st.sampled_from(VALUES),
                  st.integers(0, 2))
op = st.one_of(
    add_op,
    st.tuples(st.just("remove"), st.integers(0, 40)),
    st.tuples(st.just("remove_if"), st.integers(0, 2)),
    st.tuples(st.just("clear")),
)


class TestProbeDifferential:
    @pytest.mark.parametrize("masks", [FEW_MASKS, MANY_MASKS], ids=["probe", "scan"])
    @settings(max_examples=60, deadline=None)
    @given(base=st.lists(add_op, max_size=40), ops=st.lists(op, max_size=30),
           seed=st.integers(0, 2**16))
    def test_random_mutation_sequences(self, masks, base, ops, seed):
        rng = random.Random(seed)
        engine, model, pool = LinearEngine(L), ScanModel(), []
        for step in base + ops:
            if step[0] == "add":
                _, index, value, priority = step
                r = masked_rule(masks[index % len(masks)], value, priority)
                pool.append(r)
                engine.add(r)
                model.add(r)
            elif step[0] == "remove" and pool:
                victim = pool[step[1] % len(pool)]
                assert engine.remove(victim) == model.remove(victim)
            elif step[0] == "remove_if":
                doomed = engine.remove_if(lambda r, p=step[1]: r.priority == p)
                assert doomed == [r for r in model.ordered() if r.priority == step[1]]
                for r in doomed:
                    model.remove(r)
            elif step[0] == "clear":
                engine.clear()
                model.clear()
        probes = [rng.getrandbits(W) for _ in range(8)]
        probes += [r.match.ternary.sample(rng) for r in engine.rules()[:8]]
        check_engine(engine, model, probes, rng)

    def test_probe_side_reached(self):
        engine = LinearEngine(L)
        assert engine.lookup_bits == engine._scan_bits  # empty: scan
        for i in range(2 * PROBE_RULES_PER_MASK + 1):
            engine.add(masked_rule(FEW_MASKS[i % 2], VALUES[i % 5], 1))
        assert engine.lookup_bits == engine._probe_bits
        assert engine.win_fragment == engine._probe_fragment
        engine.remove(engine.rules()[0])  # back to exactly 8 per mask
        assert engine.lookup_bits == engine._scan_bits
        assert engine.win_fragment == engine._scan_fragment

    def test_clipped_fragment(self):
        """A higher, more specific rule (a non-subset group: the fallback
        walk) clips the target to the piece holding the packet.  The
        tables below are small enough to scan, so the indexed path is
        called directly."""
        specific = masked_rule(0xFFFF, 0x1234, 9)
        target = masked_rule(0xFF00, 0x1200, 1)
        engine = indexed_engine(target, specific)
        got = engine._probe_fragment(target, 0x1200)
        expected = scan_win_fragment(engine.rules(), target, 0x1200)
        assert got is not None and got != target.match.ternary
        assert_same_fragment(got, expected)
        assert got.matches(0x1200) and not got.matches(0x1234)

    def test_shadowed_target(self):
        cover = masked_rule(0xF000, 0x1000, 5)  # subset mask, covers target
        target = masked_rule(0xFF00, 0x1200, 1)
        engine = indexed_engine(target, cover)
        assert engine._probe_fragment(target, 0x1234) is None
        assert scan_win_fragment(engine.rules(), target, 0x1234) is None

    def test_unclipped_target_is_its_own_ternary(self):
        target = masked_rule(0xFF00, 0x1200, 1)
        # Same group, other bucket.
        engine = indexed_engine(masked_rule(0xFF00, 0x3400, 5), target)
        assert engine._probe_fragment(target, 0x1234) is target.match.ternary

    def test_packet_outside_target_and_absent_target(self):
        target = masked_rule(0xFF00, 0x1200, 1)
        engine = indexed_engine(target)
        assert engine._probe_fragment(target, 0x3400) is None
        stranger = masked_rule(0xFF00, 0x1200, 1)
        with pytest.raises(ValueError, match="not present"):
            engine._probe_fragment(stranger, 0x1234)


# ---------------------------------------------------------------------------
# Burst injection
# ---------------------------------------------------------------------------

class TestBatchPaths:
    @pytest.fixture(autouse=True)
    def _restore_context(self):
        previous = obs_context.current()
        yield
        obs_context.install(previous)

    @staticmethod
    def _three_switch_run(inject):
        """Two same-instant 20-packet bursts into ``s0`` of a 3-switch line
        (the first is redirected and installs cache rules, the second hits
        them); ``inject(network, packets)`` picks the entry point."""
        from repro.core import DifaneNetwork
        from repro.net import TopologyBuilder
        from repro.obs import fresh_run_context
        from repro.workloads.policies import routing_policy_for_topology

        context = fresh_run_context(trace=True)
        topo = TopologyBuilder.linear(3, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
        dn = DifaneNetwork.build(
            topo, rules, FIVE_TUPLE_LAYOUT,
            authority_switches=["s1"], redirect_rate=None,
        )
        for _ in range(2):
            inject(dn.network, [
                Packet.from_fields(
                    FIVE_TUPLE_LAYOUT, flow_id=i, nw_src=0x0A000000 | i,
                    nw_dst=host_ips["h2"], nw_proto=6, tp_src=1024 + i, tp_dst=80,
                )
                for i in range(20)
            ])
            dn.network.run()
        kinds = {}
        for event in context.tracer.events():
            kinds.setdefault(event.flow_id, []).append(event.kind)
        counters = {
            name: (sw.cache_hits, sw.authority_hits, sw.redirects_out, sw.packets_seen)
            for name, sw in ((n, dn.switch(n)) for n in ("s0", "s1", "s2"))
        }
        return counters, len(dn.network.delivered()), kinds

    @staticmethod
    def _inject_batch(network, packets):
        network.inject_batch_at_switch("s0", packets)

    @staticmethod
    def _inject_per_packet(network, packets):
        for packet in packets:
            network.inject_at_switch("s0", packet)

    def test_burst_injection_equals_per_packet(self):
        """``inject_batch_at_switch`` is N x ``inject_at_switch``."""
        batch = self._three_switch_run(self._inject_batch)
        sequential = self._three_switch_run(self._inject_per_packet)
        counters, delivered, _ = sequential
        assert counters["s0"][0] > 0 and counters["s0"][2] > 0  # hits and redirects
        assert delivered == 40
        assert batch == sequential

    def test_batch_into_unregistered_switch_drops_every_packet(self):
        from repro.net import SimNetwork, TopologyBuilder
        from repro.obs import fresh_run_context

        context = fresh_run_context()
        network = SimNetwork(TopologyBuilder.linear(2, hosts_per_switch=1))
        network.inject_batch_at_switch(
            "s0", [Packet.from_fields(FIVE_TUPLE_LAYOUT, nw_proto=6) for _ in range(5)]
        )
        network.run()
        assert [r.drop_reason for r in network.dropped()] == (
            ["no behaviour registered"] * 5
        )
        assert not network.delivered()
        assert context.metrics.counter("packets_injected_total").value == 5
