"""Tests for the pluggable match-engine layer.

The load-bearing property: :class:`LinearEngine` is the semantics oracle,
and every other backend must return the *identical* winning rule object —
same priority order, same first-installed-wins tie-break — on any policy
and any packet.  Randomized policies (both unstructured hypothesis rules
and ClassBench ACL/FW/IPC classifiers) drive that equivalence here.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowspace import (
    DecisionTreeEngine,
    ENGINE_CHOICES,
    Forward,
    LinearEngine,
    Match,
    Packet,
    Rule,
    RuleTable,
    TupleSpaceEngine,
    TWO_FIELD_LAYOUT,
    create_engine,
    get_default_engine,
    set_default_engine,
)
from repro.flowspace.batch import PacketBatch, set_columnar
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.tuplespace import _TupleGroup
from repro.obs import context as obs_context
from repro.workloads.classbench import generate_classbench

L = TWO_FIELD_LAYOUT
ALT_ENGINES = [name for name in ENGINE_CHOICES if name != "linear"]


def rule(priority, f1="xxxxxxxx", f2="xxxxxxxx"):
    return Rule(Match.build(L, f1=f1, f2=f2), priority, Forward("out"))


def engines_with(rules):
    oracle = LinearEngine(L)
    others = {name: create_engine(name, L) for name in ALT_ENGINES}
    for r in rules:
        oracle.add(r)
        for engine in others.values():
            engine.add(r)
    return oracle, others


def assert_equivalent(oracle, others, probes):
    for bits in probes:
        expected = oracle.lookup_bits(bits)
        for name, engine in others.items():
            got = engine.lookup_bits(bits)
            assert got is expected, (
                f"{name} returned {got!r}, oracle returned {expected!r} "
                f"for bits {bits:#x}"
            )


# ---------------------------------------------------------------------------
# Oracle equivalence (the shared property every backend must satisfy)
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
        """All engines agree with the oracle, including priority ties.

        Priorities are drawn from {0..3} so most examples contain ties:
        the tie-break (first installed wins) is exercised constantly.
        """
        rules = [rule(priority, f1, f2) for f1, f2, priority in specs]
        oracle, others = engines_with(rules)
        assert_equivalent(oracle, others, probes)
        # Removing a slice must not disturb equivalence either.
        for doomed in rules[::3]:
            assert oracle.remove(doomed)
            for engine in others.values():
                assert engine.remove(doomed)
        assert_equivalent(oracle, others, probes)

    @pytest.mark.parametrize("kind", ["acl", "fw", "ipc"])
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_classbench_policies(self, kind, seed):
        layout = FIVE_TUPLE_LAYOUT
        rules = generate_classbench(kind, count=150, seed=seed, layout=layout)
        rng = random.Random(seed)
        probes = [rng.getrandbits(layout.width) for _ in range(100)]
        probes += [r.match.ternary.sample(rng) for r in rules[::5]]
        oracle = LinearEngine(layout)
        others = {name: create_engine(name, layout) for name in ALT_ENGINES}
        for r in rules:
            oracle.add(r)
            for engine in others.values():
                engine.add(r)
        for bits in probes:
            expected = oracle.lookup_bits(bits)
            for name, engine in others.items():
                assert engine.lookup_bits(bits) is expected, (name, bits)
        for name, engine in others.items():
            assert engine.batch_lookup(probes) == oracle.batch_lookup(probes), name
            assert engine.rules() == oracle.rules(), name

    def test_priority_tie_first_installed_wins(self):
        first = rule(5, f1="0000xxxx")
        second = rule(5, f1="0000xxxx")
        probe = 0x00FF  # f1=0x00 matches both
        for name in ENGINE_CHOICES:
            engine = create_engine(name, L)
            engine.add(first)
            engine.add(second)
            assert engine.lookup_bits(probe) is first, name

    def test_mutation_after_dtree_build(self):
        """Adds/removes after a tree build hit the overlay, not stale data."""
        engine = DecisionTreeEngine(L)
        base = [rule(1, f1=f"{i:08b}") for i in range(32)]
        for r in base:
            engine.add(r)
        engine.build()
        shadow = rule(9, f1="000000xx")
        engine.add(shadow)  # lands in the overlay
        probe = 0x01FF  # f1=0x01: matched by base[1] and shadow
        assert engine.lookup_bits(probe) is shadow
        assert engine.remove(shadow)
        assert engine.lookup_bits(probe) is base[1]
        assert engine.remove(base[1])  # tombstones a tree entry
        assert engine.lookup_bits(probe) is None


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
# Tuple-space invariant (regression: mask/group-key agreement)
# ---------------------------------------------------------------------------

class TestTupleGroupInvariant:
    def test_mismatched_mask_rejected(self):
        grouped = rule(1, f1="00000000")  # mask covers f1 only
        group = _TupleGroup(grouped.match.ternary.mask)
        group.insert((-1, 0), grouped)
        intruder = rule(1, f2="00000000")  # different mask shape
        with pytest.raises(ValueError, match="does not agree"):
            group.insert((-1, 1), intruder)
        # The failed insert must not have corrupted the group.
        assert len(group) == 1

    def test_engine_routes_masks_to_matching_groups(self):
        engine = TupleSpaceEngine(L)
        a, b = rule(1, f1="00000001"), rule(1, f2="00000001")
        engine.add(a)
        engine.add(b)
        assert engine.tuple_count == 2
        assert engine.lookup_bits(0x01FF) is a
        assert engine.lookup_bits(0xFF01) is b


# ---------------------------------------------------------------------------
# Engine selection plumbing
# ---------------------------------------------------------------------------

class TestEngineSelection:
    def test_create_engine_by_name_and_default(self):
        assert isinstance(create_engine("linear", L), LinearEngine)
        assert isinstance(create_engine("tuplespace", L), TupleSpaceEngine)
        assert isinstance(create_engine("dtree", L), DecisionTreeEngine)
        with pytest.raises(ValueError, match="unknown engine"):
            create_engine("bogus", L)
        previous = get_default_engine()
        try:
            set_default_engine("tuplespace")
            assert isinstance(create_engine(None, L), TupleSpaceEngine)
        finally:
            set_default_engine(previous)
        with pytest.raises(ValueError, match="unknown engine"):
            set_default_engine("bogus")

    def test_rule_table_threads_engine(self):
        table = RuleTable(L, engine="tuplespace")
        assert isinstance(table.engine, TupleSpaceEngine)
        r = rule(1, f1="0000xxxx")
        table.add(r)
        assert table.lookup_bits(0x00FF) is r
        assert "tuplespace" in repr(table)

    def test_instance_spec_is_used_as_is(self):
        engine = LinearEngine(L)
        table = RuleTable(L, engine=engine)
        assert table.engine is engine


# ---------------------------------------------------------------------------
# Batch lookup paths
# ---------------------------------------------------------------------------

def _five_tuple_packets(count, seed=0):
    rng = random.Random(seed)
    return [
        Packet.from_fields(
            FIVE_TUPLE_LAYOUT,
            nw_src=rng.getrandbits(32),
            nw_dst=rng.getrandbits(32),
            nw_proto=6,
            tp_src=rng.randrange(1024, 65535),
            tp_dst=rng.choice([80, 443, 22, 8080]),
        )
        for _ in range(count)
    ]


class TestBatchPaths:
    @pytest.fixture(autouse=True)
    def _scalar_mode_after(self):
        previous = obs_context.current()
        yield
        set_columnar(False)
        obs_context.install(previous)

    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    def test_table_batch_matches_sequential(self, engine):
        layout = FIVE_TUPLE_LAYOUT
        rules = generate_classbench("acl", count=80, seed=3, layout=layout)
        table = RuleTable(layout, rules, engine=engine)
        packets = _five_tuple_packets(50, seed=4)
        bits = [p.header_bits for p in packets]
        assert table.batch_lookup(bits) == [table.lookup_bits(b) for b in bits]

    @staticmethod
    def _three_switch_run(inject, columnar=False, lossy=False):
        """Two same-instant 20-packet bursts into ``s0`` of a 3-switch line
        (the first is redirected and installs cache rules, the second hits
        them); ``inject(network, batch)`` picks the entry point."""
        from repro.core import DifaneNetwork
        from repro.net import TopologyBuilder
        from repro.obs import fresh_run_context
        from repro.workloads.policies import routing_policy_for_topology

        set_columnar(columnar)
        context = fresh_run_context(trace=True)
        topo = TopologyBuilder.linear(3, hosts_per_switch=1)
        rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
        dn = DifaneNetwork.build(
            topo, rules, FIVE_TUPLE_LAYOUT,
            authority_switches=["s1"], redirect_rate=None,
        )
        if lossy:
            # fabric_is_clean() turns false: even with columnar on, the
            # batch must take the per-packet fallback.
            dn.network.set_link_faults("s1", "s2", loss_probability=0.3)
        for _ in range(2):
            inject(dn.network, PacketBatch.from_fields(
                FIVE_TUPLE_LAYOUT, 20, flow_ids=range(20),
                nw_src=[0x0A000000 | i for i in range(20)],
                nw_dst=host_ips["h2"], nw_proto=6,
                tp_src=[1024 + i for i in range(20)], tp_dst=80,
            ))
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
    def _inject_batch(network, batch):
        network.inject_batch_at_switch("s0", batch)

    @staticmethod
    def _inject_per_packet(network, batch):
        for packet in batch.packets():
            network.inject_at_switch("s0", packet)

    def _assert_batch_equals_per_packet(self, columnar, lossy):
        batch = self._three_switch_run(self._inject_batch, columnar, lossy)
        sequential = self._three_switch_run(self._inject_per_packet, False, lossy)
        counters, delivered, _ = sequential
        assert counters["s0"][0] > 0 and counters["s0"][2] > 0  # hits and redirects
        assert (delivered < 40) == lossy
        assert batch == sequential

    def test_burst_injection_equals_per_packet(self):
        """Columnar off: ``inject_batch_at_switch`` is N x ``inject_at_switch``."""
        self._assert_batch_equals_per_packet(columnar=False, lossy=False)

    @pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy-link"])
    def test_columnar_batch_injection_equals_per_packet(self, lossy):
        """Columnar on: the batch path on a clean fabric, the per-packet
        fallback when one link draws randomness."""
        self._assert_batch_equals_per_packet(columnar=True, lossy=lossy)

    def test_batch_into_unregistered_switch_drops_every_packet(self):
        from repro.net import SimNetwork, TopologyBuilder
        from repro.obs import fresh_run_context

        context = fresh_run_context()
        network = SimNetwork(TopologyBuilder.linear(2, hosts_per_switch=1))
        network.inject_batch_at_switch(
            "s0", PacketBatch.from_fields(FIVE_TUPLE_LAYOUT, 5, nw_proto=6)
        )
        network.run()
        assert [r.drop_reason for r in network.dropped()] == (
            ["no behaviour registered"] * 5
        )
        assert not network.delivered()
        assert context.metrics.counter("packets_injected_total").value == 5
