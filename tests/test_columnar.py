"""Columnar packet core: equivalence with the scalar oracle, plus units.

The contract under test (DESIGN.md, "Columnar core"): with the columnar
batch path enabled, a run must produce the *same metrics document*, the
same per-flow delivery outcomes and the same trace accounting as the
scalar per-packet oracle — the only permitted difference is speed.  The
property below drives randomized star fabrics and Zipf burst workloads
through both paths, including a lossy-fabric configuration (where the
columnar path must degrade to the oracle, because per-link RNG draws are
consumed in processing order).
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core.controller import DifaneNetwork
from repro.flowspace.batch import PacketBatch, layout_vectorizes, set_columnar
from repro.flowspace.bits import mask_of_width
from repro.flowspace import (
    ActionList, Drop, Forward, Match, Rule, RuleTable, SendToController, SetField,
    Ternary,
)
from repro.flowspace.fields import (
    FIVE_TUPLE_LAYOUT,
    IPV6_FIVE_TUPLE_LAYOUT,
    TWO_FIELD_LAYOUT,
)
from repro.flowspace.packet import Packet
from repro.flowspace.vectormatch import VectorMatcher
from repro.net.events import EventScheduler
from repro.net.failures import FailureInjector
from repro.net.links import Link, LinkSpec
from repro.net.simnet import _BatchBlock
from repro.net.topology import TopologyBuilder
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.switch.tcam import Tcam
from repro.workloads.batches import TimedBatch, host_pair_batches
from repro.workloads.classbench import generate_classbench
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.streaming import (
    StreamSpec,
    stream_bursts,
    streaming_policy,
    streaming_topology,
)

LAYOUT = FIVE_TUPLE_LAYOUT


@pytest.fixture(autouse=True)
def _scalar_mode_after():
    """Every test leaves the process in scalar mode with its old context."""
    previous = obs_context.current()
    yield
    set_columnar(False)
    obs_context.install(previous)


# -- the equivalence property -------------------------------------------------------

def _vary_actions(rules):
    """The routing policy with its host rules cycled through SetField +
    Forward, Drop, no terminal action and SetField + SendToController (an
    action a batch cannot apply); the trailing default drop is kept."""
    variants = (
        lambda port: ActionList(SetField("tp_src", 7), Forward(port)),
        lambda port: ActionList(Drop()),
        lambda port: ActionList(SetField("tp_dst", 8080)),
        lambda port: ActionList(SetField("tp_dst", 443), SendToController()),
    )
    return [
        Rule(rule.match, rule.priority,
             variants[index % len(variants)](rule.actions.final_forward().port))
        for index, rule in enumerate(rules[:-1])
    ] + rules[-1:]


def _run_workload(columnar, seed, leaf_count, hosts_per_leaf, hot_flows,
                  redirect_rate=None, loss=0.0, replication=1, kill=False,
                  control=False, authority_miss=False, actions=False):
    """One full DIFANE run; returns (metrics snapshot, outcomes, trace).

    ``kill`` places the authorities on leaves s0 and s1 and fails s0 before
    the first burst: its partitions fail over (``replication=2``), punt to
    the controller (``control``) or drop as unreachable.
    ``authority_miss`` strips every authority's default-drop fragments and
    the rules for every other host, so those redirects miss there.
    """
    set_columnar(columnar)
    context = fresh_run_context(trace=True, telemetry=True)
    topo = TopologyBuilder.star(leaf_count=leaf_count, hosts_per_leaf=hosts_per_leaf)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=seed)
    if actions:
        rules = _vary_actions(rules)
    placement = {"authority_switches": ["s0", "s1"]} if kill else {"authority_count": 2}
    facade = DifaneNetwork.build(
        topo, rules, LAYOUT, cache_capacity=64, redirect_rate=redirect_rate,
        replication=replication, **placement,
    )
    schedule = host_pair_batches(
        topo, host_ips, LAYOUT, bursts=4, burst_size=40,
        hot_flows=hot_flows, alpha=1.0, seed=seed,
    )
    if control:
        facade.controller.connect_control_plane()
    if kill:
        FailureInjector(facade.network).fail_switch("s0")
    if authority_miss:
        stripped = {None} | set(list(host_ips)[::2])
        for switch in facade.switches():
            for rule in list(switch.pipeline.authority.table.rules):
                forward = rule.actions.final_forward()
                if (forward and forward.port) in stripped:
                    switch.uninstall_rule(rule)
    if loss:
        for link in facade.network._links.values():
            link.loss_probability = loss
    for timed in schedule:
        facade.send_batch_at(timed.time, timed.switch, timed.batch)
    facade.run()
    outcomes = sorted(
        (r.flow_id, r.delivered, r.via_authority, r.via_controller, r.drop_reason)
        for r in facade.network.deliveries
    )
    # artifact_cache_* counters describe the harness, not the simulated
    # system (the zipf CDF is built once per process, so the first run
    # counts a build and the second a memory hit) — excluded exactly like
    # the canonical metrics document excludes them.
    snapshot = context.metrics.snapshot(exclude_prefixes=("artifact_cache_",))
    return snapshot, outcomes, context.tracer.accounting()


def _assert_modes_agree(config, *draw):
    """Run ``draw`` scalar and columnar under ``config``; return the scalar
    run after checking the columnar one reproduces it."""
    scalar = _run_workload(False, *draw, **config)
    columnar = _run_workload(True, *draw, **config)
    for name, expected, actual in zip(
        ("metrics snapshot", "delivery outcomes", "trace accounting"),
        scalar, columnar,
    ):
        assert expected == actual, f"{name} diverged under {config or 'clean fabric'}"
    return scalar


#: The rare decisions both executors share, with the counters or drop
#: reasons that show a run took them.
_BRANCHES = [
    ({"replication": 2, "kill": True}, ("difane_failovers_total",)),
    ({"kill": True, "control": True}, ("difane_degraded_packets_total",)),
    ({"kill": True}, ("authority unreachable",)),
    ({"authority_miss": True}, ("authority miss", "difane_unmatched_total")),
    ({"actions": True},
     ("policy drop", "no terminal action", "punt without controller")),
]


@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    leaf_count=st.integers(min_value=3, max_value=6),
    hosts_per_leaf=st.integers(min_value=1, max_value=2),
    hot_flows=st.integers(min_value=4, max_value=24),
    config=st.sampled_from([
        {},                              # clean fabric: the fast path engages
        {"redirect_rate": 800_000.0},    # redirect stations queue per packet
        {"loss": 0.02},                  # faulty fabric: must degrade to oracle
    ] + [config for config, _ in _BRANCHES]),
)
def test_columnar_equals_scalar(seed, leaf_count, hosts_per_leaf, hot_flows, config):
    _assert_modes_agree(config, seed, leaf_count, hosts_per_leaf, hot_flows)


@pytest.mark.parametrize(
    "config, evidence", _BRANCHES, ids=[",".join(c) for c, _ in _BRANCHES]
)
def test_columnar_equals_scalar_on_rare_branches(config, evidence):
    """Each rare branch, on a draw known to take it."""
    snapshot, outcomes, _ = _assert_modes_agree(config, 11, 4, 2, 24)
    taken = {reason for *_, reason in outcomes}
    taken |= {key.split("{")[0] for key, value in snapshot["counters"].items() if value}
    assert set(evidence) <= taken


# -- PacketBatch --------------------------------------------------------------------

def _sample_batch(count=16, seed=3):
    rng = np.random.default_rng(seed)
    return PacketBatch.from_fields(
        LAYOUT,
        count,
        flow_ids=rng.integers(0, 64, count).tolist(),
        size_bytes=64,
        nw_src=rng.integers(0, 2**32, count),
        nw_dst=rng.integers(0, 2**32, count),
        nw_proto=6,
        tp_src=rng.integers(1024, 65536, count),
        tp_dst=80,
    )


def test_packet_batch_round_trips_through_packets():
    assert layout_vectorizes(LAYOUT)
    batch = _sample_batch()
    packets = batch.packets()
    assert [p.header_bits for p in packets] == batch.header_bits_list()
    assert [p.flow_id for p in packets] == batch.flow_ids.tolist()
    assert [p.packet_id for p in packets] == batch.packet_ids.tolist()
    rebatched = PacketBatch.from_packets(packets)
    assert rebatched.header_bits_list() == batch.header_bits_list()
    assert rebatched.packet_ids.tolist() == batch.packet_ids.tolist()


def test_packet_batch_select_and_set_field():
    batch = _sample_batch()
    bits = batch.header_bits_list()
    sub = batch.select([1, 5, 9])
    assert len(sub) == 3
    assert sub.header_bits_list() == [bits[1], bits[5], bits[9]]
    assert sub.packet_ids.tolist() == batch.packet_ids[[1, 5, 9]].tolist()
    sub.set_field("tp_dst", 443)
    offset = LAYOUT.offset("tp_dst")
    for packet_bits in sub.header_bits_list():
        assert (packet_bits >> offset) & mask_of_width(16) == 443
    # select copies: the parent batch is untouched
    assert batch.header_bits_list() == bits


def test_packet_batch_encapsulate_decapsulate():
    batch = _sample_batch(count=4)
    assert batch.encap_destination is None
    batch.encapsulate("a1")
    assert batch.encap_destination == "a1"
    for packet in batch.packets():
        assert packet.encap_destination == "a1"
    batch.decapsulate()
    assert batch.encap_destination is None


def _packet_view(packet):
    return tuple(getattr(packet, name) for name in Packet.__slots__)


@st.composite
def _concat_parts(draw):
    layout = draw(st.sampled_from([FIVE_TUPLE_LAYOUT, IPV6_FIVE_TUPLE_LAYOUT]))
    parts = []
    for index in range(draw(st.integers(1, 4))):
        count = draw(st.integers(0, 5))
        values = st.lists(st.integers(0, 2**16 - 1), min_size=count, max_size=count)
        batch = PacketBatch.from_fields(
            layout, count,
            flow_ids=draw(values),
            size_bytes=draw(st.sampled_from([64, 1500])),
            nw_dst=draw(values), tp_src=draw(values), tp_dst=80,
        )
        # What a hop has done to a batch by the time it meets another one.
        batch.created_at = 0.25
        batch.ingress_switch[:] = draw(st.sampled_from(["e0", "e1", None]))
        batch.hops += index
        batch.via_authority[:] = draw(st.booleans())
        batch.encapsulate("a0")
        if draw(st.booleans()):
            batch.header_bits_list()                # packed words cached
        parts.append(batch)
    return parts


@settings(max_examples=80, deadline=None)
@given(parts=_concat_parts())
def test_prop_concat_is_the_parts_end_to_end(parts):
    """``concat(parts).packets()`` is the parts' ``packets()`` in order —
    vectorizing and wide layouts, packed words cached on all, some or no
    parts, sizes uniform or not — and the per-packet ingress survives
    into the delivery rows."""
    expected = [packet for part in parts for packet in part.packets()]
    merged = PacketBatch.concat(parts)
    assert (merged is parts[0]) == (len(parts) == 1)
    assert list(map(_packet_view, merged.packets())) == list(map(_packet_view, expected))
    sizes = {packet.size_bytes for part in parts for packet in part.packets()}
    assert merged.uniform_size is None or sizes <= {merged.uniform_size}
    if len({part.uniform_size for part in parts}) == 1:
        assert merged.uniform_size == parts[0].uniform_size
    picked = np.arange(0, len(merged), 2)
    assert merged.select(picked).uniform_size == merged.uniform_size
    assert list(map(_packet_view, merged.select(picked).packets())) == [
        _packet_view(expected[i]) for i in picked
    ]
    rows = _BatchBlock(merged, "sink0", 0.5, True).materialize()
    assert [row.ingress_switch for row in rows] == [p.ingress_switch for p in expected]
    assert [row.packet_id for row in rows] == [p.packet_id for p in expected]


def test_from_packets_keeps_mixed_ingress_and_knows_its_size():
    first, second = _sample_batch(count=2).packets(), _sample_batch(count=2).packets()
    for packet in first:
        packet.ingress_switch = "e0"
    for packet in second:
        packet.ingress_switch = "e1"
    second[1].size_bytes = 1500
    assert PacketBatch.from_packets(first).uniform_size == 64
    mixed = PacketBatch.from_packets(first + second)
    assert mixed.ingress_switch.tolist() == ["e0", "e0", "e1", "e1"]
    assert mixed.uniform_size is None
    assert [p.ingress_switch for p in mixed.packets()] == ["e0", "e0", "e1", "e1"]


# -- link coalescing ------------------------------------------------------------------

def _test_link(spec=LinkSpec(), seed=0):
    """A bare link whose arrivals land in a list as ``(time, [ids...])``:
    one entry per arrival callback, batch arrivals as one id list per batch."""
    scheduler = EventScheduler()
    arrivals = []
    link = Link(
        "a", "b", spec, scheduler,
        deliver=lambda node, packet: arrivals.append((scheduler.now, packet.packet_id)),
        deliver_batch=lambda node, batches: arrivals.append(
            (scheduler.now, [batch.packet_ids.tolist() for batch in batches])
        ),
        seed=seed,
    )
    return scheduler, link, arrivals


def _flat(arrivals):
    """Arrivals as sorted ``(time, packet id)`` pairs, scalar or batch."""
    pairs = []
    for time, ids in arrivals:
        if isinstance(ids, int):
            pairs.append((time, ids))
        else:
            pairs.extend((time, i) for batch_ids in ids for i in batch_ids)
    return sorted(pairs)


def test_same_instant_sends_share_one_batch_event():
    scheduler, link, arrivals = _test_link()
    first, second, later = (_sample_batch(count=3) for _ in range(3))
    link.send_batch(first)
    link.send_batch(second)
    assert scheduler.batch_events_scheduled == 1
    # A send whose arrival instant differs starts its own event ...
    scheduler.schedule(1e-6, link.send_batch, later)
    scheduler.run()
    assert scheduler.batch_events_scheduled == 2
    delay = LinkSpec().transfer_delay(64)
    assert arrivals == [
        (delay, [first.packet_ids.tolist(), second.packet_ids.tolist()]),
        (1e-6 + delay, [later.packet_ids.tolist()]),
    ]
    assert link.packets_carried == 9 and link.bytes_carried == 9 * 64
    # ... and so does one made once the event has fired.
    link.send_batch(_sample_batch(count=2))
    assert scheduler.batch_events_scheduled == 3


def test_a_fired_batch_event_is_detached_from_the_link():
    """On a zero-delay link a send made right after an arrival has the
    *same* arrival instant as the event that just fired; it must travel
    in a new event, not be appended to the list already handed over."""
    scheduler, link, arrivals = _test_link(
        LinkSpec(propagation_s=0.0, bandwidth_bps=float("inf"))
    )
    first, second = _sample_batch(count=2), _sample_batch(count=2)
    link.send_batch(first)
    scheduler.run()
    link.send_batch(second)
    scheduler.run()
    assert arrivals == [
        (0.0, [first.packet_ids.tolist()]), (0.0, [second.packet_ids.tolist()]),
    ]


def test_mixed_size_batch_arrives_once_per_size():
    scheduler, link, arrivals = _test_link()
    packets = _sample_batch(count=4).packets()
    packets[1].size_bytes = packets[3].size_bytes = 1500
    batch = PacketBatch.from_packets(packets)
    link.send_batch(batch)
    scheduler.run()
    ids = batch.packet_ids.tolist()
    assert arrivals == [
        (LinkSpec().transfer_delay(64), [[ids[0], ids[2]]]),
        (LinkSpec().transfer_delay(1500), [[ids[1], ids[3]]]),
    ]
    assert link.bytes_carried == 2 * 64 + 2 * 1500


@pytest.mark.parametrize("faults", [dict(loss_probability=0.3), dict(jitter_s=1e-4)])
def test_faulty_link_draws_per_packet_in_packet_order(faults):
    """Loss and jitter are untouched by coalescing: a batch consumes the
    link's RNG exactly as its packets sent one by one would, and two
    same-instant sends on a lossy link stay two events."""
    spec = LinkSpec(**faults)
    batches = [_sample_batch(count=20), _sample_batch(count=20)]
    scalar_scheduler, scalar_link, scalar_arrivals = _test_link(spec, seed=7)
    for batch in batches:
        for packet in batch.packets():
            scalar_link.send(packet)
    scalar_scheduler.run()
    scheduler, link, arrivals = _test_link(spec, seed=7)
    for batch in batches:
        link.send_batch(batch)
    if not spec.jitter_s:
        assert scheduler.batch_events_scheduled == 2
    scheduler.run()
    assert _flat(arrivals) == _flat(scalar_arrivals)
    assert link.packets_lost == scalar_link.packets_lost
    assert (link.packets_lost > 0) == bool(spec.loss_probability)
    assert (link.packets_carried, link.bytes_carried) == (
        scalar_link.packets_carried, scalar_link.bytes_carried,
    )


# -- packet-ordered installs, egress bucketing -----------------------------------------

def _tied_install_run(columnar, spy=None):
    """Two ingresses, two equidistant authorities, caches of 8: installs
    from ``a0`` and ``a1`` reach an ingress at the same instant, and from
    the second epoch on every install evicts."""
    set_columnar(columnar)
    fresh_run_context()
    spec = StreamSpec(
        hosts=4096, edge_switches=2, authority_switches=2, epochs=4,
        burst_size=64, rules_per_switch=16,
    )
    facade = DifaneNetwork.build(
        streaming_topology(spec), streaming_policy(spec, LAYOUT), LAYOUT,
        authority_switches=spec.authority_names(), cache_capacity=8,
    )
    ingress = facade.switch("e0")
    evicted = []
    ingress.pipeline.cache.add_evict_hook(lambda rule: evicted.append(str(rule.match)))
    if spy is not None:
        spy(facade)
    for timed in stream_bursts(spec, LAYOUT):
        facade.send_batch_at(timed.time, timed.switch, timed.batch)
    facade.run()
    table = [str(rule.match) for rule in ingress.pipeline.cache.table.rules]
    sent = [facade.switch(name).cache_installs_sent for name in ("a0", "a1")]
    return table, evicted, sent


def test_tied_installs_from_two_authorities_land_in_packet_order():
    queued = []

    def spy(facade):
        ingress = facade.switch("e0")
        queue = ingress.queue_cache_installs

        def recording(delay, entries):
            queued.append(facade.network.scheduler.now + delay)
            queue(delay, entries)
        ingress.queue_cache_installs = recording

    scalar_table, scalar_evicted, scalar_sent = _tied_install_run(False)
    table, evicted, sent = _tied_install_run(True, spy)
    assert min(sent) > 0 and len(queued) > len(set(queued)), "no tie to break"
    assert len(evicted) > 8
    assert sent == scalar_sent
    assert evicted == scalar_evicted            # same victims, same order
    assert table == scalar_table


@pytest.mark.parametrize("prefetch", [1, 4])
def test_redirect_to_own_ingress_caches_locally_in_packet_order(prefetch):
    """The degenerate single-switch case (a burst tunnelled to the switch
    it entered at) installs synchronously — and, like the remote case, per
    packet in packet order, not per flow: 24 installs into a 4-entry cache
    evict the same victims as 24 scalar packets."""
    def run(columnar):
        set_columnar(columnar)
        context = fresh_run_context(trace=True)
        topo = TopologyBuilder.star(leaf_count=3, hosts_per_leaf=2)
        rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=1)
        facade = DifaneNetwork.build(
            topo, rules, LAYOUT, authority_count=1, cache_capacity=4,
            redirect_rate=None, prefetch_fragments=prefetch,
        )
        switch = next(s for s in facade.switches() if len(s.pipeline.authority))
        addresses = list(host_ips.values())
        picks = np.random.default_rng(3).integers(0, len(addresses), 24)
        batch = PacketBatch.from_fields(
            LAYOUT, 24, flow_ids=list(range(24)), nw_src=addresses[0],
            nw_dst=[addresses[i] for i in picks], nw_proto=6, tp_dst=80,
        )
        batch.created_at = 0.0
        batch.ingress_switch[:] = switch.name
        batch.encapsulate(switch.name)
        if columnar:
            switch.handle_batch(facade.network, batch)
        else:
            for packet in batch.packets():
                switch.handle_packet(facade.network, packet)
        facade.run()
        return (
            context.metrics.snapshot(exclude_prefixes=("artifact_cache_",)),
            [str(rule.match) for rule in switch.pipeline.cache.table.rules],
            switch.cache_installs_received, switch.cache.evicted,
            context.tracer.accounting(),
        )

    scalar = run(False)
    assert scalar[2] >= 24 and scalar[3] > 0
    assert run(True) == scalar


def test_a_burst_leaves_as_one_sub_batch_per_egress_in_packet_order():
    forwards = []
    bursts = {epoch * StreamSpec.epoch_interval_s for epoch in range(4)}

    def spy(facade):
        forward = facade.network.forward_batch_toward

        def recording(at_node, destination, batch):
            # Classification points only (an ingress at a burst instant,
            # an authority); transit relays whatever order arrived.
            now = facade.network.scheduler.now
            if at_node in ("a0", "a1") or (at_node != "core" and now in bursts):
                forwards.append(
                    (now, at_node, destination, batch.packet_ids.tolist())
                )
            forward(at_node, destination, batch)
        facade.network.forward_batch_toward = recording

    _tied_install_run(True, spy)
    assert any(len(ids) > 1 for *_, ids in forwards)
    for *where, ids in forwards:
        assert ids == sorted(ids), where
    # One sub-batch per (instant, switch, destination): a burst that hits
    # many rules toward one sink is not split per rule.
    keys = [tuple(where) for *where, _ in forwards]
    assert len(keys) == len(set(keys))


# -- the vector matcher -------------------------------------------------------------

def test_match_batch_agrees_with_scalar_lookup():
    """Tcam.match_batch (VectorMatcher) wins exactly where lookup does."""
    rules = generate_classbench("acl", count=200, seed=11, layout=LAYOUT)
    tcam = Tcam(LAYOUT)
    for rule in rules:
        tcam.install(rule)
    rng = random.Random(14)
    probe_bits = [rule.match.ternary.sample(rng) for rule in rules[:64]]
    probe_bits += [rng.getrandbits(LAYOUT.width - 1) for _ in range(64)]
    fields = {
        name: [(bits >> LAYOUT.offset(name)) & mask_of_width(spec.width)
               for bits in probe_bits]
        for name, spec in ((f.name, f) for f in LAYOUT.fields)
    }
    batch = PacketBatch.from_fields(LAYOUT, len(probe_bits), **fields)
    winners, ordered = tcam.match_batch(batch)
    for position, bits in enumerate(batch.header_bits_list()):
        expected = tcam.table.lookup_bits(bits)
        actual = None if winners[position] < 0 else ordered[winners[position]]
        assert actual is expected


def _loop_match(layout, rules, columns):
    """The per-rule loop ``VectorMatcher.match`` ran before the broadcast
    compare replaced it, kept as the oracle: visit rules in lookup order
    and hand each the still-unmatched packets whose cared fields agree."""
    first = next(iter(columns.values())) if columns else None
    count = len(first) if first is not None else 0
    winners = np.full(count, -1, dtype=np.int64)
    unmatched = np.ones(count, dtype=bool)
    for index, rule in enumerate(rules):
        ok = unmatched.copy()
        for name in layout.names():
            sub = layout.field_ternary(rule.match.ternary, name)
            if sub.mask:
                ok &= (columns[name] & np.uint64(sub.mask)) == np.uint64(sub.value)
        winners[ok] = index
        unmatched &= ~ok
    return winners


@st.composite
def _matcher_cases(draw):
    layout = draw(st.sampled_from([FIVE_TUPLE_LAYOUT, TWO_FIELD_LAYOUT]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    names = layout.names()
    # Fields outside ``cared`` are wildcards in every rule: the matcher
    # must skip them, not compare them.
    cared = draw(st.sets(st.sampled_from(names)))
    table = RuleTable(layout)
    for _ in range(draw(st.integers(0, 300))):
        mask = value = 0
        for spec in layout.fields:
            style = rng.randrange(4) if spec.name in cared else 0
            window = mask_of_width(spec.width)
            field_mask = (
                0, window, window & ~mask_of_width(rng.randrange(spec.width + 1)),
                rng.getrandbits(spec.width),
            )[style]
            # Few distinct values, so rules overlap and shadow each other.
            field_value = rng.choice((0, window, 0x5A5A5A5A & window)) & field_mask
            mask |= field_mask << layout.offset(spec.name)
            value |= field_value << layout.offset(spec.name)
        table.add(Rule(
            Match(layout, Ternary(value, mask, layout.width)),
            rng.randrange(3),                       # duplicate priorities
            Forward("x"),
        ))
    rules = list(table.rules)
    headers = [rng.getrandbits(layout.width) for _ in range(draw(st.integers(0, 24)))]
    headers += [
        rng.choice(rules).match.ternary.sample(rng)
        for _ in range(draw(st.integers(0, 24)) if rules else 0)
    ]
    columns = {
        spec.name: np.array(
            [(bits >> layout.offset(spec.name)) & mask_of_width(spec.width)
             for bits in headers],
            dtype=np.uint64,
        )
        for spec in layout.fields
    }
    return layout, table, rules, headers, columns


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=_matcher_cases())
def test_prop_vector_matcher_agrees_with_the_loop_and_the_engine(case):
    """Broadcast compare + first-True == the per-rule loop == lookup_bits,
    over empty batches, empty tables, all-wildcard tables, fields no rule
    cares about and equal-priority overlaps (first installed wins)."""
    layout, table, rules, headers, columns = case
    winners = VectorMatcher(layout, rules).match(columns)
    assert winners.dtype == np.int64 and winners.shape == (len(headers),)
    assert winners.tolist() == _loop_match(layout, rules, columns).tolist()
    for bits, winner in zip(headers, winners.tolist()):
        expected = table.lookup_bits(bits)
        assert (None if winner < 0 else rules[winner]) is expected


def test_vector_matcher_all_wildcard_table_sends_everyone_to_rule_zero():
    rules = [Rule(Match.any(LAYOUT), 1, Forward(port)) for port in "ab"]
    batch = _sample_batch(count=5)
    matcher = VectorMatcher(LAYOUT, rules)
    assert matcher._fields == []                    # nothing to compare
    assert matcher.match(batch.fields).tolist() == [0] * 5
    assert VectorMatcher(LAYOUT, []).match(batch.fields).tolist() == [-1] * 5
    assert matcher.match(_sample_batch(count=0).fields).tolist() == []


# -- burst-granular scheduling ------------------------------------------------------

def test_schedule_batch_is_counted_and_marked():
    scheduler = EventScheduler()
    fired = []
    event = scheduler.schedule_batch(0.5, fired.append, "burst")
    assert event.kind == "batch"
    assert scheduler.batch_events_scheduled == 1
    scheduler.run()
    assert fired == ["burst"]


def test_timed_batch_compat_view():
    topo = TopologyBuilder.star(leaf_count=3, hosts_per_leaf=2)
    _, host_ips = routing_policy_for_topology(topo, LAYOUT)
    schedule = host_pair_batches(
        topo, host_ips, LAYOUT, bursts=2, burst_size=10, hot_flows=4, seed=5,
    )
    assert sum(len(timed) for timed in schedule) == 20
    for timed in schedule:
        assert isinstance(timed, TimedBatch)
        scalars = timed.timed_packets()
        assert len(scalars) == len(timed)
        for scalar, bits in zip(scalars, timed.batch.header_bits_list()):
            assert scalar.time == timed.time
            assert scalar.source_host == timed.switch
            assert scalar.packet.header_bits == bits


def test_fabric_is_clean_gates_the_fast_path():
    """A lossy link forces the scalar path even with columnar mode on."""
    set_columnar(True)
    fresh_run_context()
    topo = TopologyBuilder.star(leaf_count=3, hosts_per_leaf=2)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    facade = DifaneNetwork.build(
        topo, rules, LAYOUT, authority_count=1, cache_capacity=64,
    )
    assert facade.network.fabric_is_clean()
    next(iter(facade.network._links.values())).loss_probability = 0.5
    assert not facade.network.fabric_is_clean()
    schedule = host_pair_batches(
        topo, host_ips, LAYOUT, bursts=1, burst_size=20, hot_flows=4, seed=2,
    )
    for timed in schedule:
        facade.send_batch_at(timed.time, timed.switch, timed.batch)
    facade.run()
    assert facade.network.scheduler.batch_events_scheduled == 0


def test_clean_fabric_uses_batch_events():
    set_columnar(True)
    fresh_run_context()
    topo = TopologyBuilder.star(leaf_count=3, hosts_per_leaf=2)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT)
    facade = DifaneNetwork.build(
        topo, rules, LAYOUT, authority_count=1, cache_capacity=64,
    )
    schedule = host_pair_batches(
        topo, host_ips, LAYOUT, bursts=1, burst_size=20, hot_flows=4, seed=2,
    )
    for timed in schedule:
        facade.send_batch_at(timed.time, timed.switch, timed.batch)
    facade.run()
    assert facade.network.scheduler.batch_events_scheduled > 0


# -- CLI: corrupt metrics documents exit 2 with a clean message ---------------------

def test_cli_report_missing_file_exits_2(capsys):
    assert cli_main(["report", "/nonexistent/metrics.json"]) == 2
    err = capsys.readouterr().err
    assert "cannot read metrics document" in err
    assert "Traceback" not in err


def test_cli_report_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err or "invalid" in err.lower()
    assert "Traceback" not in err


def test_cli_obs_diff_wrong_schema_exits_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema": "difane-metrics/1", "counters": {}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else/9"}))
    assert cli_main(["obs", "diff", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "schema" in err
    assert "Traceback" not in err
