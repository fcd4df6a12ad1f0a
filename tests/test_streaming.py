"""Streaming workload + M1 soak: equivalence, determinism, memory bounds.

The streaming machinery only earns its complexity if it is *invisible*
in the results: lazily-fed schedules must match pre-materialized ones
byte-for-byte, sketch observability must agree with the exact per-packet
records it replaces (within its proven bound), and the cached Zipf CDF
must be built exactly once per (n, alpha).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter

import numpy as np
import pytest

from repro.experiments.common import metrics_document
from repro.experiments.streaming import run_streaming_soak
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT, parse_ip
from repro.flowspace.packet import Packet
from repro.net import simnet
from repro.net.simnet import DeliveryRecord
from repro.net.topology import TopologyBuilder
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.obs.sketch import DeliveryReader
from repro.workloads.streaming import (
    BASE_ADDRESS,
    StreamSpec,
    epoch_bursts,
    host_addresses,
    stream_bursts,
    streaming_policy,
    streaming_topology,
)
from repro.workloads.zipf import ZipfSampler, _build_cdf, zipf_cdf

LAYOUT = FIVE_TUPLE_LAYOUT

# The pinned-scale M1 configuration shared by the equivalence tests and
# the golden (small enough for CI, large enough to exercise flash crowds,
# a full diurnal cycle and cache churn).
M1_SMALL = dict(
    hosts=4096, edge_switches=4, epochs=40, burst_size=64, rules_per_switch=16,
)


@pytest.fixture(autouse=True)
def _restore_context():
    previous = obs_context.current()
    yield
    obs_context.install(previous)


def _burst_key(burst):
    """Identity of a burst minus its globally-drawn packet ids."""
    time, switch, packets = burst
    return (
        time,
        switch,
        [packet.header_bits for packet in packets],
        [packet.flow_id for packet in packets],
    )


# -- generator equivalences --------------------------------------------------


def test_epoch_bursts_random_access_equals_sequential():
    """Epoch e regenerates identically with or without epochs 0..e-1."""
    spec = StreamSpec(
        hosts=512, edge_switches=4, epochs=12, burst_size=32,
        rules_per_switch=8, seed=3,
    )
    sequential = [_burst_key(t) for t in stream_bursts(spec, LAYOUT)]
    random_access = []
    for epoch in reversed(range(spec.epochs)):  # deliberately out of order
        random_access[:0] = [_burst_key(t) for t in epoch_bursts(spec, epoch, LAYOUT)]
    assert sequential == random_access


def test_epoch_bursts_are_packets_with_consecutive_ids():
    """An epoch's packets draw consecutive ids in burst order; each header
    carries the drawn hosts' addresses, TCP to port 80, and the flow id is
    the destination host index."""
    spec = StreamSpec(
        hosts=512, edge_switches=4, epochs=8, burst_size=64,
        rules_per_switch=8, seed=5, mobility_rate=0.0,
    )
    epoch = 3
    bursts = epoch_bursts(spec, epoch, LAYOUT)
    assert [switch for _, switch, _ in bursts] == sorted(
        {switch for _, switch, _ in bursts}
    )
    ids = [packet.packet_id for _, _, packets in bursts for packet in packets]
    assert ids == list(range(ids[0], ids[0] + spec.epoch_packet_count(epoch)))
    low_bits = (1 << spec.host_bits) - 1
    for time, switch, packets in bursts:
        assert time == spec.start_time + epoch * spec.epoch_interval_s
        for packet in packets:
            fields = packet.fields()
            offset = fields["nw_src"] - BASE_ADDRESS
            source = (
                (offset & low_bits) * spec.edge_switches
                + (offset >> spec.host_bits)
            )
            assert 0 <= source < spec.hosts
            assert 0 <= packet.flow_id < spec.hosts
            assert fields["nw_src"] == int(host_addresses(spec, [source])[0])
            assert fields["nw_dst"] == int(host_addresses(spec, [packet.flow_id])[0])
            assert (fields["nw_proto"], fields["tp_dst"]) == (6, 80)
            assert 1024 <= fields["tp_src"] < 65536
            # Without mobility every source enters at its home switch.
            assert switch == spec.edge_name(source % spec.edge_switches)
            assert packet.size_bytes == spec.size_bytes
            assert (packet.created_at, packet.ingress_switch) == (None, None)


def test_flash_crowd_windows_and_hotset_stability():
    spec = StreamSpec(
        hosts=1000, edge_switches=2, rules_per_switch=4,
        flash_every_epochs=10, flash_length_epochs=3, flash_hotset_size=16,
    )
    # No flash before the first full period, then 3-epoch windows.
    assert spec.flash_hotset(0) is None
    assert spec.flash_hotset(2) is None
    assert spec.flash_hotset(9) is None
    for epoch in (10, 11, 12):
        hotset = spec.flash_hotset(epoch)
        assert hotset is not None and len(hotset) == 16
        assert (spec.flash_hotset(10) == hotset).all()  # stable within window
    assert spec.flash_hotset(13) is None
    # A different flash id draws a different hotset.
    assert not (spec.flash_hotset(10) == spec.flash_hotset(20)).all()


def test_diurnal_cycle_modulates_epoch_budget():
    spec = StreamSpec(
        hosts=100, edge_switches=2, rules_per_switch=4, burst_size=100,
        diurnal_amplitude=0.5, diurnal_period_epochs=8,
    )
    counts = [spec.epoch_packet_count(e) for e in range(8)]
    assert counts[0] == 100                      # sin(0) = 0
    assert counts[2] == 150                      # peak: 1 + 0.5
    assert counts[6] == 50                       # trough: 1 - 0.5
    assert max(counts) == 150 and min(counts) == 50
    flat = StreamSpec(
        hosts=100, edge_switches=2, rules_per_switch=4, burst_size=100,
        diurnal_amplitude=0.0,
    )
    assert {flat.epoch_packet_count(e) for e in range(20)} == {100}


def test_mobility_rewires_ingress_but_not_traffic():
    """Mobility changes *where* packets enter, never *what* they are."""
    base = dict(hosts=2048, edge_switches=4, rules_per_switch=8,
                burst_size=200, seed=11, flash_every_epochs=0)
    home = StreamSpec(mobility_rate=0.0, **base)
    mobile = StreamSpec(mobility_rate=1.0, **base)

    def flatten(spec, epoch):
        flows, ingress = [], []
        for _, switch, packets in epoch_bursts(spec, epoch, LAYOUT):
            flows.extend(packet.flow_id for packet in packets)
            ingress.extend([switch] * len(packets))
        return flows, ingress

    home_flows, home_ingress = flatten(home, 5)
    mobile_flows, mobile_ingress = flatten(mobile, 5)
    # Same packet population (destinations are drawn before mobility)...
    assert TallyCounter(home_flows) == TallyCounter(mobile_flows)
    assert len(home_ingress) == len(mobile_ingress)
    # ...but the ingress attachment genuinely churned.
    assert home_ingress != mobile_ingress
    # And the rewiring is a pure function of (host, epoch): regenerating
    # the epoch reproduces it exactly.
    assert flatten(mobile, 5) == (mobile_flows, mobile_ingress)


def test_host_addresses_pack_into_aligned_switch_blocks():
    spec = StreamSpec(hosts=4096, edge_switches=4, rules_per_switch=16)
    indices = np.arange(spec.hosts)
    addresses = host_addresses(spec, indices)
    assert len(np.unique(addresses)) == spec.hosts  # injective
    assert int(addresses.min()) >= BASE_ADDRESS
    assert int(addresses.max()) < parse_ip("11.0.0.0")
    # Host i's block is its home switch's block (i % E).
    blocks = (addresses - BASE_ADDRESS) >> spec.host_bits
    assert (blocks == indices % spec.edge_switches).all()


def test_streaming_policy_covers_every_host_block():
    spec = StreamSpec(hosts=4096, edge_switches=4, rules_per_switch=16)
    rules = streaming_policy(spec, LAYOUT)
    assert len(rules) == spec.edge_switches * spec.rules_per_switch + 1
    topo = streaming_topology(spec)
    # O(E) physical nodes under 4096 virtual hosts.
    assert len(topo.switches()) == 1 + spec.edge_switches + spec.authority_switches


def test_stream_spec_validation():
    base = dict(hosts=100, edge_switches=2, rules_per_switch=4)
    with pytest.raises(ValueError):
        StreamSpec(**{**base, "hosts": 1})
    with pytest.raises(ValueError):
        StreamSpec(**{**base, "rules_per_switch": 3})  # not a power of two
    with pytest.raises(ValueError):
        StreamSpec(**{**base, "rules_per_switch": 256})  # exceeds block
    with pytest.raises(ValueError):
        StreamSpec(**{**base, "flash_share": 1.5})
    with pytest.raises(ValueError):
        StreamSpec(**{**base, "mobility_rate": -0.1})
    with pytest.raises(ValueError):
        StreamSpec(hosts=1 << 25, edge_switches=1, rules_per_switch=4)


# -- the zipf-CDF cache regression -------------------------------------------


@pytest.mark.parametrize("n, alpha", [
    (1, 1.0), (7, 0.0), (1000, 0.6), (4096, 1.0), (10**6, 1.0), (513, 2.5),
])
def test_zipf_cdf_built_in_place_equals_the_expression(n, alpha):
    """The in-place build is byte-equal to the one-expression original."""
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), alpha)
    expected = np.cumsum(weights)
    expected /= expected[-1]
    assert _build_cdf(n, alpha).tobytes() == expected.tobytes()


def test_zipf_cdf_is_built_once_and_shared():
    """The PR-8 fix: the CDF used to be re-derived per sampler."""
    context = fresh_run_context()
    n, alpha = 7001, 1.25  # unique params: no other test caches these
    a = ZipfSampler(n, alpha=alpha, seed=1)
    b = ZipfSampler(n, alpha=alpha, seed=2)
    registry = context.metrics
    events = {
        outcome: registry.counter(
            "artifact_cache_events_total", kind="zipf-cdf", outcome=outcome
        ).value
        for outcome in ("build", "memory")
    }
    assert events["build"] == 1, "CDF must be constructed exactly once"
    assert events["memory"] >= 1, "second sampler must hit the memory tier"
    # Same object, and immutable so sharing is safe.
    assert a._cdf is b._cdf
    assert not a._cdf.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        a._cdf[0] = 0.5
    assert zipf_cdf(n, alpha) is a._cdf
    # Different seeds still sample differently off the shared CDF.
    assert a.sample_many(50) != b.sample_many(50)
    assert all(0 <= s < n for s in a.sample_many(50))


# -- Outcome readers ----------------------------------------------------------


def _two_switch_network():
    return simnet.SimNetwork(TopologyBuilder.linear(2, hosts_per_switch=1))


def test_delivery_log_streaming_guards():
    """A network's outcome reader is chosen before any outcome lands: a
    later swap would split the outcomes between two readers."""
    streaming = _two_switch_network()
    reader = DeliveryReader()
    streaming.read_outcomes_with(reader)
    assert streaming.deliveries is reader
    delivered = _two_switch_network()
    delivered.record_delivery(Packet.from_fields(LAYOUT), "h1")
    dropped_only = _two_switch_network()
    dropped_only.record_drop(Packet.from_fields(LAYOUT), "s0", "test")
    streaming.record_drop(Packet.from_fields(LAYOUT), "s0", "test")
    for network in (delivered, dropped_only, streaming):
        with pytest.raises(RuntimeError, match="outcome landed"):
            network.read_outcomes_with(DeliveryReader())
    assert streaming.deliveries is reader
    assert [r.delivered for r in delivered.deliveries] == [True]
    assert [r.delivered for r in dropped_only.deliveries] == [False]


@pytest.mark.parametrize(
    "experiment, drops", [("E8C", False), ("E9Q", True)], ids=["E8C", "E9Q"]
)
def test_sweep_points_build_no_record_for_a_delivered_packet(
    experiment, drops, monkeypatch
):
    """E8C and E9Q read delivery outcomes as they happen: their quick
    runs deliver and drop packets without constructing any record."""
    from repro.experiments.registry import SPECS

    built = TallyCounter()

    class Spy(DeliveryRecord):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built[self.delivered] += 1

    monkeypatch.setattr(simnet, "DeliveryRecord", Spy)
    points = SPECS[experiment](quick=True, jobs=1).notes["points"]
    assert sum(stats["delivered"] for stats in points.values()) > 0
    if drops:
        # E9Q's admission shedding drops packets: those build no record either.
        assert sum(
            stats["redirects_shed"] + stats["redirects_dropped"]
            for stats in points.values()
        ) > 0
    assert built == {}
    # The spy is live: a retaining network builds one record per outcome.
    retaining = _two_switch_network()
    retaining.record_delivery(Packet.from_fields(LAYOUT), "h1")
    retaining.record_drop(Packet.from_fields(LAYOUT), "s0", "test")
    assert built == {True: 1, False: 1}


# -- M1 equivalences ---------------------------------------------------------


def _m1_document(**overrides):
    context = fresh_run_context(telemetry=True)
    result = run_streaming_soak(**{**M1_SMALL, **overrides})
    document = metrics_document(result, context=context)
    return json.dumps(document, indent=2, sort_keys=True), result


@pytest.mark.parametrize("sketch", [False, True], ids=["records", "sketch"])
def test_m1_stream_equals_materialized(sketch):
    """Lazy feeding and a pre-built schedule emit byte-identical documents."""
    streamed, _ = _m1_document(stream=True, sketch=sketch)
    materialized, _ = _m1_document(stream=False, sketch=sketch)
    assert streamed == materialized


def test_m1_jobs_flag_is_inert():
    """One soak is one simulation: ``--jobs`` must not change a byte."""
    one, _ = _m1_document(sketch=True, jobs=1)
    two, _ = _m1_document(sketch=True, jobs=2)
    assert one == two


def test_m1_sketch_mode_preserves_outcome_counters():
    """Delivery/drop accounting is registry-driven: sketch on/off agree."""
    _, with_sketch = _m1_document(sketch=True)
    _, without = _m1_document(sketch=False)
    for key in ("offered", "delivered", "dropped", "cache_hit_rate",
                "redirects", "unaccounted_packets", "invariant_violations"):
        assert with_sketch.notes[key] == without.notes[key], key
    assert with_sketch.notes["offered"] > 0
    assert with_sketch.notes["unaccounted_packets"] == 0


def test_m1_sketch_agrees_with_exact_records_within_bound():
    """Validation scale: sketches vs the per-packet ground truth they replace."""
    _, exact_run = _m1_document(sketch=False)
    _, sketch_run = _m1_document(sketch=True)
    observer = sketch_run.notes["_observer"]
    records = exact_run.notes["_network"].delivered()
    delays = sorted(r.finished_at - r.created_at for r in records)
    sketch = observer.delay_sketch

    assert observer.delivered == len(delays) == exact_run.notes["delivered"]
    # Rank queries: sketch vs exact oracle, within the tracked bound.
    bound = sketch.rank_error_bound()
    assert bound < len(delays) * 0.05, "bound should be tight at this scale"
    for x in delays[:: max(1, len(delays) // 50)]:
        exact_rank = sum(1 for d in delays if d <= x)
        assert abs(sketch.rank(x) - exact_rank) <= bound
    # Quantile estimates land within the quantile rank bound of the
    # target rank (ties widen the exact rank to an interval).
    qbound = sketch.quantile_rank_bound()
    for q in (0.5, 0.9, 0.99):
        estimate = sketch.quantile(q)
        less = sum(1 for d in delays if d < estimate)
        less_equal = sum(1 for d in delays if d <= estimate)
        target = q * len(delays)
        assert less - qbound <= target <= less_equal + qbound
    assert sketch.quantile(0.0) == delays[0]
    assert sketch.quantile(1.0) == delays[-1]

    # Hop histogram is exact (fixed-width bins, no approximation).
    true_hops = TallyCounter(r.hops for r in records)
    exported = observer.hop_histogram.export()["buckets"]
    assert {int(k): v for k, v in exported.items()} == dict(true_hops)

    # Space-Saving guarantee against the true offered-destination counts.
    spec = StreamSpec(
        hosts=M1_SMALL["hosts"], edge_switches=M1_SMALL["edge_switches"],
        epochs=M1_SMALL["epochs"], burst_size=M1_SMALL["burst_size"],
        rules_per_switch=M1_SMALL["rules_per_switch"],
    )
    offered = TallyCounter(
        str(packet.flow_id)
        for _, _, packets in stream_bursts(spec, LAYOUT) for packet in packets
    )
    top = observer.hot_destinations
    assert top.total == sum(offered.values())
    threshold = top.guarantee_threshold()
    for key, count in offered.items():
        if count > threshold:
            assert key in top
    for key, count, _error in top.entries():
        assert count >= offered[key]


def test_m1_document_contains_sketch_sections_and_telemetry():
    text, result = _m1_document(sketch=True)
    document = json.loads(text)
    metrics = document["metrics"]
    assert "stream_delivery_delay_seconds" in metrics["sketches"]
    assert "stream_hot_destinations" in metrics["top_k"]
    assert "stream_delivery_hops" in metrics["fixed_histograms"]
    export = metrics["sketches"]["stream_delivery_delay_seconds"]
    assert export["count"] == result.notes["delivered"]
    assert export["rank_error_bound"] >= 0
    assert set(export["quantiles"]) == {"0", "0.5", "0.9", "0.99", "0.999", "1"}
    # The sketch probe levels made it into the telemetry windows.
    sampled = {
        name
        for window in document["telemetry"]["windows"]
        for name in window.get("samples", {})
    }
    assert "stream_delivered_packets" in sampled
    assert "stream_sketch_error_weight" in sampled
    # Debug handles must never leak into the serialized document.
    assert "_network" not in json.dumps(document)
