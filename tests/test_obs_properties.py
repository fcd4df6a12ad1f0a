"""Property tests for the observability layer (hypothesis).

Four families of properties:

* the registry merge is **associative and commutative** — any grouping
  or ordering of per-run registries folds to the same snapshot;
* a counter **collected** from an owner's attribute reads exactly like
  one pushed by the same amounts, sums with every other getter under its
  key, and pickles as a plain number;
* histogram **quantiles are bounded by their samples** for every q;
* trace-event accounting **reconciles exactly** with SimNetwork's
  delivered/dropped/degraded totals under randomized chaos schedules —
  the tracer is an oracle, not an approximation.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import DifaneNetwork
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.net.chaos import ChaosSchedule, ChaosSpec
from repro.net.failures import FailureInjector
from repro.net.topology import TopologyBuilder
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.obs.registry import Collectable, Counter, Histogram, MetricsRegistry
from repro.openflow.channel import ChannelFaultModel
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets

# -- registry merge algebra ------------------------------------------------------

_NAMES = st.sampled_from(["a_total", "b_total", "c_seconds"])
_LABELS = st.sampled_from([{}, {"switch": "s0"}, {"switch": "s1"}])

_COUNTER_OPS = st.lists(
    st.tuples(_NAMES, _LABELS, st.integers(min_value=0, max_value=1000)),
    max_size=20,
)
# Dyadic rationals: float addition over them is exact, so histogram sums
# stay bit-identical under any merge grouping (the property under test is
# the merge algebra, not IEEE rounding).
_HISTO_SAMPLES = st.integers(min_value=0, max_value=640).map(lambda n: n / 64)
_HISTO_OPS = st.lists(st.tuples(_NAMES, _LABELS, _HISTO_SAMPLES), max_size=20)
_REGISTRY_OPS = st.tuples(_COUNTER_OPS, _HISTO_OPS)


class _Owner(Collectable):
    """An object keeping one statistic, as a switch or channel does."""

    def __init__(self):
        self.count = 0


def _build_registry(ops, owners: Optional[list] = None) -> MetricsRegistry:
    """``ops`` applied to a fresh registry.  With ``owners``, each counter
    op is instead one :class:`_Owner`'s attribute, registered and then
    bumped; the owners live as long as that list holds them."""
    counters, histos = ops
    registry = MetricsRegistry()
    for name, labels, amount in counters:
        if owners is None:
            registry.counter(name, **labels).inc(amount)
        else:
            owner = _Owner()
            owners.append(owner)
            registry.collect(name, owner, "count", **labels)
            owner.count += amount
    for name, labels, sample in histos:
        registry.histogram("h_" + name, **labels).observe(sample)
    return registry


@given(ops=st.lists(_REGISTRY_OPS, min_size=3, max_size=3))
def test_merge_is_associative(ops):
    a, b, c = (_build_registry(o) for o in ops)
    left = MetricsRegistry.merged(MetricsRegistry.merged(a, b), c)
    a2, b2, c2 = (_build_registry(o) for o in ops)
    right = MetricsRegistry.merged(a2, MetricsRegistry.merged(b2, c2))
    assert left.snapshot() == right.snapshot()


@given(
    ops=st.lists(_REGISTRY_OPS, min_size=2, max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_merge_is_commutative(ops, order):
    registries = [_build_registry(o) for o in ops]
    baseline = MetricsRegistry.merged(*registries).snapshot()
    shuffled = [_build_registry(o) for o in ops]
    order.shuffle(shuffled)
    assert MetricsRegistry.merged(*shuffled).snapshot() == baseline


# -- collected counters -----------------------------------------------------------

@given(ops=_REGISTRY_OPS, other=_REGISTRY_OPS)
def test_collected_counters_read_like_pushed_ones(ops, other):
    pushed = _build_registry(ops)
    owners: list = []
    collected = _build_registry(ops, owners)

    def assert_reads_alike():
        assert collected.snapshot() == pushed.snapshot()
        assert list(collected.counter_items()) == list(pushed.counter_items())
        for name in ("a_total", "b_total", "c_seconds"):
            assert collected.sum_counters(name) == pushed.sum_counters(name)

    assert_reads_alike()
    # Merging in either direction, from or into collectors, adds alike.
    assert (
        MetricsRegistry.merged(collected, _build_registry(other, [])).snapshot()
        == MetricsRegistry.merged(pushed, _build_registry(other)).snapshot()
    )
    collected.merge_from(_build_registry(other))
    pushed.merge_from(_build_registry(other))
    assert_reads_alike()
    # The registry holds owners weakly: dead ones count at their last value.
    owners.clear()
    assert_reads_alike()


@given(first=st.integers(0, 1000), second=st.integers(0, 1000))
def test_owners_under_one_key_sum_and_are_read_live(first, second):
    registry = MetricsRegistry()
    a, b = _Owner(), _Owner()
    registry.collect("x_total", a, "count", switch="s0")
    registry.collect("x_total", b, "count", switch="s0")
    a.count += first
    assert registry.value("x_total", switch="s0") == first
    b.count += second
    assert registry.value("x_total", switch="s0") == first + second
    assert registry.counter("x_total", switch="s0").value == first + second
    assert len(registry) == 1
    # A dead owner counts at its last value, also once a later
    # registration under its key folds it into the base.
    del a
    assert registry.value("x_total", switch="s0") == first + second
    registry.collect("x_total", _Owner(), "count", switch="s0")
    assert registry.value("x_total", switch="s0") == first + second


@given(ops=_REGISTRY_OPS)
def test_pickling_freezes_collectors_into_counters(ops):
    owners: list = []
    registry = _build_registry(ops, owners)
    data = pickle.dumps(registry)
    assert _Owner.__name__.encode() not in data
    restored = pickle.loads(data)
    assert restored.snapshot() == registry.snapshot()
    assert all(
        type(metric) is Counter
        for (kind, _, _), metric in restored._metrics.items()
        if kind == "counter"
    )


def test_disabled_registry_collects_nothing():
    registry = MetricsRegistry(enabled=False)
    owner = _Owner()
    registry.collect("x_total", owner, "count", switch="s0")
    owner.count += 3
    assert len(registry) == 0
    assert registry.value("x_total", switch="s0") is None
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


# -- histogram quantiles ----------------------------------------------------------

@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_histogram_quantiles_bound_samples(samples, q):
    histogram = Histogram()
    for sample in samples:
        histogram.observe(sample)
    estimate = histogram.quantile(q)
    assert min(samples) <= estimate <= max(samples)
    assert histogram.count == len(samples)
    assert histogram.min == min(samples)
    assert histogram.max == max(samples)


@given(
    pairs=st.lists(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            max_size=30,
        ),
        min_size=2,
        max_size=2,
    )
)
def test_histogram_merge_preserves_totals(pairs):
    merged = Histogram()
    for samples in pairs:
        part = Histogram()
        for sample in samples:
            part.observe(sample)
        merged.merge_from(part)
    everything = [s for samples in pairs for s in samples]
    assert merged.count == len(everything)
    if everything:
        assert merged.min == min(everything)
        assert merged.max == max(everything)


# -- trace accounting under chaos --------------------------------------------------

@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    loss=st.sampled_from([0.0, 0.02, 0.1]),
    channel_drop=st.sampled_from([0.0, 0.1]),
)
def test_trace_accounting_matches_simnet(seed, loss, channel_drop):
    """Every injected packet traces to exactly one terminal event, and the
    tracer's totals equal the network's delivery log, chaos included."""
    previous = obs_context.current()
    try:
        context = fresh_run_context(trace=True)
        # Hosts hang off access switches only, so chaos kills (cores and
        # authorities) never detach a traffic source.
        topo = TopologyBuilder.three_tier_campus(
            core_count=2, distribution_count=2,
            access_per_distribution=2, hosts_per_access=1,
        )
        if loss > 0:
            graph = topo.graph
            for a, b, data in graph.edges(data=True):
                roles = (graph.nodes[a].get("role"), graph.nodes[b].get("role"))
                if roles == ("switch", "switch"):
                    data["spec"] = dataclasses.replace(
                        data["spec"], loss_probability=loss
                    )
        rules, host_ips = routing_policy_for_topology(
            topo, FIVE_TUPLE_LAYOUT, seed=seed
        )
        authorities = ["dist0", "dist1"]
        dn = DifaneNetwork.build(
            topo,
            rules,
            FIVE_TUPLE_LAYOUT,
            authority_switches=authorities,
            replication=2,
            cache_capacity=64,
            loss_seed=seed,
        )
        fault_model = ChannelFaultModel(drop_probability=channel_drop, seed=seed)
        dn.controller.connect_control_plane(
            latency_s=1e-3,
            fault_model=fault_model,
            heartbeat_interval_s=0.02,
            miss_threshold=2,
        )
        injector = FailureInjector(dn.network)
        spec = ChaosSpec(seed=seed, duration_s=0.2)
        ChaosSchedule.randomized(
            dn.network,
            injector,
            spec,
            kill_candidates=["core0", "core1"],
            authority_candidates=authorities,
            fault_model=fault_model,
        )
        count = 60
        for timed in host_pair_packets(
            topo, host_ips, FIVE_TUPLE_LAYOUT,
            count=count, rate=1000.0, seed=seed,
        ):
            dn.send_at(timed.time, timed.source_host, timed.packet)
        dn.run(until=0.8)

        network = dn.network
        accounting = context.tracer.accounting()
        assert accounting["truncated"] == 0
        assert accounting["ingress"] == count
        assert accounting["delivered"] == len(network.delivered())
        assert accounting["dropped"] == len(network.dropped())
        assert accounting["degraded"] == sum(
            s.degraded_packets for s in dn.switches()
        )
        # Zero unaccounted packets: everything injected terminated.
        assert accounting["delivered"] + accounting["dropped"] == count
        # The registry mirrors the same totals.
        metrics = context.metrics
        assert metrics.value("packets_injected_total") == count
        assert metrics.value("packets_delivered_total") == len(network.delivered())
        assert metrics.sum_counters("packets_dropped_total") == len(network.dropped())
        # Exactly one terminal event per packet.
        for packet_id, events in context.tracer.terminal_events_by_packet().items():
            assert len(events) == 1, f"packet {packet_id} terminated twice"
    finally:
        obs_context.install(previous)
