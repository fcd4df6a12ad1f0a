"""Property tests for the memory-bounded sketches (obs/sketch.py).

The sketches replace exact per-packet state in million-host soaks, so
their guarantees are load-bearing: every claim the module docstring
makes — the tracked rank-error bound, merge exactness, Space-Saving
containment — is pinned here against brute-force oracles.
"""

from __future__ import annotations

from collections import Counter as TallyCounter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs.registry import MetricsRegistry, NULL_METRIC
from repro.obs.sketch import (
    EXPORT_QUANTILES,
    FixedWidthHistogram,
    QuantileSketch,
    SpaceSavingSketch,
)

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Dyadic rationals: exact float arithmetic, so oracle sums are exact.
VALUES = st.lists(
    st.integers(0, 4096).map(lambda n: n / 64), min_size=0, max_size=800
)
SMALL_K = st.sampled_from([8, 16, 32, 64])


def exact_rank(values, x) -> int:
    return sum(1 for v in values if v <= x)


# -- QuantileSketch ----------------------------------------------------------


@SETTINGS
@given(values=VALUES, k=SMALL_K)
def test_rank_error_within_tracked_bound(values, k):
    """Every rank query lands within the sketch's own error_weight."""
    sketch = QuantileSketch(k=k)
    for v in values:
        sketch.observe(v)
    assert sketch.count == len(values)
    probes = set(values) | {-1.0, 0.0, 31.5, 1e9}
    for x in probes:
        assert abs(sketch.rank(x) - exact_rank(values, x)) <= sketch.rank_error_bound()


@SETTINGS
@given(values=VALUES, k=SMALL_K)
def test_quantiles_bounded_and_extremes_exact(values, k):
    sketch = QuantileSketch(k=k)
    for v in values:
        sketch.observe(v)
    if not values:
        assert sketch.quantile(0.5) is None
        return
    assert sketch.quantile(0.0) == min(values)
    assert sketch.quantile(1.0) == max(values)
    bound = sketch.quantile_rank_bound()
    for q in EXPORT_QUANTILES:
        estimate = sketch.quantile(q)
        assert min(values) <= estimate <= max(values)
        if 0.0 < q < 1.0:
            # With ties, "the rank of the estimate" is the interval
            # [#(< estimate), #(<= estimate)]; widened by the bound it
            # must contain the target rank q*count.
            less = sum(1 for v in values if v < estimate)
            target = q * len(values)
            assert less - bound <= target <= exact_rank(values, estimate) + bound


@SETTINGS
@given(values=VALUES, k=SMALL_K, cut=st.floats(0.0, 1.0))
def test_merge_answers_for_the_concatenated_stream(values, k, cut):
    """merge(a, b) answers rank queries on a ++ b within the merged bound."""
    split = int(len(values) * cut)
    a, b = QuantileSketch(k=k), QuantileSketch(k=k)
    for v in values[:split]:
        a.observe(v)
    for v in values[split:]:
        b.observe(v)
    a.merge_from(b)
    assert a.count == len(values)
    for x in set(values) | {0.0}:
        assert abs(a.rank(x) - exact_rank(values, x)) <= a.rank_error_bound()


@SETTINGS
@given(values=VALUES, k=SMALL_K, shards=st.integers(1, 5))
def test_sharded_merge_is_shard_count_invariant_in_bound(values, k, shards):
    """However the stream is sharded, the merged bound stays honest."""
    parts = [QuantileSketch(k=k) for _ in range(shards)]
    for index, v in enumerate(values):
        parts[index % shards].observe(v)
    merged = QuantileSketch(k=k)
    for part in parts:
        merged.merge_from(part)
    assert merged.count == len(values)
    for x in set(values):
        assert abs(merged.rank(x) - exact_rank(values, x)) <= merged.rank_error_bound()


@SETTINGS
@given(
    value=st.integers(0, 100).map(lambda n: n / 4),
    count=st.integers(0, 3000),
    k=SMALL_K,
)
def test_observe_repeated_is_bit_identical_to_looping(value, count, k):
    looped, batched = QuantileSketch(k=k), QuantileSketch(k=k)
    for _ in range(count):
        looped.observe(value)
    batched.observe_repeated(value, count)
    assert looped._levels == batched._levels
    assert looped._parity == batched._parity
    assert looped.error_weight == batched.error_weight
    assert looped.count == batched.count
    assert (looped.min, looped.max) == (batched.min, batched.max)


def test_quantile_sketch_is_deterministic_and_memory_bounded():
    a, b = QuantileSketch(k=32), QuantileSketch(k=32)
    for i in range(50_000):
        v = (i * 2654435761 % 100_000) / 7.0
        a.observe(v)
        b.observe(v)
    assert a.export() == b.export()
    # k * (levels + 1) is a generous cap; the point is "not O(n)".
    assert a.retained() <= 32 * (len(a._levels) + 1)
    assert a.retained() < 2_000


def test_quantile_sketch_rejects_bad_parameters():
    with pytest.raises(ValueError):
        QuantileSketch(k=7)
    with pytest.raises(ValueError):
        QuantileSketch(k=9)
    sketch = QuantileSketch()
    sketch.observe(1.0)
    with pytest.raises(ValueError):
        sketch.quantile(1.5)
    with pytest.raises(ValueError):
        sketch.observe_repeated(1.0, -1)
    with pytest.raises(ValueError):
        sketch.merge_from(QuantileSketch(k=8))


# -- SpaceSavingSketch -------------------------------------------------------

KEYS = st.lists(st.integers(0, 40), min_size=0, max_size=600)


@SETTINGS
@given(keys=KEYS, k=st.integers(1, 12))
def test_space_saving_contains_everything_above_threshold(keys, k):
    sketch = SpaceSavingSketch(k=k)
    for key in keys:
        sketch.offer(key)
    true = TallyCounter(str(key) for key in keys)
    threshold = sketch.guarantee_threshold()
    for key, count in true.items():
        if count > threshold:
            assert key in sketch
    # Overestimates never underestimate: entry count >= true count, and
    # count - error <= true count.
    for key, count, error in sketch.entries():
        assert count >= true[key]
        assert count - error <= true[key]
    assert sketch.total == len(keys)


@SETTINGS
@given(keys=KEYS, k=st.integers(1, 12), shards=st.integers(1, 4))
def test_space_saving_merge_keeps_the_guarantee(keys, k, shards):
    parts = [SpaceSavingSketch(k=k) for _ in range(shards)]
    for index, key in enumerate(keys):
        parts[index % shards].offer(key)
    merged = SpaceSavingSketch(k=k)
    for part in parts:
        merged.merge_from(part)
    true = TallyCounter(str(key) for key in keys)
    threshold = merged.guarantee_threshold()
    for key, count in true.items():
        if count > threshold:
            assert key in merged
    for key, count, error in merged.entries():
        assert count >= true[key]
    assert merged.total == len(keys)


def test_space_saving_batch_offer_and_determinism():
    a, b = SpaceSavingSketch(k=4), SpaceSavingSketch(k=4)
    for key, count in [("x", 5), ("y", 3), ("z", 2), ("w", 2), ("v", 1)]:
        a.offer(key, count)
        for _ in range(count):
            b.offer(key)
    assert a.entries()[0] == b.entries()[0] == ("x", 5, 0)
    assert a.total == b.total == 13


class ScanSpaceSaving(SpaceSavingSketch):
    """Oracle: the O(k) victim scan the eviction heap replaced."""

    __slots__ = ()

    def offer(self, key, count: int = 1) -> None:
        if count == 0:
            return
        key = str(key)
        self.total += count
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += count
            return
        if len(self._entries) >= self.k:
            victim_key, victim = min(
                self._entries.items(), key=lambda item: (item[1][0], item[0])
            )
            del self._entries[victim_key]
            self._absent_bound = max(self._absent_bound, victim[0])
        floor = self._absent_bound
        self._entries[key] = [floor + count, floor]


# Few keys, small k, two sketches: evictions of entries whose count grew
# since they were queued (the stale-record case) happen in most examples.
SKETCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(0, 1), st.integers(0, 9),
                  st.integers(0, 3)),
        st.tuples(st.just("merge"), st.integers(0, 1), st.integers(0, 1)),
    ),
    min_size=40,  # hypothesis favours short lists; evictions need a full sketch
    max_size=200,
)


@SETTINGS
@given(ops=SKETCH_OPS, k=st.integers(1, 4))
def test_space_saving_heap_eviction_matches_the_scan_oracle(ops, k):
    """Any offer / merge_from interleaving over two sketches: the heap
    picks the scan's victim every time, so every export is identical."""
    heaped = [SpaceSavingSketch(k=k) for _ in range(2)]
    scanned = [ScanSpaceSaving(k=k) for _ in range(2)]
    for op in ops:
        for pool in (heaped, scanned):
            if op[0] == "offer":
                pool[op[1]].offer(op[2], op[3])
            elif op[1] != op[2]:
                pool[op[1]].merge_from(pool[op[2]])
        assert [s.export() for s in heaped] == [s.export() for s in scanned]


# -- FixedWidthHistogram -----------------------------------------------------


@SETTINGS
@given(
    values=st.lists(st.integers(-3, 200), min_size=0, max_size=300),
    cut=st.floats(0.0, 1.0),
)
def test_fixed_histogram_merge_equals_concatenation(values, cut):
    split = int(len(values) * cut)
    a = FixedWidthHistogram(width=4.0, bins=16)
    b = FixedWidthHistogram(width=4.0, bins=16)
    whole = FixedWidthHistogram(width=4.0, bins=16)
    for v in values[:split]:
        a.observe(v)
    for v in values[split:]:
        b.observe(v)
    for v in values:
        whole.observe(v)
    a.merge_from(b)
    assert a.export() == whole.export()


def test_fixed_histogram_buckets_overflow_and_clamp():
    hist = FixedWidthHistogram(width=1.0, lo=0.0, bins=4)
    hist.observe(-5.0)       # clamps into bucket 0
    hist.observe(0.5)
    hist.observe(3.9)
    hist.observe_repeated(100.0, 2)  # overflow bucket
    export = hist.export()
    assert export["buckets"] == {"0": 2, "3": 1, "+inf": 2}
    assert export["count"] == 5
    assert export["min"] == -5.0 and export["max"] == 100.0
    with pytest.raises(ValueError):
        hist.merge_from(FixedWidthHistogram(width=2.0, bins=4))
    with pytest.raises(ValueError):
        FixedWidthHistogram(width=0.0)


# -- registry integration ----------------------------------------------------


def test_registry_sections_appear_only_when_sketches_exist():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    snapshot = registry.snapshot()
    assert sorted(snapshot) == ["counters", "gauges", "histograms"]
    registry.quantile_sketch("delay", k=16).observe(1.0)
    registry.top_k("hot", k=4).offer("a")
    registry.fixed_histogram("hops", width=1.0, bins=8).observe(2)
    snapshot = registry.snapshot()
    assert sorted(snapshot) == [
        "counters", "fixed_histograms", "gauges", "histograms",
        "sketches", "top_k",
    ]
    assert snapshot["sketches"]["delay"]["count"] == 1
    assert snapshot["top_k"]["hot"]["entries"][0]["key"] == "a"
    assert snapshot["fixed_histograms"]["hops"]["count"] == 1


def test_registry_merge_preserves_sketch_shape_and_content():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.quantile_sketch("delay", k=16).observe(1.0)
    b.quantile_sketch("delay", k=16).observe_repeated(2.0, 3)
    b.top_k("hot", k=4).offer("x", 5)
    b.fixed_histogram("hops", width=2.0, bins=4).observe(3.0)
    merged = MetricsRegistry.merged(a, b)
    sketch = merged.value("delay")
    assert sketch["count"] == 4 and sketch["k"] == 16
    assert merged.value("hot")["entries"][0]["count"] == 5
    assert merged.value("hops") == b.value("hops")
    # Merging mismatched k raises (fresh() preserved the shape).
    c = MetricsRegistry()
    c.quantile_sketch("delay", k=32).observe(1.0)
    with pytest.raises(ValueError):
        MetricsRegistry.merged(a, c)


def test_disabled_registry_hands_out_null_sketches():
    registry = MetricsRegistry(enabled=False)
    assert registry.quantile_sketch("d") is NULL_METRIC
    assert registry.top_k("t") is NULL_METRIC
    assert registry.fixed_histogram("f", width=1.0) is NULL_METRIC
    # The null metric accepts the full sketch protocol as no-ops.
    NULL_METRIC.observe_repeated(1.0, 5)
    NULL_METRIC.offer("key", 2)
    assert registry.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
