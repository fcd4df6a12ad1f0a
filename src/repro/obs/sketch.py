"""Memory-bounded sketches: quantiles, fixed-width counts, heavy hitters.

A million-host soak cannot afford one :class:`DeliveryRecord` per packet
— the observability layer itself would be the memory bottleneck the
streaming workload generators exist to remove.  This module provides the
bounded substitutes, each deterministic and mergeable so the registry's
merge algebra (and therefore ``--jobs N`` byte-identity) carries over:

* :class:`QuantileSketch` — a KLL/MRL-style compactor hierarchy with a
  **tracked, provable rank-error bound**.  Compaction is deterministic
  (sorted buffer, alternating keep-parity, no RNG), so equal inputs give
  bit-equal sketches; the classical randomized-KLL guarantee is traded
  for the MRL-style deterministic one, which is what golden tests need.
* :class:`FixedWidthHistogram` — exact fixed-width counting bins with an
  overflow bucket; merge equals concatenation exactly.
* :class:`SpaceSavingSketch` — Space-Saving top-k heavy hitters with an
  explicit ``guarantee_threshold()``: every key whose true count exceeds
  it is certainly present in the summary, streaming or merged.

Why the quantile bound is sound: one compaction at level ``l`` sorts a
buffer of items of weight ``w = 2**l``, keeps every other item at weight
``2w`` and discards the rest.  For any fixed threshold ``x`` with ``j``
buffer items ``<= x``, the kept weighted count is ``2w*floor(j/2)`` or
``2w*ceil(j/2)`` (depending on the keep parity), both within ``w`` of
the true ``j*w`` — so one compaction shifts any rank query by at most
``w``, and the total error is bounded by the sum of the weights of the
compactions actually performed.  :attr:`QuantileSketch.error_weight`
tracks exactly that sum (merging adds the operands' budgets), and the
hypothesis suite checks every rank query against an exact oracle.

A soak that passes ``sketch=True`` (M1, the default) hands its delivery
outcomes to a :class:`DeliverySketchObserver` instead of accumulating
per-packet records; :class:`DeliveryReader` is the reader that keeps
nothing, and the base such readers subclass.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Optional, Tuple

__all__ = [
    "QuantileSketch",
    "FixedWidthHistogram",
    "SpaceSavingSketch",
    "DeliveryReader",
    "DeliverySketchObserver",
    "EXPORT_QUANTILES",
]

#: Quantiles pinned in every :meth:`QuantileSketch.export` (golden surface).
EXPORT_QUANTILES: Tuple[float, ...] = (0.0, 0.5, 0.9, 0.99, 0.999, 1.0)


class QuantileSketch:
    """Deterministic KLL-style quantile sketch with a tracked error bound.

    ``k`` is the per-level buffer capacity; retained items are bounded by
    ``k * levels ≈ k * log2(count / k)`` whatever the stream length.  All
    state updates are deterministic, so the sketch is safe for golden
    tests, and :meth:`merge_from` is exact about its error accounting:
    ``merge(a, b)`` answers any rank query within
    ``a.error_weight + b.error_weight`` plus whatever compactions the
    merge itself performs — all folded into the merged ``error_weight``.
    """

    __slots__ = ("k", "count", "error_weight", "min", "max", "_levels", "_parity")
    kind = "sketch"

    def __init__(self, k: int = 256):
        if k < 8 or k % 2:
            raise ValueError(f"k must be an even integer >= 8, got {k}")
        self.k = k
        #: Total weight (= number of observations) summarized.
        self.count = 0
        #: Proven bound on ``|rank(x) - true_rank(x)|`` for every x: the
        #: sum of the item weights of all compactions performed so far.
        self.error_weight = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: ``_levels[l]`` holds items of weight ``2**l``.
        self._levels: List[List[float]] = [[]]
        #: Alternating keep-parity per level (the determinism device).
        self._parity: List[int] = [0]

    # -- ingest ------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.count += 1
        level0 = self._levels[0]
        level0.append(value)
        if len(level0) >= self.k:
            self._compress()

    def observe_repeated(self, value: float, count: int) -> None:
        """Ingest ``count`` copies of ``value``.

        Bit-identical to calling :meth:`observe` ``count`` times (same
        compaction points), so a caller may collapse a run of equal
        values into one call without changing the sketch.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        value = float(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.count += count
        remaining = count
        while remaining:
            level0 = self._levels[0]
            room = self.k - len(level0)
            if room <= 0:
                self._compress()
                continue
            take = room if remaining > room else remaining
            level0.extend([value] * take)
            remaining -= take
        if len(self._levels[0]) >= self.k:
            self._compress()

    def _compress(self) -> None:
        """Compact every at-capacity level, lowest first (may cascade)."""
        levels = self._levels
        level = 0
        while level < len(levels):
            buffer = levels[level]
            if len(buffer) < self.k:
                level += 1
                continue
            buffer.sort()
            # An odd buffer keeps its largest item uncompacted at this
            # level (exact, no error contribution) so pairs stay whole.
            leftover = [buffer.pop()] if len(buffer) % 2 else []
            parity = self._parity[level]
            self._parity[level] ^= 1
            survivors = buffer[parity::2]
            levels[level] = leftover
            if level + 1 == len(levels):
                levels.append([])
                self._parity.append(0)
            levels[level + 1].extend(survivors)
            self.error_weight += 1 << level
            level += 1

    # -- queries -----------------------------------------------------------
    def rank(self, value: float) -> int:
        """Estimated weight of observations ``<= value``.

        Within :meth:`rank_error_bound` of the true count, for every
        ``value`` — the invariant the hypothesis oracle test pins.
        """
        total = 0
        for level, buffer in enumerate(self._levels):
            weight = 1 << level
            total += weight * sum(1 for item in buffer if item <= value)
        return total

    def rank_error_bound(self) -> int:
        """Proven absolute rank-error bound (in observation weight)."""
        return self.error_weight

    def relative_error_bound(self) -> float:
        """:meth:`rank_error_bound` as a fraction of the stream length."""
        return self.error_weight / self.count if self.count else 0.0

    def quantile_rank_bound(self) -> int:
        """Bound on ``|true_rank(quantile(q)) - q*count|`` for any q.

        The rank bound plus one item granularity at the heaviest level
        (the returned item's cumulative weight overshoots the target by
        at most its own weight).
        """
        return self.error_weight + (1 << (len(self._levels) - 1))

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile, clamped to the exact ``[min, max]``."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        weighted = sorted(
            (item, 1 << level)
            for level, buffer in enumerate(self._levels)
            for item in buffer
        )
        target = q * self.count
        cumulative = 0
        for item, weight in weighted:
            cumulative += weight
            if cumulative >= target:
                return min(max(item, self.min), self.max)
        return self.max

    def retained(self) -> int:
        """Items currently held across all levels (the memory footprint)."""
        return sum(len(buffer) for buffer in self._levels)

    # -- registry protocol -------------------------------------------------
    def export(self):
        return {
            "count": self.count,
            "k": self.k,
            "levels": len(self._levels),
            "retained": self.retained(),
            "rank_error_bound": self.error_weight,
            "min": self.min,
            "max": self.max,
            "quantiles": {f"{q:g}": self.quantile(q) for q in EXPORT_QUANTILES},
        }

    def fresh(self) -> "QuantileSketch":
        return QuantileSketch(self.k)

    def merge_from(self, other: "QuantileSketch") -> None:
        if other.k != self.k:
            raise ValueError("cannot merge quantile sketches with different k")
        self.count += other.count
        self.error_weight += other.error_weight
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        while len(self._levels) < len(other._levels):
            self._levels.append([])
            self._parity.append(0)
        for level, buffer in enumerate(other._levels):
            self._levels[level].extend(buffer)
        self._compress()

    def __repr__(self) -> str:
        return (
            f"<QuantileSketch k={self.k} count={self.count} "
            f"retained={self.retained()} err<={self.error_weight}>"
        )


class FixedWidthHistogram:
    """Exact fixed-width counting bins with an overflow bucket.

    Unlike :class:`~repro.obs.registry.Histogram` (whose exponential
    bounds suit latencies), this counts small integers/levels — hop
    counts, queue depths — in ``bins`` buckets of ``width`` starting at
    ``lo``; everything at or past the top lands in the overflow bucket.
    Values below ``lo`` clamp into bucket 0.  Merge is exact (bucket-wise
    addition), so it cannot perturb ``--jobs N`` determinism.
    """

    __slots__ = ("lo", "width", "bucket_counts", "count", "total", "min", "max")
    kind = "fixedhist"

    def __init__(self, width: float, lo: float = 0.0, bins: int = 64):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.lo = float(lo)
        self.width = float(width)
        self.bucket_counts = [0] * (bins + 1)  # last = overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    @property
    def bins(self) -> int:
        return len(self.bucket_counts) - 1

    def _index(self, value: float) -> int:
        if value < self.lo:
            return 0
        index = int((value - self.lo) / self.width)
        return index if index < self.bins else self.bins

    def observe(self, value: float) -> None:
        self.observe_repeated(value, 1)

    def observe_repeated(self, value: float, count: int) -> None:
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        value = float(value)
        self.bucket_counts[self._index(value)] += count
        self.count += count
        self.total += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def export(self):
        return {
            "lo": self.lo,
            "width": self.width,
            "bins": self.bins,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                ("+inf" if index == self.bins else str(index)): bucket_count
                for index, bucket_count in enumerate(self.bucket_counts)
                if bucket_count
            },
        }

    def fresh(self) -> "FixedWidthHistogram":
        return FixedWidthHistogram(self.width, self.lo, self.bins)

    def merge_from(self, other: "FixedWidthHistogram") -> None:
        if (other.lo, other.width, other.bins) != (self.lo, self.width, self.bins):
            raise ValueError("cannot merge fixed-width histograms with different shape")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)


class SpaceSavingSketch:
    """Space-Saving top-k heavy hitters with an explicit guarantee.

    Summary entries are ``key -> (count, error)`` where ``count`` is an
    *overestimate* of the key's true count and ``error`` bounds the
    overshoot.  The containment contract, streaming and merged: every key
    whose true count exceeds :meth:`guarantee_threshold` is present.

    The threshold is maintained as a single scalar invariant — an upper
    bound on the true count of **any absent key** — updated on eviction
    (the victim's overestimate covers it), and on merge (keys absent from
    both sides are bounded by the sum of the operands' thresholds; keys
    truncated away by the top-k cut are covered by their merged
    overestimate).  Tie-breaks (eviction victim, top-k cut) order by
    ``(count, key)``, so the summary is deterministic.

    The eviction victim comes from a lazy-stale min-heap holding exactly
    one ``(count, key)`` record per entry.  Counts only grow, so a record
    is never above its entry's live ``(count, key)``: a popped record
    that still equals the live pair is the true minimum, and a stale one
    is requeued at the live count.  Eviction is O(log k) amortised where
    the scan it replaces was O(k); victim and summary are identical.
    """

    __slots__ = ("k", "total", "_entries", "_absent_bound", "_heap")
    kind = "topk"

    def __init__(self, k: int = 32):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        #: Total offered weight (sum of all offer counts).
        self.total = 0
        self._entries: Dict[str, List[int]] = {}
        self._absent_bound = 0
        self._heap: List[Tuple[int, str]] = []

    def offer(self, key, count: int = 1) -> None:
        """Count ``count`` occurrences of ``key`` (keys coerce to str)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return
        key = str(key)
        self.total += count
        entry = self._entries.get(key)
        if entry is not None:
            entry[0] += count
            return
        entries, heap = self._entries, self._heap
        if len(entries) >= self.k:
            while True:
                victim_count, victim_key = heap[0]
                live_count = entries[victim_key][0]
                if live_count == victim_count:
                    break
                heapq.heapreplace(heap, (live_count, victim_key))
            heapq.heappop(heap)
            del entries[victim_key]
            if victim_count > self._absent_bound:
                self._absent_bound = victim_count
        floor = self._absent_bound
        entries[key] = [floor + count, floor]
        heapq.heappush(heap, (floor + count, key))

    def guarantee_threshold(self) -> int:
        """Any key with true count above this is certainly in the summary."""
        return self._absent_bound

    def __contains__(self, key) -> bool:
        return str(key) in self._entries

    def entries(self) -> List[Tuple[str, int, int]]:
        """``(key, count, error)`` triples, heaviest first (deterministic)."""
        ranked = sorted(
            self._entries.items(), key=lambda item: (-item[1][0], item[0])
        )
        return [(key, count, error) for key, (count, error) in ranked]

    # -- registry protocol -------------------------------------------------
    def export(self):
        return {
            "k": self.k,
            "total": self.total,
            "guarantee_threshold": self._absent_bound,
            "entries": [
                {"key": key, "count": count, "error": error}
                for key, count, error in self.entries()
            ],
        }

    def fresh(self) -> "SpaceSavingSketch":
        return SpaceSavingSketch(self.k)

    def merge_from(self, other: "SpaceSavingSketch") -> None:
        if other.k != self.k:
            raise ValueError("cannot merge top-k sketches with different k")
        mine_bound, other_bound = self._absent_bound, other._absent_bound
        merged: Dict[str, List[int]] = {}
        for key, (count, error) in self._entries.items():
            theirs = other._entries.get(key)
            if theirs is None:
                # The key may have up to other_bound uncounted weight on
                # the other side; keep the overestimate an overestimate.
                merged[key] = [count + other_bound, error + other_bound]
            else:
                merged[key] = [count + theirs[0], error + theirs[1]]
        for key, (count, error) in other._entries.items():
            if key not in merged:
                merged[key] = [count + mine_bound, error + mine_bound]
        self.total += other.total
        bound = mine_bound + other_bound
        if len(merged) > self.k:
            ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
            for key, (count, _error) in ranked[self.k:]:
                if count > bound:
                    bound = count
            merged = dict(ranked[: self.k])
        self._entries = merged
        self._absent_bound = bound
        self._heap = [(entry[0], key) for key, entry in merged.items()]
        heapq.heapify(self._heap)

    def __repr__(self) -> str:
        return (
            f"<SpaceSavingSketch k={self.k} total={self.total} "
            f"threshold={self._absent_bound}>"
        )


class DeliveryReader:
    """An outcome reader for :meth:`SimNetwork.read_outcomes_with
    <repro.net.simnet.SimNetwork.read_outcomes_with>`, and the one that
    keeps nothing — for runs whose results come from counters and
    telemetry alone (E9Q).  Readers that keep something subclass it.
    """

    __slots__ = ()

    def observe_delivery(self, packet, endpoint: str, now: float) -> None:
        """``packet`` was delivered at ``endpoint`` at time ``now``."""

    def observe_drop(self, packet, where: str, reason: str, now: float) -> None:
        """``packet`` was dropped at ``where`` for ``reason`` at time ``now``."""


class DeliverySketchObserver(DeliveryReader):
    """Bounded-memory outcome reader for a soak.

    Replaces the per-packet :class:`DeliveryRecord` rows a soak would
    otherwise retain: every outcome feeds registry-owned sketches (delay
    quantiles, hop histogram) and exact outcome counters.

    Heavy-hitter tracking counts *offered* destinations (the workload's
    skew, which exists whether or not packets survive): experiments call
    :meth:`offer_destinations` with each burst's destination column at
    scheduling time.
    """

    def __init__(
        self,
        registry=None,
        quantile_k: int = 256,
        heavy_hitters_k: int = 32,
        hop_bins: int = 32,
    ):
        if registry is None:
            from repro.obs import context as _obs_context

            registry = _obs_context.current_registry()
        self.delay_sketch = registry.quantile_sketch(
            "stream_delivery_delay_seconds", k=quantile_k
        )
        self.hop_histogram = registry.fixed_histogram(
            "stream_delivery_hops", width=1.0, bins=hop_bins
        )
        self.hot_destinations = registry.top_k(
            "stream_hot_destinations", k=heavy_hitters_k
        )
        self.delivered = 0
        self.dropped = 0

    # -- outcome reader protocol ---------------------------------------------
    def observe_delivery(self, packet, endpoint: str, now: float) -> None:
        """Consume one delivered packet's delay and hop count."""
        self.delivered += 1
        self.delay_sketch.observe(now - (packet.created_at or 0.0))
        self.hop_histogram.observe(packet.hops)

    def observe_drop(self, packet, where: str, reason: str, now: float) -> None:
        """Count one dropped packet."""
        self.dropped += 1

    # -- workload side -------------------------------------------------------
    def offer_destinations(self, destinations) -> None:
        """Count a burst's destination column into the heavy-hitter sketch."""
        counts = Counter(destinations)
        offer = self.hot_destinations.offer
        for value in sorted(counts):
            offer(value, counts[value])

    # -- telemetry ----------------------------------------------------------
    def probe(self) -> Dict[str, float]:
        """Per-window levels for the telemetry recorder.

        Only delivery-driven state appears here (counts, delay tail,
        error budget): identical between lazily-fed and pre-materialized
        schedules, which the streaming-equivalence test pins.
        """
        p99 = self.delay_sketch.quantile(0.99)
        return {
            "stream_delivered_packets": float(self.delivered),
            "stream_dropped_packets": float(self.dropped),
            "stream_delay_p99_seconds": float(p99) if p99 is not None else 0.0,
            "stream_sketch_error_weight": float(self.delay_sketch.error_weight),
        }
