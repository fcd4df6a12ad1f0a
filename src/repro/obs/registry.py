"""The metrics registry: counters and histograms with labels.

DIFANE's evaluation is counters all the way down — throughput, miss
rate, redirect load, failover dips.  Before this layer every component
kept private integers (switch hit counts, pipeline stats, channel ARQ
counters, chaos drop attribution) and every experiment scraped them by
hand.  The registry is the one place those surfaces report into, and
its :meth:`MetricsRegistry.snapshot` is the canonical machine-readable
result of a run — the golden-regression tests diff exactly that.

Design constraints:

* **cheap** — a component keeps each per-packet statistic as a plain
  integer attribute that the registry reads only when it is read
  (:meth:`MetricsRegistry.collect`); counters with no attribute twin
  bind a :class:`Counter` child once and ``inc()`` it;
* **no-op when disabled** — a disabled registry registers no collector
  and hands out a shared null metric whose operations do nothing, so
  benchmarks can price the observer itself (see ``bench_perf_core``);
* **mergeable** — :meth:`merged` combines registries associatively and
  commutatively (counters add, histograms add bucket-wise), so
  multi-network experiments can fold their runs together (a pickled
  registry ships numbers, not the objects that counted them).  The
  hypothesis suite pins those algebraic properties.
"""

from __future__ import annotations

import bisect
import json
import weakref
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.sketch import (
    FixedWidthHistogram,
    QuantileSketch,
    SpaceSavingSketch,
)

__all__ = [
    "Collectable",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "DEFAULT_TIME_BUCKETS",
]

#: Exponential wall-time buckets (seconds): 1 µs … ~8 s.
DEFAULT_TIME_BUCKETS = tuple(1e-6 * (2 ** i) for i in range(24))


class _NullMetric:
    """Shared do-nothing metric handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_repeated(self, value: float, count: int) -> None:
        pass

    def offer(self, key, count: int = 1) -> None:
        pass


NULL_METRIC = _NullMetric()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self, value: float = 0):
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def export(self):
        return self.value

    def fresh(self) -> "Counter":
        return Counter()

    def merge_from(self, other: "Counter") -> None:
        self.value += other.value


class Collectable:
    """Base of an object whose attributes a registry collects: it is held
    weakly, and its finalizer leaves each one's last value behind."""

    def __del__(self):
        for reader in self.__dict__.get("_metric_readers", ()):
            reader.final = reader.read(self)


class _Reader:
    """One owner's collected attribute: read live, or its last value
    (``final`` is unset until the owner's finalizer sets it)."""

    __slots__ = ("owner", "read", "final")

    def __init__(self, owner: Collectable, attribute: str):
        self.owner = weakref.ref(owner)
        self.read = attrgetter(attribute)


class _Collected:
    """A counter whose value is ``base`` (what merges add) plus one reader
    per owner: every network of a run counting under a key sums in."""

    __slots__ = ("base", "readers")
    kind = "counter"

    def __init__(self, base: float = 0):
        self.base = base
        self.readers: List[_Reader] = []

    @property
    def value(self) -> float:
        total = self.base
        for reader in self.readers:
            owner = reader.owner()
            total += reader.final if owner is None else reader.read(owner)
        return total

    def export(self):
        return self.value

    def fresh(self) -> Counter:
        return Counter()

    def merge_from(self, other) -> None:
        self.base += other.value

    def __reduce__(self):
        return (Counter, (self.value,))  # the value travels, not its owners


class Histogram:
    """A fixed-bucket histogram with exact min/max/sum/count.

    Quantile estimates interpolate within the winning bucket and are
    clamped to the observed ``[min, max]`` — so any quantile of a
    non-empty histogram is bounded by its samples (a property the
    hypothesis suite pins).
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS):
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile, clamped to the observed range."""
        if self.count == 0:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        # The extreme quantiles are tracked exactly; bucket edges would
        # only blur them.
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        rank = q * (self.count - 1)
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            cumulative += bucket_count
            if cumulative > rank:
                lower = self.bounds[index - 1] if index > 0 else self.min
                upper = (
                    self.bounds[index] if index < len(self.bounds) else self.max
                )
                estimate = upper if upper is not None else lower
                break
        else:  # pragma: no cover - cumulative always reaches count
            estimate = self.max
        return min(max(estimate, self.min), self.max)

    def export(self):
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                ("+inf" if index == len(self.bounds) else repr(self.bounds[index])): c
                for index, c in enumerate(self.bucket_counts)
                if c
            },
        }

    def fresh(self) -> "Histogram":
        return Histogram(self.bounds)

    def merge_from(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket_count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)


_LabelKey = Tuple[Tuple[str, str], ...]

#: Snapshot section per metric kind.  The three classic sections are
#: always present (their shape is pinned by every existing golden;
#: ``gauges`` stays empty, levels are telemetry probe samples); the
#: sketch sections appear only when such metrics exist, so documents
#: from sketch-free runs are byte-identical to before.
_KIND_SECTIONS = {
    "counter": "counters",
    "histogram": "histograms",
    "fixedhist": "fixed_histograms",
    "sketch": "sketches",
    "topk": "top_k",
}
_ALWAYS_SECTIONS = ("counters", "gauges", "histograms")


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_key(name: str, label_key: _LabelKey) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """One run's metric namespace.

    ``counter``/``histogram`` return the live child bound to the given
    labels — hold on to it and mutate it directly (the hot path never
    re-resolves names); :meth:`collect` instead reads a counter from its
    owner.  A disabled registry returns :data:`NULL_METRIC` from every
    accessor, collects nothing and snapshots to emptiness.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, str, _LabelKey], object] = {}

    # -- accessors ------------------------------------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", Counter, name, labels)

    def collect(self, name: str, owner: Collectable, attribute: str, **labels) -> None:
        """Report counter ``name`` as ``owner``'s integer ``attribute`` (a
        dotted path is fine), read whenever the registry is read; a pushed
        value already under the key (a sweep worker's) becomes its base."""
        if not self.enabled:
            return
        key = ("counter", name, _label_key(labels))
        metric = self._metrics.get(key)
        if not isinstance(metric, _Collected):
            metric = _Collected(0 if metric is None else metric.value)
            self._metrics[key] = metric
        reader = _Reader(owner, attribute)
        live = [reader]
        for other in metric.readers:  # dead owners' last values join the base
            if other.owner() is None:
                metric.base += other.final
            else:
                live.append(other)
        metric.readers = live
        owner.__dict__.setdefault("_metric_readers", []).append(reader)

    def histogram(
        self, name: str, bounds: Tuple[float, ...] = DEFAULT_TIME_BUCKETS, **labels
    ) -> Histogram:
        return self._get("histogram", lambda: Histogram(bounds), name, labels)

    def quantile_sketch(self, name: str, k: int = 256, **labels) -> QuantileSketch:
        """A memory-bounded mergeable quantile sketch (see :mod:`.sketch`)."""
        return self._get("sketch", lambda: QuantileSketch(k), name, labels)

    def top_k(self, name: str, k: int = 32, **labels) -> SpaceSavingSketch:
        """A Space-Saving heavy-hitter summary keeping ``k`` keys."""
        return self._get("topk", lambda: SpaceSavingSketch(k), name, labels)

    def fixed_histogram(
        self, name: str, width: float, lo: float = 0.0, bins: int = 64, **labels
    ) -> FixedWidthHistogram:
        """An exact fixed-width counting histogram with overflow bucket."""
        return self._get(
            "fixedhist", lambda: FixedWidthHistogram(width, lo, bins), name, labels
        )

    def _get(self, kind, factory, name, labels):
        if not self.enabled:
            return NULL_METRIC
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        return metric

    def value(self, name: str, **labels):
        """The exported value of one metric, or ``None`` when absent."""
        for kind in _KIND_SECTIONS:
            metric = self._metrics.get((kind, name, _label_key(labels)))
            if metric is not None:
                return metric.export()
        return None

    def sum_counters(self, name: str) -> float:
        """Sum of every label child of counter ``name``."""
        return sum(
            metric.value
            for (kind, metric_name, _), metric in self._metrics.items()
            if kind == "counter" and metric_name == name
        )

    def counter_items(self) -> Iterable[Tuple[str, str, float]]:
        """Every counter as ``(name, rendered_key, value)``.

        The telemetry recorder walks this between windows to compute
        per-window deltas; iteration order is insertion order, which the
        recorder re-sorts at export time.
        """
        for (kind, name, label_key), metric in self._metrics.items():
            if kind == "counter":
                yield name, _render_key(name, label_key), metric.value

    # -- export ---------------------------------------------------------------
    def snapshot(self, exclude_prefixes: Iterable[str] = ()) -> Dict[str, Dict[str, object]]:
        """A deterministic, JSON-safe dump of every metric.

        ``exclude_prefixes`` filters metric *names* (golden tests strip
        wall-clock ``profile_`` histograms, which are not reproducible).
        """
        exclude = tuple(exclude_prefixes)
        out: Dict[str, Dict[str, object]] = {
            section: {} for section in _ALWAYS_SECTIONS
        }
        for (kind, name, label_key), metric in self._metrics.items():
            if exclude and name.startswith(exclude):
                continue
            section = _KIND_SECTIONS[kind]
            out.setdefault(section, {})[_render_key(name, label_key)] = metric.export()
        return {section: dict(sorted(out[section].items())) for section in sorted(out)}

    def write_json(self, path, **extra) -> None:
        """Persist :meth:`snapshot` (plus ``extra`` top-level keys)."""
        document = dict(extra)
        document["metrics"] = self.snapshot()
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # -- merging --------------------------------------------------------------
    def merge_from(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s metrics into this registry (in place)."""
        for key, metric in other._metrics.items():
            mine = self._metrics.get(key)
            if mine is None:
                # fresh() preserves per-instance shape (histogram bounds,
                # sketch k) that a bare type(metric)() would lose.
                mine = metric.fresh()
                self._metrics[key] = mine
            mine.merge_from(metric)
        return self

    @classmethod
    def merged(cls, *registries: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry holding the fold of ``registries``."""
        result = cls()
        for registry in registries:
            result.merge_from(registry)
        return result

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state} {len(self._metrics)} metrics>"
