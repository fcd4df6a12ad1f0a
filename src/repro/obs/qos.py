"""Per-class QoS: flow classification, SLO specs and protection knobs.

DIFANE's aggregate counters cannot say whether *high-priority* flows
keep their redirect-latency and cache-residency guarantees when a flash
crowd evicts their rules.  This module supplies the vocabulary the rest
of the stack threads through:

* :class:`FlowClass` — a named wildcard region of flow space with its
  protection knobs (COST score weight, reserved cache entries, admission
  protection);
* :class:`FlowClassifier` — first-match-wins packet → class mapping with
  a default class fallback, memoized per packed header;
* :class:`SloSpec` — the per-class service-level objective (redirect
  latency quantile, cache miss rate, delivery rate) evaluated over
  telemetry windows by :mod:`repro.obs.health`;
* :class:`QosPolicy` — the bundle a network is built with
  (``DifaneNetwork.build(..., qos=policy)`` hands it to every switch);
* :class:`QosOutcomeReader` — the outcome reader that counts each
  delivery and drop per class (installed with
  ``SimNetwork.read_outcomes_with``).

Everything downstream is gated on being handed a policy: with QoS off
(the default) no ``qos_*`` counter is ever bound, no label is rendered,
and every pre-existing golden document stays byte-identical — the same
additive discipline as the COST-gated telemetry probe keys.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flowspace.rule import Match

__all__ = [
    "DEFAULT_CLASS",
    "FlowClass",
    "FlowClassifier",
    "SloSpec",
    "QosPolicy",
    "QosOutcomeReader",
    "REDIRECT_LATENCY_BUCKETS",
    "BUCKET_LABELS",
    "BUCKET_BOUNDS",
    "delay_bucket",
    "bucket_quantile",
]

#: Name of the fallback class for packets no configured class matches.
DEFAULT_CLASS = "best-effort"

#: Upper bounds (seconds) of the per-class redirect-latency histogram
#: counters (``qos_redirect_delay_bucket_total{flow_class=...,le=...}``).
#: Chosen around the simulated fabric's delay scale: 20 µs/hop links, a
#: handful of hops per redirect, plus authority-queue wait under load.
#: Fixed constants — the bucket layout is part of the golden surface.
REDIRECT_LATENCY_BUCKETS = (
    100e-6, 150e-6, 200e-6, 300e-6, 500e-6, 1e-3, 2e-3, 5e-3,
)

#: Bucket labels in ascending bound order, ``+Inf`` last.
BUCKET_LABELS = tuple(
    f"{bound:g}" for bound in REDIRECT_LATENCY_BUCKETS
) + ("+Inf",)

#: Numeric upper bound per label position (``inf`` for the last).
BUCKET_BOUNDS = REDIRECT_LATENCY_BUCKETS + (math.inf,)


def delay_bucket(delay_s: float) -> str:
    """The label of the first bucket whose upper bound covers ``delay_s``."""
    for bound, label in zip(REDIRECT_LATENCY_BUCKETS, BUCKET_LABELS):
        if delay_s <= bound:
            return label
    return "+Inf"


def bucket_quantile(counts: Dict[str, float], quantile: float) -> Optional[float]:
    """The upper bound (seconds) of the bucket holding ``quantile``.

    ``counts`` maps bucket labels to per-window sample counts (deltas,
    not cumulative).  Returns ``None`` with no samples; ``inf`` when the
    quantile lands in the overflow bucket.  Resolution is the bucket
    grid — exactly what a Prometheus-style histogram offers — which is
    deterministic and mergeable, unlike a true per-sample quantile.
    """
    total = sum(counts.values())
    if total <= 0:
        return None
    need = quantile * total
    cumulative = 0.0
    for label, bound in zip(BUCKET_LABELS, BUCKET_BOUNDS):
        cumulative += counts.get(label, 0.0)
        if cumulative >= need - 1e-12:
            return bound
    return BUCKET_BOUNDS[-1]


class FlowClass:
    """A named region of flow space plus its protection knobs.

    ``weight`` scales the COST eviction score of cache rules serving the
    class (>1 keeps them resident longer); ``reserved_fraction`` of each
    ingress cache's capacity is held for the class (entries inside the
    reservation are never evicted by other classes' installs);
    ``protected`` exempts the class from admission-control shedding at
    the authority switches.
    """

    __slots__ = ("name", "match", "weight", "reserved_fraction", "protected")

    def __init__(
        self,
        name: str,
        match: Match,
        weight: float = 1.0,
        reserved_fraction: float = 0.0,
        protected: bool = False,
    ):
        if not name:
            raise ValueError("flow class needs a non-empty name")
        if not 0.0 <= reserved_fraction <= 1.0:
            raise ValueError(
                f"reserved_fraction must be in [0, 1], got {reserved_fraction}"
            )
        self.name = name
        self.match = match
        self.weight = float(weight)
        self.reserved_fraction = float(reserved_fraction)
        self.protected = bool(protected)

    def __repr__(self) -> str:
        return f"<FlowClass {self.name} weight={self.weight:g}>"


class FlowClassifier:
    """First-match-wins mapping from packed headers to class names.

    Several :class:`FlowClass` entries may share one name (e.g. one
    aligned prefix per edge switch, all called ``gold``); the default
    class catches everything else.  Results are memoized per packed
    header — streaming workloads repeat headers heavily, so the linear
    scan runs once per distinct flow.
    """

    def __init__(
        self,
        classes: Sequence[FlowClass] = (),
        default: str = DEFAULT_CLASS,
    ):
        self.classes: List[FlowClass] = list(classes)
        self.default = default
        self._memo: Dict[int, str] = {}

    def class_names(self) -> List[str]:
        """Configured class names, first-seen order, default last."""
        names: List[str] = []
        for cls in self.classes:
            if cls.name not in names:
                names.append(cls.name)
        if self.default not in names:
            names.append(self.default)
        return names

    def classify_bits(self, header_bits: int) -> str:
        """The class name of a packed header (memoized)."""
        name = self._memo.get(header_bits)
        if name is None:
            for cls in self.classes:
                if cls.match.matches_bits(header_bits):
                    name = cls.name
                    break
            else:
                name = self.default
            self._memo[header_bits] = name
        return name

    def classify(self, packet) -> str:
        """The class name of a packet (by its packed header bits)."""
        return self.classify_bits(packet.header_bits)


class SloSpec:
    """A per-class service-level objective over telemetry windows.

    Any target may be ``None`` (signal not part of this class's SLO).
    ``budget`` is the error budget: the fraction of *eligible* windows
    (windows where the class saw traffic) allowed to violate a target
    before the SLO counts as exhausted.
    """

    __slots__ = (
        "flow_class", "latency_target_s", "latency_quantile",
        "miss_rate_target", "delivery_target", "budget",
    )

    def __init__(
        self,
        flow_class: str,
        latency_target_s: Optional[float] = None,
        latency_quantile: float = 0.99,
        miss_rate_target: Optional[float] = None,
        delivery_target: Optional[float] = None,
        budget: float = 0.1,
    ):
        if not 0.0 < latency_quantile <= 1.0:
            raise ValueError(
                f"latency_quantile must be in (0, 1], got {latency_quantile}"
            )
        if budget < 0.0:
            raise ValueError(f"budget must be non-negative, got {budget}")
        self.flow_class = flow_class
        self.latency_target_s = latency_target_s
        self.latency_quantile = float(latency_quantile)
        self.miss_rate_target = miss_rate_target
        self.delivery_target = delivery_target
        self.budget = float(budget)

    def export(self) -> Dict[str, object]:
        """The JSON-stable dict embedded in the telemetry section."""
        return {
            "budget": self.budget,
            "delivery_target": self.delivery_target,
            "flow_class": self.flow_class,
            "latency_quantile": self.latency_quantile,
            "latency_target_s": self.latency_target_s,
            "miss_rate_target": self.miss_rate_target,
        }

    def __repr__(self) -> str:
        return f"<SloSpec {self.flow_class} budget={self.budget:g}>"


class QosPolicy:
    """One network's QoS bundle: classifier + SLOs + enforcement knobs.

    ``admission_threshold`` (redirect-station queue depth) arms admission
    control at the authority switches: once the queue is at least that
    deep, redirects of unprotected classes are shed with exact drop
    attribution instead of queued behind protected traffic.  ``None``
    disables shedding (monitor-only).
    """

    def __init__(
        self,
        classifier: FlowClassifier,
        slos: Sequence[SloSpec] = (),
        admission_threshold: Optional[int] = None,
    ):
        if admission_threshold is not None and admission_threshold < 1:
            raise ValueError(
                f"admission_threshold must be >= 1, got {admission_threshold}"
            )
        self.classifier = classifier
        self.slos: List[SloSpec] = list(slos)
        self.admission_threshold = admission_threshold

    def class_weights(self) -> Dict[str, float]:
        """COST score weights per class (non-unit weights only)."""
        weights: Dict[str, float] = {}
        for cls in self.classifier.classes:
            if cls.weight != 1.0:
                weights[cls.name] = cls.weight
        return weights

    def reservations(self, capacity: int) -> Dict[str, int]:
        """Reserved cache entries per class for a cache of ``capacity``."""
        reserved: Dict[str, int] = {}
        for cls in self.classifier.classes:
            if cls.reserved_fraction > 0.0 and capacity > 0:
                entries = max(1, int(math.ceil(cls.reserved_fraction * capacity)))
                reserved[cls.name] = max(reserved.get(cls.name, 0), entries)
        return reserved

    def is_protected(self, class_name: str) -> bool:
        """True when ``class_name`` is exempt from admission shedding."""
        for cls in self.classifier.classes:
            if cls.name == class_name and cls.protected:
                return True
        return False


class QosOutcomeReader:
    """Per-class outcome accounting: an outcome reader (see
    :class:`~repro.net.simnet.DeliveryLog` for the two methods) that
    keeps no row, only ``qos_delivered_total`` / ``qos_dropped_total``
    and ``qos_redirect_delay_bucket_total`` counters per flow class,
    each bound on its class's first outcome.

    Redirect latency is observed as a histogram bucket counter per
    class — bucket counts are integer, order-free and mergeable, so
    per-class quantiles survive the ``--jobs N`` byte-identity rule
    where a true per-sample quantile would not.  Only packets that
    actually crossed an authority (``via_authority``) land in the
    latency histogram: cache hits never paid a redirect.
    """

    __slots__ = ("_classify", "_metrics", "_delivered", "_dropped", "_delay")

    def __init__(self, policy: QosPolicy, metrics):
        self._classify = policy.classifier.classify_bits
        self._metrics = metrics
        self._delivered: Dict[str, object] = {}
        self._dropped: Dict[str, object] = {}
        self._delay: Dict[Tuple[str, str], object] = {}

    def observe_delivery(self, packet, endpoint: str, now: float) -> None:
        cls = self._classify(packet.header_bits)
        child = self._delivered.get(cls)
        if child is None:
            child = self._delivered[cls] = self._metrics.counter(
                "qos_delivered_total", flow_class=cls
            )
        child.inc()
        if packet.via_authority:
            key = (cls, delay_bucket(now - (packet.created_at or 0.0)))
            bucket = self._delay.get(key)
            if bucket is None:
                bucket = self._delay[key] = self._metrics.counter(
                    "qos_redirect_delay_bucket_total", flow_class=cls, le=key[1]
                )
            bucket.inc()

    def observe_drop(self, packet, where: str, reason: str, now: float) -> None:
        cls = self._classify(packet.header_bits)
        child = self._dropped.get(cls)
        if child is None:
            child = self._dropped[cls] = self._metrics.counter(
                "qos_dropped_total", flow_class=cls
            )
        child.inc()
