"""Rate-over-time curves (the paper's throughput-over-time view; failover
dips, cache warm-up ramps), binned from outcomes as they land."""

from __future__ import annotations

from collections import Counter

from repro.analysis.series import Series
from repro.obs.attribution import attribute_reason

__all__ = ["OutcomeTimeline"]


class OutcomeTimeline:
    """A record-free outcome reader (:class:`~repro.net.simnet.DeliveryLog`
    names its two methods): ``delivered`` / ``dropped`` counts, drops per
    ``attribute_reason`` bucket, and the bins :meth:`series` reads."""

    def __init__(self, bin_width_s: float):
        if bin_width_s <= 0:
            raise ValueError(f"bin width must be positive, got {bin_width_s}")
        self.bin_width_s = bin_width_s
        self.delivered = self.dropped = 0
        self.drop_buckets: Counter = Counter()
        #: Delivered-only and all-outcome curves: [first time, bin counts].
        self._curves = {True: [None, Counter()], False: [None, Counter()]}

    def _count(self, delivered_only: bool, now: float) -> None:
        curve = self._curves[delivered_only]
        if curve[0] is None:
            curve[0] = now
        # A tolerance: a time mathematically on a bin edge but represented
        # a hair below it still lands in the bin [edge, edge + width).
        curve[1][int((now - curve[0]) / self.bin_width_s + 1e-9)] += 1

    def observe_delivery(self, packet, endpoint: str, now: float) -> None:
        self.delivered += 1
        self._count(True, now)
        self._count(False, now)

    def observe_drop(self, packet, where: str, reason: str, now: float) -> None:
        self.dropped += 1
        self.drop_buckets[attribute_reason(reason)] += 1
        self._count(False, now)

    def series(self, label: str = "rate", delivered_only: bool = True) -> Series:
        """Delivered (or all-outcome) packets per second, per bin; bin edges
        start at the first such outcome, and each point sits at its bin's
        midpoint."""
        start, counts = self._curves[delivered_only]
        width = self.bin_width_s
        series = Series(label, x_label="time (s)", y_label="packets/s")
        for index in range(max(counts, default=-1) + 1):
            series.append(start + (index + 0.5) * width, counts[index] / width)
        return series
