"""Time-binned rate series from delivery records.

Turns a simulation's :class:`~repro.net.simnet.DeliveryRecord` stream
into a rate-over-time curve (delivered or all-outcome packets per
second) — the view the paper's throughput-over-time plots take, and the
tool for spotting transients around dynamics events (failover dips,
cache warm-up ramps).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.series import Series

__all__ = ["rate_timeline"]


def rate_timeline(
    records: Sequence,
    bin_width_s: float,
    delivered_only: bool = True,
    label: str = "rate",
) -> Series:
    """Delivered (or all-outcome) packets per second, per time bin.

    Bin edges start at the first record's finish time; each point sits at
    its bin's midpoint.
    """
    if bin_width_s <= 0:
        raise ValueError(f"bin width must be positive, got {bin_width_s}")
    series = Series(label, x_label="time (s)", y_label="packets/s")
    times = [
        r.finished_at
        for r in records
        if (r.delivered or not delivered_only)
    ]
    if not times:
        return series
    start = min(times)
    # Integer binning with a tolerance: a timestamp mathematically on a
    # bin edge but represented a hair below it still lands in the bin the
    # half-open [edge, edge + width) convention assigns it to.
    array = np.asarray(times, dtype=np.float64)
    indices = np.floor((array - start) / bin_width_s + 1e-9).astype(np.int64)
    bins = int(indices.max()) + 1
    counts = np.bincount(indices, minlength=bins)
    for index in range(bins):
        series.append(
            start + (index + 0.5) * bin_width_s, counts[index] / bin_width_s
        )
    return series
