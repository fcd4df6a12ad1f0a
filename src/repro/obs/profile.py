"""Profiling hooks: per-stage wall-time histograms.

The simulator's cost model is simulated time; the *simulator's own*
cost is wall time, and that is what these hooks measure — how long the
event loop spends in each callback, how long an engine lookup takes,
how long the channel's send/retransmit machinery runs.  Stage timings
land in ``profile_stage_seconds{stage=...}`` histograms in the metrics
registry (excluded from golden comparisons: wall clocks are not
reproducible).

A disabled profiler costs one attribute read per call site; the
scheduler, pipeline and channel all check ``profiler.enabled`` before
touching the clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

from repro.obs.registry import Histogram, MetricsRegistry

__all__ = ["Profiler", "STAGE_HISTOGRAM"]

#: Metric name every stage timing lands under (label: ``stage``).
STAGE_HISTOGRAM = "profile_stage_seconds"


class Profiler:
    """Wall-time stage timings feeding a :class:`MetricsRegistry`."""

    def __init__(self, registry: Optional[MetricsRegistry] = None, enabled: bool = False):
        self.registry = registry
        self.enabled = enabled and registry is not None
        self._children: Dict[str, Histogram] = {}

    def _child(self, stage: str):
        child = self._children.get(stage)
        if child is None:  # only reached when enabled, hence with a registry
            child = self.registry.histogram(STAGE_HISTOGRAM, stage=stage)
            self._children[stage] = child
        return child

    def observe(self, stage: str, seconds: float) -> None:
        """Record one measured duration for ``stage``."""
        if self.enabled:
            self._child(stage).observe(seconds)

    @contextmanager
    def stage(self, name: str):
        """Time a block: ``with profiler.stage("partition"): ...``."""
        if not self.enabled:
            yield
            return
        started = time.perf_counter()
        try:
            yield
        finally:
            self._child(name).observe(time.perf_counter() - started)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Profiler {state} {len(self._children)} stages>"
