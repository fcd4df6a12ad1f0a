"""DIFANE's three-stage switch pipeline.

Paper §2: every DIFANE switch evaluates, in order,

1. **cache rules** — reactively installed, cover the hot traffic;
2. **authority rules** — present only on authority switches, cover that
   switch's flow-space partition;
3. **partition rules** — present on every ingress switch, low priority,
   map each partition to its (primary) authority switch with an
   encapsulate action.

In hardware all three share one TCAM with disjoint priority bands; we keep
them in three :class:`~repro.switch.tcam.Tcam` regions so experiments can
budget and count each independently, and the lookup tries them in order —
which is exactly equivalent to the banded-priority arrangement because
stage ordering dominates priority.
"""

from __future__ import annotations

import time as _time
from enum import Enum
from typing import Optional

from repro.flowspace.fields import HeaderLayout
from repro.flowspace.packet import Packet
from repro.flowspace.rule import Rule, RuleKind
from repro.obs.registry import Collectable
from repro.switch.tcam import Tcam

__all__ = ["PipelineStage", "LookupResult", "DifanePipeline"]


class PipelineStage(Enum):
    """Which stage of the pipeline matched (or MISS)."""

    CACHE = "cache"
    AUTHORITY = "authority"
    PARTITION = "partition"
    MISS = "miss"

    # Members are singletons compared by identity, so identity hashing is
    # exact; it keeps the per-packet stage-keyed lookup (DifaneSwitch's
    # stage accounting) off Enum's Python-level __hash__.
    __hash__ = object.__hash__


class LookupResult:
    """The outcome of a pipeline lookup.

    One of these is built per packet on the hot path, so it is a
    ``__slots__`` class rather than a dataclass (no per-instance dict).
    """

    __slots__ = ("rule", "stage")

    def __init__(self, rule: Optional[Rule], stage: PipelineStage):
        self.rule = rule
        self.stage = stage

    @property
    def is_miss(self) -> bool:
        """True when nothing in any stage matched."""
        return self.rule is None

    def __repr__(self) -> str:
        return f"LookupResult(rule={self.rule!r}, stage={self.stage!r})"


class DifanePipeline(Collectable):
    """Three banded TCAM regions evaluated in stage order.

    Parameters
    ----------
    layout:
        Header layout for every stage.
    cache_capacity:
        Entry budget for the cache region (the knob the cache-miss
        experiments sweep).  ``None`` = unbounded.  The authority and
        partition regions are unbounded: the partitioning experiments
        measure how many entries they need.
    """

    def __init__(
        self,
        layout: HeaderLayout,
        cache_capacity: Optional[int] = None,
    ):
        self.layout = layout
        self.cache = Tcam(layout, cache_capacity)
        self.authority = Tcam(layout)
        self.partition = Tcam(layout)
        self.misses = 0
        # Wall-time profiling of the engine lookup, bound at attach time
        # (the network, and hence the run's profiler, is unknown here).
        self._profiler = None

    @property
    def authority_hits(self) -> int:
        """Lookups the authority stage answered: only :meth:`lookup` reads
        ``cache`` and ``partition`` (``authority`` is also read directly
        on the redirect path), and it reaches ``partition`` on a miss."""
        return self.cache.lookups - self.cache.hits - self.partition.lookups

    def bind_observability(self, metrics, profiler=None) -> None:
        """Report per-stage lookup counts into ``metrics`` (and optionally
        profile the engine lookup's wall time)."""
        for stage, attribute in (
            (PipelineStage.CACHE, "cache.hits"),
            (PipelineStage.AUTHORITY, "authority_hits"),
            (PipelineStage.PARTITION, "partition.hits"),
            (PipelineStage.MISS, "misses"),
        ):
            metrics.collect("pipeline_lookups_total", self, attribute, stage=stage.value)
        self._profiler = profiler

    def lookup(self, packet: Packet, now: Optional[float] = None) -> LookupResult:
        """Match ``packet`` through the stages in DIFANE order."""
        profiler = self._profiler
        started = (
            _time.perf_counter()
            if profiler is not None and profiler.enabled
            else None
        )
        stage = PipelineStage.CACHE
        rule = self.cache.lookup(packet, now)
        if rule is None:
            stage = PipelineStage.AUTHORITY
            rule = self.authority.lookup(packet, now)
            if rule is None:
                stage = PipelineStage.PARTITION
                rule = self.partition.lookup(packet, now)
                if rule is None:
                    stage = PipelineStage.MISS
                    self.misses += 1
        if started is not None:
            profiler.observe("pipeline-lookup", _time.perf_counter() - started)
        return LookupResult(rule, stage)

    def install(self, rule: Rule, now: Optional[float] = None, **kwargs) -> Rule:
        """Install ``rule`` into the region its :class:`RuleKind` selects."""
        region = self._region_for(rule.kind)
        return region.install(rule, now=now, **kwargs)

    def _region_for(self, kind: RuleKind) -> Tcam:
        if kind is RuleKind.CACHE:
            return self.cache
        if kind is RuleKind.AUTHORITY:
            return self.authority
        if kind is RuleKind.PARTITION:
            return self.partition
        raise ValueError(f"rule kind {kind} does not belong in a DIFANE pipeline")

    def total_entries(self) -> int:
        """TCAM entries across all three regions (per-switch footprint)."""
        return len(self.cache) + len(self.authority) + len(self.partition)

    def __repr__(self) -> str:
        return (
            f"<DifanePipeline cache={len(self.cache)} "
            f"authority={len(self.authority)} partition={len(self.partition)}>"
        )
