"""Parallel execution substrate: deterministic sweeps + artifact cache.

Every experiment in this reproduction is an embarrassingly parallel
sweep over parameter points and seeds.  This package makes those sweeps
saturate the host without losing determinism:

* :mod:`repro.parallel.seeds` — per-point seed derivation from
  ``(root_seed, point_key)`` via SHA-256, never worker-order-dependent;
* :mod:`repro.parallel.runner` — :class:`SweepRunner`, a process-pool
  fan-out with ordered result reassembly and per-worker metrics merged
  through the registry's associative merge algebra, so ``jobs=N`` output
  is byte-identical to ``jobs=1``;
* :mod:`repro.parallel.cache` — :class:`ArtifactCache`, content-addressed
  memoization of built ClassBench rulesets, flow-space partitions and
  generated traces (in-process, optionally on disk);
* :mod:`repro.parallel.provenance` — host provenance recorded into every
  benchmark archive so results are comparable across machines.
"""

from repro.parallel.cache import (
    ArtifactCache,
    artifact_cache,
    classbench_ruleset,
    configure_artifact_cache,
    flow_headers,
    zipf_packet_sequence,
)
from repro.parallel.provenance import host_provenance
from repro.parallel.runner import SweepRunner, resolve_jobs
from repro.parallel.seeds import derive_seed

__all__ = [
    "ArtifactCache",
    "SweepRunner",
    "artifact_cache",
    "classbench_ruleset",
    "configure_artifact_cache",
    "derive_seed",
    "flow_headers",
    "host_provenance",
    "resolve_jobs",
    "zipf_packet_sequence",
]
