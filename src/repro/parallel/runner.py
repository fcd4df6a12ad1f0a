"""The deterministic process-pool sweep runner.

:class:`SweepRunner` fans a sweep's points out over a
``concurrent.futures.ProcessPoolExecutor`` and reassembles results in
point order.  The determinism contract — ``jobs=N`` output byte-identical
to ``jobs=1`` — holds because:

* **inputs** — every point's parameters (seeds included) are fixed
  before fan-out; nothing depends on worker identity or completion
  order (use :func:`repro.parallel.seeds.derive_seed` for replicate
  seeds);
* **execution** — each point runs in a fresh observability context
  inside its worker, so points cannot observe each other in either
  mode;
* **outputs** — results are reassembled in submission (= point) order,
  and per-point metric registries are folded into the caller's registry
  through the merge algebra (counters add, histograms add bucket-wise:
  associative and commutative, so the fold equals serial accumulation —
  the simulator emits no gauges, whose max-merge would not).

A ``spawn``-start pool (macOS/Windows) inherits no process state: the
initializer hands each worker the artifact-cache directory, and each
point carries the caller's run settings into its fresh context.

Packet tracing is the one surface the pool does not transport (events
live in a ring buffer whose interleaving is scheduling-dependent), so a
run with tracing enabled degrades to in-process execution rather than
silently losing trace events.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.parallel.cache import artifact_cache, configure_artifact_cache

__all__ = ["SweepRunner", "resolve_jobs"]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 → serial, 0/negative → all cores."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


# -- worker side (module-level: must be picklable by reference) -------------


def _execute_point(
    fn: Callable[..., Any],
    params: Dict[str, Any],
    metrics_enabled: bool,
    profile: bool,
    telemetry_interval_s: Optional[float],
):
    """Run one sweep point in an isolated run context; ship metrics back."""
    from repro.obs import fresh_run_context

    context = fresh_run_context(
        metrics_enabled=metrics_enabled,
        profile=profile,
        telemetry=telemetry_interval_s,
    )
    value = fn(**params)
    registry = context.metrics if context.metrics.enabled else None
    # Telemetry windows ship as a plain dict: index → deltas/samples.
    # The parent folds them window-wise (sum/max), which is associative
    # and commutative — jobs=N telemetry equals the serial series.
    telemetry = (
        context.telemetry.dump_windows() if context.telemetry.enabled else None
    )
    return value, registry, telemetry


class SweepRunner:
    """Run per-point functions across a sweep, serially or in a pool.

    ``fn`` must be a module-level callable (workers resolve it by
    qualified name) and every parameter value picklable.  With
    ``jobs <= 1`` points run in the caller's process *and* observability
    context — the exact historical serial code path; with ``jobs > 1``
    they run in worker processes and their registries are merged back.
    """

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = resolve_jobs(jobs)

    # -- execution ---------------------------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        param_sets: Sequence[Dict[str, Any]],
    ) -> List[Any]:
        """``[fn(**params) for params in param_sets]``, possibly in parallel.

        Results come back in ``param_sets`` order regardless of worker
        scheduling.
        """
        from repro.obs import context as obs_context

        param_sets = list(param_sets)
        jobs = min(self.jobs, len(param_sets)) if param_sets else 1
        if jobs <= 1 or obs_context.current_tracer().enabled:
            return [fn(**params) for params in param_sets]

        parent = obs_context.current()
        settings = (
            parent.metrics.enabled,
            parent.profiler.enabled,
            parent.telemetry.interval_s if parent.telemetry.enabled else None,
        )
        try:
            executor = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=configure_artifact_cache,
                initargs=(artifact_cache().cache_dir,),
            )
        except (OSError, PermissionError, ValueError):
            # No subprocess support on this host: degrade to serial.
            return [fn(**params) for params in param_sets]
        with executor:
            futures = [
                executor.submit(_execute_point, fn, params, *settings)
                for params in param_sets
            ]
            # Ordered reassembly: gather in submission order, then fold
            # registries in that same order (the merge is commutative, so
            # this is belt-and-braces, not load-bearing).
            outcomes = [future.result() for future in futures]
        values: List[Any] = []
        for value, registry, telemetry in outcomes:
            values.append(value)
            if registry is not None and parent.metrics.enabled:
                parent.metrics.merge_from(registry)
            if telemetry is not None and parent.telemetry.enabled:
                parent.telemetry.merge_dump(telemetry)
        return values
