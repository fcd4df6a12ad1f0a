"""Content-addressed workload artifact cache.

Sweeps rebuild identical inputs at every point: the same ClassBench
ruleset, the same flow-header draw, the same Zipf packet sequence, the
same flow-space partition.  The cache memoizes those artifacts by a
stable hash of their *generating parameters* (content addressing: equal
parameters ⇒ equal artifact, because every builder is deterministic), in
two tiers:

* **memory** — a per-process dict; a hit returns the very same objects,
  so serial sweeps restructured as per-point builds stay byte-identical
  to the historical build-once-reuse code;
* **disk** (optional) — pickles under ``--cache-dir`` (the CLI defaults
  it to ``~/.cache/repro``), shared across processes and warm reruns.
  Writes are atomic (temp file + rename), so concurrent sweep workers
  can share a directory safely.

Hit/miss traffic is surfaced through the observability registry as
``artifact_cache_events_total{kind=...,outcome=memory|disk|build}``.
Those counters describe the harness, not the simulated system, and their
values legitimately differ between ``--jobs 1`` and ``--jobs N`` (each
worker process misses once) — so the canonical metrics document excludes
them, exactly like wall-clock ``profile_*`` histograms.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.parallel.seeds import canonical_key

__all__ = [
    "ArtifactCache",
    "artifact_cache",
    "configure_artifact_cache",
    "classbench_ruleset",
    "flow_headers",
    "zipf_packet_sequence",
    "zipf_replay_trace",
]

#: Default disk location when caching is enabled without an explicit dir.
DEFAULT_CACHE_DIR = "~/.cache/repro"


class ArtifactCache:
    """Two-tier (memory, optional disk) content-addressed artifact store."""

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir: Optional[Path] = (
            Path(os.path.expanduser(cache_dir)) if cache_dir else None
        )
        self._memo: Dict[str, Any] = {}

    # -- keying ------------------------------------------------------------
    @staticmethod
    def key_for(kind: str, params: Dict[str, Any]) -> str:
        """The content address of ``(kind, params)``: a SHA-256 hex digest."""
        payload = f"{kind}\x1f{canonical_key(params)}".encode()
        return hashlib.sha256(payload).hexdigest()

    # -- the one entry point ----------------------------------------------
    def get(
        self,
        kind: str,
        params: Dict[str, Any],
        build: Callable[[], Any],
        disk: bool = True,
    ) -> Any:
        """The artifact for ``(kind, params)``, building it on first use.

        ``disk=False`` restricts the artifact to the in-process tier —
        used for artifacts holding object identity other components rely
        on (partition results reference the policy's live ``Rule``
        objects; an unpickled copy would break identity-based matching).
        """
        key = self.key_for(kind, params)
        if key in self._memo:
            self._count(kind, "memory")
            return self._memo[key]
        if disk and self.cache_dir is not None:
            artifact = self._disk_read(kind, key)
            if artifact is not None:
                self._count(kind, "disk")
                self._memo[key] = artifact
                return artifact
        artifact = build()
        self._count(kind, "build")
        self._memo[key] = artifact
        if disk and self.cache_dir is not None:
            self._disk_write(kind, key, artifact)
        return artifact

    # -- disk tier ---------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.cache_dir / kind / f"{key}.pkl"

    def _disk_read(self, kind: str, key: str) -> Optional[Any]:
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            return None

    def _disk_write(self, kind: str, key: str, artifact: Any) -> None:
        path = self._path(kind, key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # A read-only or full cache dir degrades to memory-only.
            pass

    # -- accounting --------------------------------------------------------
    def _count(self, kind: str, outcome: str) -> None:
        from repro.obs import context as _obs_context

        _obs_context.current_registry().counter(
            "artifact_cache_events_total", kind=kind, outcome=outcome
        ).inc()


# ---------------------------------------------------------------------------
# Process-wide default instance (the CLI's --cache-dir configures it; the
# sweep runner's worker initializer re-configures it inside each worker).
# ---------------------------------------------------------------------------

_cache = ArtifactCache()


def artifact_cache() -> ArtifactCache:
    """The process-wide artifact cache."""
    return _cache


def configure_artifact_cache(cache_dir: Optional[str]) -> ArtifactCache:
    """Install a fresh process-wide cache rooted at ``cache_dir``.

    ``None`` means memory-only.  Returns the new cache.
    """
    global _cache
    _cache = ArtifactCache(cache_dir)
    return _cache


# ---------------------------------------------------------------------------
# Cached builders for the workload artifacts every sweep rebuilds.
# ---------------------------------------------------------------------------


def _layout_key(layout) -> List:
    return [[field.name, field.width] for field in layout.fields]


def classbench_ruleset(
    profile: str, count: int, seed: int, layout, **kwargs
) -> List:
    """A (cached) ClassBench classifier; see ``generate_classbench``.

    Returns a fresh list each call (callers may slice or extend it); the
    ``Rule`` objects inside are shared on memory hits, which is exactly
    the historical build-once-reuse behaviour.
    """
    from repro.workloads.classbench import generate_classbench

    params = {"profile": profile, "count": count, "seed": seed,
              "layout": _layout_key(layout), **kwargs}
    rules = _cache.get(
        "classbench",
        params,
        lambda: generate_classbench(
            profile=profile, count=count, seed=seed, layout=layout, **kwargs
        ),
    )
    return list(rules)


def flow_headers(
    policy_params: Dict[str, Any], layout, count: int, seed: int, **kwargs
) -> List[int]:
    """Cached ``flow_headers_for_policy`` over a cached ClassBench policy.

    ``policy_params`` are the exact keyword arguments of
    :func:`classbench_ruleset` — the headers' content address includes
    the policy's, so the pair is consistent by construction.
    """
    from repro.workloads.traffic import flow_headers_for_policy

    params = {"policy": dict(policy_params), "layout": _layout_key(layout),
              "count": count, "seed": seed, **kwargs}
    headers = _cache.get(
        "flow-headers",
        params,
        lambda: flow_headers_for_policy(
            classbench_ruleset(layout=layout, **policy_params),
            count, seed=seed, **kwargs,
        ),
    )
    return list(headers)


def zipf_packet_sequence(
    policy_params: Dict[str, Any],
    layout,
    n_flows: int,
    flows_seed: int,
    n_packets: int,
    alpha: float,
    seed: int,
) -> List[int]:
    """Cached Zipf packet sequence over cached flow headers."""
    from repro.workloads.traffic import packet_sequence

    params = _zipf_params(
        policy_params, layout, n_flows, flows_seed, n_packets, alpha, seed
    )
    sequence = _cache.get(
        "zipf-sequence",
        params,
        lambda: packet_sequence(
            flow_headers(policy_params, layout, n_flows, flows_seed),
            n_packets, alpha=alpha, seed=seed,
        ),
    )
    return list(sequence)


def zipf_replay_trace(
    policy_params: Dict[str, Any],
    layout,
    n_flows: int,
    flows_seed: int,
    n_packets: int,
    alpha: float,
    seed: int,
):
    """The cached Zipf sequence under its cached policy as one
    :class:`~repro.baselines.microflow_cache.ReplayTrace` per process.

    Keyed by the sequence's generating parameters, so every replay in
    the process shares the trace, resolved by the first.  Memory tier
    only: on disk it would repeat the policy and sequence.
    """
    from repro.baselines.microflow_cache import ReplayTrace

    params = _zipf_params(
        policy_params, layout, n_flows, flows_seed, n_packets, alpha, seed
    )
    return _cache.get(
        "replay-trace",
        params,
        lambda: ReplayTrace(
            classbench_ruleset(layout=layout, **policy_params),
            layout,
            zipf_packet_sequence(
                policy_params, layout, n_flows, flows_seed, n_packets, alpha, seed
            ),
        ),
        disk=False,
    )


def _zipf_params(
    policy_params, layout, n_flows, flows_seed, n_packets, alpha, seed
) -> Dict[str, Any]:
    return {"policy": dict(policy_params), "layout": _layout_key(layout),
            "n_flows": n_flows, "flows_seed": flows_seed,
            "n_packets": n_packets, "alpha": alpha, "seed": seed}
