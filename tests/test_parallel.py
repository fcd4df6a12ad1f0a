"""Parallel sweep runner, seed derivation and the artifact cache.

The property under test everywhere: nothing observable — results,
metrics, seeds — may depend on how many workers ran the sweep or in
what order they finished.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.common import metrics_document
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT as _LAYOUT
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.parallel import (
    ArtifactCache,
    SweepRunner,
    classbench_ruleset,
    configure_artifact_cache,
    derive_seed,
    host_provenance,
    resolve_jobs,
)
from repro.parallel.seeds import canonical_key


@pytest.fixture(autouse=True)
def _fresh_obs_and_cache():
    """Isolate every test: fresh run context, memory-only artifact cache."""
    previous = obs_context.current()
    fresh_run_context()
    configure_artifact_cache(None)
    yield
    configure_artifact_cache(None)
    obs_context.install(previous)


# ---------------------------------------------------------------------------
# Seed derivation
# ---------------------------------------------------------------------------


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, ("replicate", 3)) == derive_seed(7, ("replicate", 3))

    def test_depends_on_root_and_key(self):
        seeds = {
            derive_seed(root, ("replicate", index))
            for root in (0, 1, 7)
            for index in range(16)
        }
        assert len(seeds) == 48  # no collisions across roots or indices

    def test_in_range(self):
        for index in range(64):
            seed = derive_seed(1, index)
            assert 0 <= seed < 2 ** 63

    def test_dict_key_order_irrelevant(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})

    def test_list_and_tuple_agree(self):
        assert canonical_key([1, "x", [2]]) == canonical_key((1, "x", (2,)))

    def test_bool_distinct_from_int(self):
        assert canonical_key(True) != canonical_key(1)

    def test_unhashable_payloads_rejected(self):
        with pytest.raises(TypeError):
            canonical_key(object())

    @settings(max_examples=80, deadline=None)
    @given(
        root=st.integers(min_value=0, max_value=2 ** 31),
        key=st.one_of(
            st.integers(),
            st.text(max_size=20),
            st.tuples(st.text(max_size=8), st.integers()),
        ),
    )
    def test_prop_deterministic_and_bounded(self, root, key):
        seed = derive_seed(root, key)
        assert seed == derive_seed(root, key)
        assert 0 <= seed < 2 ** 63


# ---------------------------------------------------------------------------
# Artifact cache
# ---------------------------------------------------------------------------


class TestArtifactCache:
    def test_memory_hit_returns_same_object(self):
        cache = ArtifactCache()
        calls = []
        first = cache.get("k", {"a": 1}, lambda: calls.append(1) or [1, 2, 3])
        second = cache.get("k", {"a": 1}, lambda: calls.append(1) or [9, 9, 9])
        assert first is second == [1, 2, 3]
        assert len(calls) == 1

    def test_params_distinguish(self):
        cache = ArtifactCache()
        assert cache.get("k", {"a": 1}, lambda: "one") == "one"
        assert cache.get("k", {"a": 2}, lambda: "two") == "two"

    def test_disk_hit_across_instances(self, tmp_path):
        first = ArtifactCache(str(tmp_path))
        built = first.get("rules", {"n": 4}, lambda: list(range(4)))
        second = ArtifactCache(str(tmp_path))
        loaded = second.get("rules", {"n": 4}, lambda: pytest.fail("rebuilt"))
        assert loaded == built
        assert loaded is not built  # a disk copy, not the same object

    def test_disk_opt_out(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.get("identity-bound", {"n": 1}, lambda: [1], disk=False)
        assert not list(tmp_path.rglob("*.pkl"))

    def test_counters(self, tmp_path):
        context = fresh_run_context()
        cache = ArtifactCache(str(tmp_path))
        cache.get("k", {"a": 1}, lambda: "v")      # build
        cache.get("k", {"a": 1}, lambda: "v")      # memory
        ArtifactCache(str(tmp_path)).get("k", {"a": 1}, lambda: "v")  # disk
        snapshot = context.metrics.snapshot()
        events = snapshot["counters"]
        assert events["artifact_cache_events_total{kind=k,outcome=build}"] == 1
        assert events["artifact_cache_events_total{kind=k,outcome=memory}"] == 1
        assert events["artifact_cache_events_total{kind=k,outcome=disk}"] == 1

    def test_replay_trace_shared_per_engine_never_on_disk(self, tmp_path):
        from repro.parallel.cache import zipf_replay_trace

        configure_artifact_cache(str(tmp_path))
        args = ({"profile": "acl", "count": 50, "seed": 9}, _LAYOUT, 40, 1, 200, 1.0, 2)
        trace = zipf_replay_trace(*args)
        assert zipf_replay_trace(*args) is trace
        assert trace._resolved is None  # the first replay resolves, not the build
        assert (tmp_path / "zipf-sequence").is_dir()
        assert not (tmp_path / "replay-trace").exists()

    def test_classbench_builder_returns_fresh_list(self):
        first = classbench_ruleset("acl", count=50, seed=9, layout=_LAYOUT)
        second = classbench_ruleset("acl", count=50, seed=9, layout=_LAYOUT)
        assert first is not second
        assert all(a is b for a, b in zip(first, second))  # rules shared

    def test_excluded_from_metrics_document(self):
        from repro.experiments.common import ExperimentResult

        context = fresh_run_context()
        classbench_ruleset("acl", count=20, seed=9, layout=_LAYOUT)
        document = metrics_document(
            ExperimentResult(name="x", title="x"), context=context
        )
        assert not any(
            key.startswith("artifact_cache_")
            for key in document["metrics"]["counters"]
        )


# ---------------------------------------------------------------------------
# Sweep runner
# ---------------------------------------------------------------------------


def _square_and_count(x):
    """A sweep point that returns a value and emits metrics."""
    obs_context.current_registry().counter("points_total", parity=str(x % 2)).inc()
    obs_context.current_registry().histogram("point_value", [1, 10, 100]).observe(x)
    return x * x


def _worker_pid(x):
    return os.getpid()


def _profiled_point(x):
    """A sweep point that times one stage under the run's profiler."""
    with obs_context.current_profiler().stage("point"):
        return x


def _run_settings(x):
    """The run settings a sweep point sees in its own context."""
    context = obs_context.current()
    interval = context.telemetry.interval_s if context.telemetry.enabled else None
    return context.metrics.enabled, context.profiler.enabled, interval


class TestSweepRunner:
    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_results_in_point_order(self):
        params = [dict(x=x) for x in range(8)]
        assert SweepRunner(3).map(_square_and_count, params) == [
            x * x for x in range(8)
        ]

    def test_parallel_metrics_identical_to_serial(self):
        params = [dict(x=x) for x in range(10)]

        serial_context = fresh_run_context()
        serial = SweepRunner(1).map(_square_and_count, params)
        serial_snapshot = serial_context.metrics.snapshot()

        parallel_context = fresh_run_context()
        parallel = SweepRunner(4).map(_square_and_count, params)
        parallel_snapshot = parallel_context.metrics.snapshot()

        assert parallel == serial
        assert parallel_snapshot == serial_snapshot

    def test_pool_actually_used_when_possible(self):
        pids = SweepRunner(2).map(_worker_pid, [dict(x=0), dict(x=1)])
        # Workers are separate processes (unless the host denies pools,
        # in which case the runner degrades to serial — also acceptable).
        assert len(pids) == 2

    def test_points_run_under_the_callers_settings(self):
        fresh_run_context(metrics_enabled=False)
        assert SweepRunner(2).map(_run_settings, [dict(x=0), dict(x=1)]) == [
            (False, False, None)
        ] * 2
        fresh_run_context(profile=True, telemetry=0.25)
        assert SweepRunner(2).map(_run_settings, [dict(x=0), dict(x=1)]) == [
            (True, True, 0.25)
        ] * 2

    def test_disabled_metrics_stay_empty_after_a_sweep(self):
        context = fresh_run_context(metrics_enabled=False)
        SweepRunner(2).map(_square_and_count, [dict(x=x) for x in range(4)])
        assert context.metrics.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_workers_profile_into_the_callers_registry(self):
        params = [dict(x=x) for x in range(4)]
        names = []
        for jobs in (1, 2):
            context = fresh_run_context(profile=True)
            SweepRunner(jobs).map(_profiled_point, params)
            names.append(sorted(context.metrics.snapshot()["histograms"]))
        assert names[0] == ["profile_stage_seconds{stage=point}"]
        assert names[1] == names[0]

    def test_tracing_forces_inline_execution(self):
        fresh_run_context(trace=True)
        pids = SweepRunner(4).map(_worker_pid, [dict(x=x) for x in range(3)])
        assert set(pids) == {os.getpid()}


# ---------------------------------------------------------------------------
# End-to-end: experiments under jobs>1 reproduce the serial run exactly
# ---------------------------------------------------------------------------


class TestExperimentDeterminism:
    def _delay_document(self, jobs):
        from repro.experiments.delay import run_delay

        context = fresh_run_context()
        result = run_delay(flows=20, jobs=jobs)
        return json.dumps(
            metrics_document(result, context=context), sort_keys=True
        ), result.table_rows

    def test_delay_metrics_document_byte_identical(self):
        serial_doc, serial_rows = self._delay_document(jobs=1)
        parallel_doc, parallel_rows = self._delay_document(jobs=2)
        assert parallel_doc == serial_doc
        assert parallel_rows == serial_rows

    def test_scaling_series_identical(self):
        from repro.experiments.scaling import run_scaling

        kwargs = dict(authority_counts=[1, 2], flows_per_point=120)
        serial = run_scaling(jobs=1, **kwargs)
        parallel = run_scaling(jobs=2, **kwargs)
        for a, b in zip(serial.series, parallel.series):
            assert a.label == b.label
            assert a.x == b.x
            assert a.y == b.y


# ---------------------------------------------------------------------------
# Host provenance
# ---------------------------------------------------------------------------


def test_host_provenance_shape():
    info = host_provenance(jobs=4)
    assert info["jobs"] == 4
    assert info["cpu_count"] >= 1
    assert info["cpu_model"]
    assert info["python"]
    info_no_jobs = host_provenance()
    assert "jobs" not in info_no_jobs
