"""Unit tests for the observability layer (registry, trace, profile, CLI)."""

from __future__ import annotations

import ast
import json
import pathlib

import pytest

from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.obs.profile import Profiler, STAGE_HISTOGRAM
from repro.obs.registry import (
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
)
from repro.obs.trace import PacketTracer, TraceKind


class _FakePacket:
    def __init__(self, packet_id, flow_id=0, via_authority=False):
        self.packet_id = packet_id
        self.flow_id = flow_id
        self.via_authority = via_authority
        self.via_controller = False


# -- registry ---------------------------------------------------------------------

class TestRegistry:
    def test_counter_children_are_bound_and_labelled(self):
        registry = MetricsRegistry()
        child = registry.counter("packets_total", switch="s0")
        child.inc()
        child.inc(2)
        assert registry.counter("packets_total", switch="s0") is child
        assert registry.value("packets_total", switch="s0") == 3
        assert registry.value("packets_total", switch="s1") is None
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"packets_total{switch=s0}": 3}

    def test_sum_counters_folds_label_children(self):
        registry = MetricsRegistry()
        registry.counter("drops_total", reason="a").inc(2)
        registry.counter("drops_total", reason="b").inc(3)
        registry.counter("other_total").inc(10)
        assert registry.sum_counters("drops_total") == 5

    def test_disabled_registry_is_noop_and_empty(self):
        registry = MetricsRegistry(enabled=False)
        child = registry.counter("x_total")
        assert child is NULL_METRIC
        child.inc()
        child.observe(0.1)
        assert len(registry) == 0
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_snapshot_excludes_prefixes(self):
        registry = MetricsRegistry()
        registry.counter("keep_total").inc()
        registry.histogram("profile_stage_seconds", stage="x").observe(0.1)
        snapshot = registry.snapshot(exclude_prefixes=("profile_",))
        assert "keep_total" in snapshot["counters"]
        assert snapshot["histograms"] == {}

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(7)
        path = tmp_path / "metrics.json"
        registry.write_json(path, experiment="X1")
        document = json.loads(path.read_text())
        assert document["experiment"] == "X1"
        assert document["metrics"]["counters"]["a_total"] == 7

    def test_histogram_mismatched_bounds_refuse_to_merge(self):
        a = Histogram(bounds=(1.0, 2.0))
        b = Histogram(bounds=(1.0, 3.0))
        with pytest.raises(ValueError):
            a.merge_from(b)


class TestHistogramQuantileBoundaries:
    def test_empty_histogram_has_no_quantile(self):
        assert Histogram().quantile(0.5) is None

    def test_q_outside_unit_interval_rejected(self):
        hist = Histogram()
        hist.observe(1.0)
        with pytest.raises(ValueError):
            hist.quantile(-0.01)
        with pytest.raises(ValueError):
            hist.quantile(1.01)

    def test_q0_and_q1_are_observed_extremes(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 3.0, 42.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 42.0

    def test_single_observation_every_quantile_is_it(self):
        hist = Histogram(bounds=(1.0, 10.0))
        hist.observe(7.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 7.0

    def test_quantiles_clamped_after_merge(self):
        # After a merge the combined min/max must still bound every
        # quantile, even where the winning bucket's edges lie outside
        # the merged observed range.
        low, high = Histogram(bounds=(1.0, 10.0)), Histogram(bounds=(1.0, 10.0))
        low.observe(0.25)
        low.observe(0.5)
        high.observe(20.0)
        low.merge_from(high)
        assert low.count == 3
        assert low.quantile(0.0) == 0.25
        assert low.quantile(1.0) == 20.0
        for q in (0.1, 0.5, 0.9):
            assert 0.25 <= low.quantile(q) <= 20.0

    def test_merge_into_empty_preserves_quantiles(self):
        empty, full = Histogram(), Histogram()
        full.observe(2e-3)
        empty.merge_from(full)
        assert empty.quantile(0.0) == 2e-3
        assert empty.quantile(1.0) == 2e-3


# -- tracer -----------------------------------------------------------------------

class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = PacketTracer(enabled=False)
        tracer.record(0.0, TraceKind.INGRESS, _FakePacket(1))
        assert len(tracer) == 0
        assert tracer.recorded == 0

    def test_ring_buffer_truncates_oldest(self):
        tracer = PacketTracer(capacity=3, enabled=True)
        for index in range(5):
            tracer.record(float(index), TraceKind.INGRESS, _FakePacket(index))
        assert len(tracer) == 3
        assert tracer.truncated == 2
        assert tracer.evicted == 2
        assert [e.packet_id for e in tracer.events()] == [2, 3, 4]
        assert tracer.accounting()["truncated"] == 2
        assert tracer.accounting()["evicted"] == 2

    def test_accounting_counts_kinds(self):
        tracer = PacketTracer(enabled=True)
        tracer.record(0.0, TraceKind.INGRESS, _FakePacket(1))
        tracer.record(0.1, TraceKind.DELIVERED, _FakePacket(1))
        tracer.record(0.0, TraceKind.INGRESS, _FakePacket(2))
        tracer.record(0.2, TraceKind.DROPPED, _FakePacket(2), detail="link loss")
        tracer.record(0.3, TraceKind.DEGRADED, _FakePacket(3))
        accounting = tracer.accounting()
        assert accounting == {
            "ingress": 2, "delivered": 1, "dropped": 1,
            "degraded": 1, "evicted": 0, "truncated": 0,
        }

    def test_jsonl_export_roundtrip(self, tmp_path):
        tracer = PacketTracer(enabled=True)
        tracer.record(0.5, TraceKind.DELIVERED, _FakePacket(9), node="h1")
        path = tmp_path / "trace.jsonl"
        count = tracer.write_jsonl(path, extra={"experiment": "E4"})
        assert count == 1
        row = json.loads(path.read_text().strip())
        assert row["kind"] == "delivered"
        assert row["packet_id"] == 9
        assert row["experiment"] == "E4"


# -- profiler ---------------------------------------------------------------------

class TestProfiler:
    def test_disabled_profiler_records_nothing(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry=registry, enabled=False)
        with profiler.stage("lookup"):
            pass
        profiler.observe("lookup", 0.01)
        assert registry.value(STAGE_HISTOGRAM, stage="lookup") is None

    def test_enabled_profiler_populates_stage_histogram(self):
        registry = MetricsRegistry()
        profiler = Profiler(registry=registry, enabled=True)
        with profiler.stage("lookup"):
            pass
        profiler.observe("lookup", 0.25)
        exported = registry.value(STAGE_HISTOGRAM, stage="lookup")
        assert exported["count"] == 2
        assert exported["max"] >= 0.25


# -- run context ------------------------------------------------------------------

class TestRunContext:
    def test_fresh_context_installs_and_isolates(self):
        previous = obs_context.current()
        try:
            first = fresh_run_context()
            first.metrics.counter("x_total").inc()
            second = fresh_run_context()
            assert obs_context.current() is second
            assert second.metrics.value("x_total") is None
            assert first.metrics.value("x_total") == 1
        finally:
            obs_context.install(previous)

    def test_flags_propagate(self):
        previous = obs_context.current()
        try:
            context = fresh_run_context(trace=True, profile=True)
            assert context.tracer.enabled
            assert context.profiler.enabled
            assert context.qos is None
            off = fresh_run_context(metrics_enabled=False)
            assert off.metrics.counter("x") is NULL_METRIC
        finally:
            obs_context.install(previous)

    def test_only_the_run_context_and_artifact_cache_rebind_module_state(self):
        """Run settings live on the run context, not in module globals."""
        src = pathlib.Path(obs_context.__file__).resolve().parents[1]
        offenders = sorted(
            f"{path.relative_to(src)}:{node.lineno}"
            for path in src.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Global)
            and path.relative_to(src).as_posix()
            not in ("obs/context.py", "parallel/cache.py")
        )
        assert offenders == []


# -- network integration ----------------------------------------------------------

class TestNetworkMetrics:
    def _small_difane(self):
        from repro.core.controller import DifaneNetwork
        from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
        from repro.flowspace.packet import Packet
        from repro.net.topology import TopologyBuilder
        from repro.workloads.policies import routing_policy_for_topology

        topo = TopologyBuilder.star(3, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, FIVE_TUPLE_LAYOUT)
        dn = DifaneNetwork.build(
            topo, rules, FIVE_TUPLE_LAYOUT, authority_switches=["hub"],
        )
        packets = [
            Packet.from_fields(
                FIVE_TUPLE_LAYOUT,
                flow_id=index,
                nw_src=0x0A000000 | index,
                nw_dst=host_ips["h1"],
                nw_proto=6,
                tp_src=2000 + index,
                tp_dst=80,
            )
            for index in range(5)
        ]
        for index, packet in enumerate(packets):
            dn.send_at(index * 1e-3, "h0", packet)
        dn.run(until=1.0)
        return dn

    def test_difane_run_populates_registry_and_tracer(self):
        previous = obs_context.current()
        try:
            context = fresh_run_context(trace=True)
            dn = self._small_difane()
            metrics = context.metrics
            assert metrics.value("packets_injected_total") == 5
            assert metrics.value("packets_delivered_total") == len(
                dn.network.delivered()
            )
            # Pipeline stage counters saw every classification.
            assert metrics.sum_counters("pipeline_lookups_total") > 0
            # The difane stat mirrors equal the python-int counters.
            assert metrics.sum_counters("difane_cache_installs_sent_total") == sum(
                s.cache_installs_sent for s in dn.switches()
            )
            assert metrics.sum_counters("difane_redirects_handled_total") == sum(
                s.redirects_handled for s in dn.switches()
            )
            kinds = {event.kind for event in context.tracer.events()}
            assert TraceKind.INGRESS in kinds
            assert TraceKind.DELIVERED in kinds
            assert TraceKind.REDIRECT in kinds or TraceKind.CACHE_HIT in kinds
        finally:
            obs_context.install(previous)

    def test_profile_run_records_stage_timings(self):
        previous = obs_context.current()
        try:
            context = fresh_run_context(profile=True)
            self._small_difane()
            snapshot = context.metrics.snapshot()
            profiled = [
                key for key in snapshot["histograms"]
                if key.startswith(STAGE_HISTOGRAM)
            ]
            assert profiled, "profiling produced no stage histograms"
            # Offered packets are named after what they fire, not the lane.
            injected = context.metrics.value(
                STAGE_HISTOGRAM, stage="callback:SimNetwork.inject_from_host"
            )
            assert injected["count"] == 5
            # And the canonical document excludes them.
            clean = context.metrics.snapshot(exclude_prefixes=("profile_",))
            assert all(
                not key.startswith(STAGE_HISTOGRAM)
                for key in clean["histograms"]
            )
        finally:
            obs_context.install(previous)

    @pytest.mark.parametrize("experiment, budget", [("M1", 0.05), ("C2", 0.2)])
    def test_counter_increments_per_packet_stay_within_budget(
        self, monkeypatch, experiment, budget
    ):
        """Per-packet statistics are collected from attributes, not pushed.

        Each packet still bumps its switch's, pipeline's and network's
        plain integers, but no registry ``Counter``; what remains pushed
        is per event (drop reasons; on C2 the shard, migrator and
        rebalancer control events, ≈ 0.15 per packet).
        """
        from repro.experiments.registry import SPECS
        from repro.obs.registry import Counter

        calls = [0]
        inc = Counter.inc

        def counting(counter, amount=1):
            calls[0] += 1
            inc(counter, amount)

        monkeypatch.setattr(Counter, "inc", counting)
        previous = obs_context.current()
        try:
            for _ in range(2):  # warm the artifact cache, then count
                context = fresh_run_context()
                calls[0] = 0
                SPECS[experiment](quick=True)
            injected = context.metrics.value("packets_injected_total")
        finally:
            obs_context.install(previous)
        assert injected > 0
        assert calls[0] / injected <= budget, (calls[0], injected)


# -- CLI --------------------------------------------------------------------------

class TestCli:
    def test_metrics_and_trace_out(self, tmp_path, capsys):
        from repro.cli import main

        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        code = main([
            "run", "E4", "--quick", "--no-plot",
            "--metrics-out", str(metrics_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        document = json.loads(metrics_path.read_text())
        assert document["schema"] == "difane-metrics/1"
        assert document["experiment"] == "E4-delay"
        assert document["metrics"]["counters"]["packets_injected_total"] > 0
        assert document["trace"]["truncated"] == 0
        rows = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        assert rows and all(row["experiment"] == "E4" for row in rows)
        kinds = {row["kind"] for row in rows}
        assert "ingress" in kinds and "delivered" in kinds
