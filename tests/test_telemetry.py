"""Telemetry recorder, health detectors, export formats, and obs diff."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.dashboard import (
    authority_load_series,
    counter_timeline,
    render_report,
    sample_timelines,
)
from repro.analysis.obsdiff import diff_documents, render_diff
from repro.net.events import EventScheduler
from repro.obs import fresh_run_context
from repro.obs.export import prometheus_text, telemetry_jsonl_lines, write_telemetry_jsonl
from repro.obs.health import (
    CACHE_CHURN_THRESHOLD,
    IMBALANCE_MIN_LOAD,
    authority_imbalance,
    evaluate_telemetry,
    jain_fairness,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import (
    DEFAULT_TELEMETRY_INTERVAL_S,
    TELEMETRY_SCHEMA,
    TelemetryRecorder,
    telemetry_section,
)


@pytest.fixture(autouse=True)
def _fresh_context():
    yield fresh_run_context()


class TestRecorder:
    def test_window_attribution_is_exact(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(registry, interval_s=0.1, enabled=True)
        counter = registry.counter("events_total")
        counter.inc(4)
        index, deadline = recorder.roll(0, 0.25, [])
        assert (index, deadline) == (2, pytest.approx(0.3))
        counter.inc(6)
        recorder.flush(index, [])
        section = recorder.export()
        assert section["schema"] == TELEMETRY_SCHEMA
        # Window 0 holds the pre-roll increments; the empty window 1 is
        # skipped entirely; window 2 holds the residual flush.
        assert [w["index"] for w in section["windows"]] == [0, 2]
        assert section["windows"][0]["counters"] == {"events_total": 4}
        assert section["windows"][1]["counters"] == {"events_total": 6}

    def test_roll_closes_every_elapsed_window(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(registry, interval_s=0.05, enabled=True)
        index, deadline = recorder.roll(0, 0.26, [])
        assert index == 5
        assert deadline == pytest.approx(0.3)

    def test_boundary_event_lands_in_next_window(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(registry, interval_s=0.1, enabled=True)
        counter = registry.counter("events_total")
        counter.inc()  # before t=0.1
        index, _ = recorder.roll(0, 0.1, [])  # an event exactly at the boundary
        counter.inc()  # the boundary event's effect
        recorder.flush(index, [])
        windows = recorder.export()["windows"]
        assert [w["index"] for w in windows] == [0, 1]
        assert all(w["counters"]["events_total"] == 1 for w in windows)

    def test_probe_samples_max_merge_within_window(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(registry, interval_s=0.1, enabled=True)
        recorder.flush(0, [lambda: {"level": 3.0}])
        recorder.flush(0, [lambda: {"level": 2.0}])
        windows = recorder.export()["windows"]
        assert windows[0]["samples"] == {"level": 3.0}

    def test_excluded_prefixes_never_recorded(self):
        registry = MetricsRegistry()
        recorder = TelemetryRecorder(registry, interval_s=0.1, enabled=True)
        registry.counter("profile_lookup").inc(5)
        registry.counter("artifact_cache_hits_total").inc(5)
        registry.counter("real_total").inc(1)
        recorder.flush(0, [])
        assert recorder.export()["windows"][0]["counters"] == {"real_total": 1}

    def test_merge_dump_equals_serial_accumulation(self):
        registry = MetricsRegistry()
        serial = TelemetryRecorder(registry, interval_s=0.1, enabled=True)
        counter = registry.counter("events_total")
        counter.inc(3)
        index, _ = serial.roll(0, 0.15, [])
        counter.inc(2)
        serial.flush(index, [])

        # The same history split across two "workers".
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        worker_a = TelemetryRecorder(reg_a, interval_s=0.1, enabled=True)
        reg_a.counter("events_total").inc(3)
        worker_a.flush(0, [])
        worker_b = TelemetryRecorder(reg_b, interval_s=0.1, enabled=True)
        index, _ = worker_b.roll(0, 0.15, [])
        reg_b.counter("events_total").inc(2)
        worker_b.flush(index, [])

        parent = TelemetryRecorder(MetricsRegistry(), interval_s=0.1, enabled=True)
        parent.merge_dump(worker_b.dump_windows())  # order must not matter
        parent.merge_dump(worker_a.dump_windows())
        assert parent.export()["windows"] == serial.export()["windows"]

    def test_merge_rejects_mismatched_interval(self):
        parent = TelemetryRecorder(MetricsRegistry(), interval_s=0.1, enabled=True)
        other = TelemetryRecorder(MetricsRegistry(), interval_s=0.2, enabled=True)
        other.flush(0, [lambda: {"level": 1.0}])
        with pytest.raises(ValueError):
            parent.merge_dump(other.dump_windows())

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryRecorder(MetricsRegistry(), interval_s=0.0)


class TestSchedulerSampling:
    def test_scheduler_closes_windows_on_simulated_time(self):
        context = fresh_run_context(telemetry=0.1)
        counter = context.metrics.counter("ticks_total")
        scheduler = EventScheduler()
        for step in range(5):
            scheduler.schedule_at(step * 0.06, counter.inc)
        scheduler.run()
        windows = context.telemetry.export()["windows"]
        # Events at 0, 0.06 → window 0; 0.12, 0.18 → window 1; 0.24 → 2.
        assert [w["counters"]["ticks_total"] for w in windows] == [2, 2, 1]

    def test_disabled_recorder_records_nothing(self):
        context = fresh_run_context()
        assert not context.telemetry.enabled
        scheduler = EventScheduler()
        scheduler.schedule_at(0.2, lambda: None)
        scheduler.run()
        assert len(context.telemetry) == 0

    def test_probes_sampled_at_window_close(self):
        context = fresh_run_context(telemetry=0.1)
        scheduler = EventScheduler()
        levels = iter([5.0, 9.0, 2.0])
        scheduler.add_probe(lambda: {"occupancy": next(levels)})
        for step in range(3):
            scheduler.schedule_at(0.05 + step * 0.1, lambda: None)
        scheduler.run()
        windows = context.telemetry.export()["windows"]
        by_index = {w["index"]: w["samples"]["occupancy"] for w in windows}
        assert by_index == {0: 5.0, 1: 9.0, 2: 2.0}

    def test_cursor_persists_across_run_calls(self):
        context = fresh_run_context(telemetry=0.1)
        counter = context.metrics.counter("ticks_total")
        scheduler = EventScheduler()
        scheduler.schedule_at(0.05, counter.inc)
        scheduler.run()
        scheduler.schedule_at(0.15, counter.inc)
        scheduler.run()
        windows = context.telemetry.export()["windows"]
        assert [w["index"] for w in windows] == [0, 1]

    def test_fresh_context_defaults(self):
        assert fresh_run_context(telemetry=True).telemetry.interval_s == \
            DEFAULT_TELEMETRY_INTERVAL_S
        assert fresh_run_context(telemetry=0.25).telemetry.interval_s == 0.25
        assert not fresh_run_context(telemetry=False).telemetry.enabled
        # Telemetry needs a live registry to sample.
        assert not fresh_run_context(
            metrics_enabled=False, telemetry=True
        ).telemetry.enabled


def _window(index, counters, interval=0.05, samples=None):
    window = {
        "index": index,
        "start": round(index * interval, 9),
        "end": round((index + 1) * interval, 9),
        "counters": counters,
    }
    if samples:
        window["samples"] = samples
    return window


def _section(windows, interval=0.05):
    return {"schema": TELEMETRY_SCHEMA, "interval_s": interval, "windows": windows}


class TestHealth:
    def test_jain_fairness(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([10, 0]) == pytest.approx(0.5)

    def test_imbalance_fires_on_skewed_load(self):
        load = float(IMBALANCE_MIN_LOAD)
        section = _section([
            _window(0, {
                "difane_redirects_handled_total{switch=a}": load,
                "difane_redirects_handled_total{switch=b}": load,
            }),
            _window(1, {"difane_redirects_handled_total{switch=a}": 2 * load}),
        ])
        findings = evaluate_telemetry(section)
        imbalance = [f for f in findings if f["detector"] == "authority-imbalance"]
        assert [f["window"] for f in imbalance] == [1]
        assert imbalance[0]["severity"] == "warning"

    def test_imbalance_needs_two_authorities_and_load(self):
        # One authority → no baseline to be unfair against; tiny windows
        # below the load floor are skipped too.
        section = _section([
            _window(0, {"difane_redirects_handled_total{switch=a}": 100.0}),
            _window(1, {
                "difane_redirects_handled_total{switch=a}": 1.0,
            }),
        ])
        assert not [
            f for f in evaluate_telemetry(section)
            if f["detector"] == "authority-imbalance"
        ]

    def test_degraded_mode_is_critical(self):
        section = _section([
            _window(0, {"difane_degraded_packets_total{switch=a}": 3.0}),
        ])
        findings = [
            f for f in evaluate_telemetry(section)
            if f["detector"] == "degraded-mode"
        ]
        assert findings and findings[0]["severity"] == "critical"

    def test_cache_churn_from_probe_levels(self):
        churn = float(CACHE_CHURN_THRESHOLD)
        section = _section([
            _window(0, {}, samples={"difane_cache_evictions{switch=a}": 2.0}),
            _window(1, {}, samples={
                "difane_cache_evictions{switch=a}": 2.0 + churn,
            }),
        ])
        findings = [
            f for f in evaluate_telemetry(section)
            if f["detector"] == "cache-churn"
        ]
        assert [f["window"] for f in findings] == [1]

    def test_findings_deterministic(self):
        section = _section([
            _window(0, {
                "difane_redirects_handled_total{switch=a}": 50.0,
                "difane_redirects_handled_total{switch=b}": 1.0,
                "difane_degraded_packets_total{switch=a}": 1.0,
            }),
        ])
        assert evaluate_telemetry(section) == evaluate_telemetry(section)

    def test_zero_windows_yield_no_findings(self):
        assert evaluate_telemetry(_section([])) == []

    def test_single_balanced_window_yields_no_actionable_findings(self):
        # One window with balanced load: no trend, no baseline, nothing
        # beyond the informational top-switches digest may fire.
        load = float(IMBALANCE_MIN_LOAD)
        section = _section([
            _window(0, {
                "difane_redirects_handled_total{switch=a}": load,
                "difane_redirects_handled_total{switch=b}": load,
            }),
        ])
        findings = evaluate_telemetry(section)
        assert [f for f in findings if f["severity"] != "info"] == []

    def test_all_zero_loads_yield_no_spurious_findings(self):
        # Windows exist but carry no authority load at all (e.g. a run
        # where every packet hit the ingress cache): the imbalance
        # detector must not divide by a zero total or flag Jain=1.0
        # noise, and no other detector may fire on silence.
        section = _section([
            _window(0, {"packets_delivered_total": 10.0}),
            _window(1, {
                "difane_redirects_handled_total{switch=a}": 0.0,
                "difane_redirects_handled_total{switch=b}": 0.0,
            }),
            _window(2, {}),
        ])
        assert evaluate_telemetry(section) == []


_AUTHORITY_NAMES = "abcd"

#: Per-window redirect loads on 1-4 authorities: ``None`` leaves the
#: switch out of the window, and loads run from zero through values
#: below and above the imbalance load floor.
_AUTHORITY_LOADS = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(
        st.one_of(st.none(), st.integers(0, 3 * IMBALANCE_MIN_LOAD)),
        min_size=n, max_size=n,
    ),
    min_size=1, max_size=6,
))


@settings(
    max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=_AUTHORITY_LOADS)
def test_imbalance_rule_is_the_detector(rows):
    # The rule the rebalancer applies to its own deltas fires exactly
    # where the telemetry detector reports authority-imbalance, with the
    # fairness the finding prints.
    windows = [
        _window(index, {
            f"difane_redirects_handled_total{{switch={_AUTHORITY_NAMES[j]}}}": float(load)
            for j, load in enumerate(row) if load is not None
        })
        for index, row in enumerate(rows)
    ]
    findings = {
        f["window"]: f for f in evaluate_telemetry(_section(windows))
        if f["detector"] == "authority-imbalance"
    }
    columns = sorted({j for row in rows for j, load in enumerate(row) if load})
    for index, row in enumerate(rows):
        fairness, fires = authority_imbalance([float(row[j] or 0) for j in columns])
        assert fires == (index in findings)
        if fires:
            assert findings[index]["detail"].startswith(
                f"Jain fairness {fairness:.3f} over "
            )


class TestExport:
    def test_prometheus_counters_and_gauges(self):
        text = prometheus_text({
            "counters": {"requests_total{code=200}": 7, "plain_total": 1},
            "gauges": {"depth": 2.5},
            "histograms": {},
        })
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{code="200"} 7' in text
        assert "plain_total 1" in text
        assert "depth 2.5" in text

    def test_prometheus_histogram_is_cumulative(self):
        text = prometheus_text({
            "counters": {}, "gauges": {},
            "histograms": {
                "latency": {
                    "count": 3, "sum": 0.6, "min": 0.1, "max": 0.3,
                    "buckets": {"0.125": 1, "0.25": 1, "+inf": 1},
                },
            },
        })
        lines = text.splitlines()
        buckets = [line for line in lines if "_bucket" in line]
        assert buckets[0].endswith(" 1")
        assert buckets[1].endswith(" 2")
        assert 'le="+Inf"} 3' in buckets[2]
        assert "latency_sum 0.6" in text
        assert "latency_count 3" in text

    def test_registry_snapshot_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("packets_total", reason="loss").inc(4)
        registry.histogram("delay_s").observe(1e-4)
        text = prometheus_text(registry.snapshot())
        assert 'packets_total{reason="loss"} 4' in text
        assert "delay_s_count 1" in text

    def test_telemetry_jsonl(self, tmp_path):
        section = _section([
            _window(0, {"a_total": 1.0}, samples={"level": 2.0}),
            _window(1, {"a_total": 3.0}),
        ])
        lines = telemetry_jsonl_lines(section)
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["samples"] == {"level": 2.0}
        section["findings"] = [{"detector": "x", "severity": "info",
                                "window": 0, "start": 0, "end": 1, "detail": "d"}]
        path = tmp_path / "tele.jsonl"
        count = write_telemetry_jsonl(path, section)
        assert count == 3
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[-1]["finding"]["detector"] == "x"


class TestDashboard:
    def test_counter_timeline_sums_children(self):
        section = _section([
            _window(0, {
                "difane_cache_hits_total{switch=a}": 2.0,
                "difane_cache_hits_total{switch=b}": 3.0,
            }),
        ], interval=0.1)
        series = counter_timeline(section, "difane_cache_hits_total")
        assert series.points() == [(0.0, 50.0)]  # 5 events / 0.1 s

    def test_authority_load_series_one_per_switch(self):
        section = _section([
            _window(0, {
                "difane_redirects_handled_total{switch=a}": 4.0,
                "difane_redirects_handled_total{switch=b}": 6.0,
            }),
        ])
        series = authority_load_series(section)
        assert [s.label for s in series] == ["a", "b"]
        assert series[1].y == [6.0]

    def test_sample_timelines(self):
        section = _section([
            _window(0, {}, samples={"difane_cache_occupancy{switch=a}": 7.0}),
        ])
        series = sample_timelines(section, "difane_cache_occupancy")
        assert len(series) == 1 and series[0].label == "a"

    def test_render_report_with_and_without_telemetry(self):
        document = {
            "schema": "difane-metrics/1", "experiment": "X", "title": "X run",
            "telemetry": _section([
                _window(0, {
                    "packets_delivered_total": 10.0,
                    "difane_redirects_handled_total{switch=a}": 4.0,
                }),
            ]),
            "trace": {"ingress": 1, "delivered": 1},
        }
        document["telemetry"]["findings"] = [{
            "detector": "degraded-mode", "severity": "critical",
            "window": 0, "start": 0.0, "end": 0.05, "detail": "d",
        }]
        text = render_report(document)
        assert "Throughput" in text
        assert "Authority-switch load" in text
        assert "degraded-mode" in text
        assert "Trace accounting" in text
        bare = render_report({"schema": "difane-metrics/1", "experiment": "X"})
        assert "no telemetry section" in bare


class TestObsDiff:
    def test_identical_documents(self):
        doc = {"schema": "difane-metrics/1", "experiment": "X",
               "metrics": {"counters": {"a_total": 1}}}
        diff = diff_documents(doc, json.loads(json.dumps(doc)))
        assert diff["identical"]
        assert render_diff(diff).strip() == "documents are identical"

    def test_counter_change_reported(self):
        base = {"metrics": {"counters": {"a_total": 1, "gone_total": 2}}}
        cand = {"metrics": {"counters": {"a_total": 3, "new_total": 1}}}
        diff = diff_documents(base, cand)
        assert not diff["identical"]
        changes = {c["key"]: c["change"] for c in diff["sections"]["metrics"]}
        assert changes == {
            "counters.a_total": "changed",
            "counters.gone_total": "removed",
            "counters.new_total": "added",
        }

    def test_relative_tolerance(self):
        base = {"metrics": {"counters": {"a_total": 100}}}
        cand = {"metrics": {"counters": {"a_total": 101}}}
        assert not diff_documents(base, cand)["identical"]
        assert diff_documents(base, cand, rel_tolerance=0.05)["identical"]

    def test_new_critical_finding_is_regression(self):
        finding = {"detector": "degraded-mode", "severity": "critical",
                   "window": 1, "start": 0.05, "end": 0.1, "detail": "d"}
        base = {"telemetry": _section([]) | {"findings": []}}
        cand = {"telemetry": _section([]) | {"findings": [finding]}}
        diff = diff_documents(base, cand)
        assert diff["regressions"] == [finding]
        assert "REGRESSION" in render_diff(diff)

    def test_telemetry_window_drift_reported(self):
        base = {"telemetry": _section([_window(0, {"a_total": 1.0})])}
        cand = {"telemetry": _section([_window(0, {"a_total": 2.0})])}
        diff = diff_documents(base, cand)
        keys = [c["key"] for c in diff["sections"]["telemetry"]]
        assert keys == ["windows.0.a_total"]


class TestEndToEnd:
    def test_metrics_document_gains_versioned_section(self):
        from repro.experiments.common import ExperimentResult, metrics_document

        context = fresh_run_context(telemetry=0.1)
        counter = context.metrics.counter("events_total")
        scheduler = EventScheduler()
        scheduler.schedule_at(0.05, counter.inc)
        scheduler.run()
        document = metrics_document(
            ExperimentResult(name="T", title="t"), context=context
        )
        assert document["telemetry"]["schema"] == TELEMETRY_SCHEMA
        assert document["telemetry"]["windows"]
        assert "findings" in document["telemetry"]
        # Telemetry off → no section at all (documents stay byte-stable).
        plain = fresh_run_context()
        document = metrics_document(
            ExperimentResult(name="T", title="t"), context=plain
        )
        assert "telemetry" not in document

    def test_telemetry_section_helper_attaches_findings(self):
        context = fresh_run_context(telemetry=0.1)
        context.metrics.counter(
            "difane_degraded_packets_total", switch="a"
        ).inc(2)
        context.telemetry.flush(0, [])
        section = telemetry_section(context.telemetry)
        assert any(f["detector"] == "degraded-mode" for f in section["findings"])


class TestChaosAcceptance:
    """The PR's acceptance scenario, end to end.

    A chaos soak with an injected authority kill, run with telemetry:
    the document must carry per-window authority-load series and at
    least one imbalance/degraded-mode finding; ``repro report`` must
    render it; ``repro obs diff`` must flag the regression against a
    fault-free baseline.
    """

    def _soak_document(self, **kwargs):
        from repro.experiments.chaos import run_chaos_soak
        from repro.experiments.common import metrics_document

        context = fresh_run_context(telemetry=True)
        result = run_chaos_soak(rate=1_500.0, duration=0.4, **kwargs)
        return result, metrics_document(result, context=context)

    def test_kill_surfaces_in_series_findings_report_and_diff(self):
        # No failover backstop, caches pinned cold: the authority kill
        # must orphan partitions (degraded path) and skew redirect load.
        faulty_result, faulty = self._soak_document(
            cache_capacity=0, replication=1
        )
        _, clean = self._soak_document()

        labels = [s.label for s in faulty_result.series]
        assert "authority load: dist0" in labels
        assert "authority load: dist1" in labels
        assert faulty_result.notes["telemetry_windows"] > 0

        detectors = {
            f["detector"]: f["severity"]
            for f in faulty["telemetry"]["findings"]
        }
        assert detectors.get("authority-imbalance") == "warning"
        assert detectors.get("degraded-mode") == "critical"

        text = render_report(faulty)
        assert "Authority-switch load" in text
        assert "degraded-mode" in text

        diff = diff_documents(clean, faulty)
        assert diff["regressions"], "kill run must regress vs fault-free"
        assert "REGRESSION" in render_diff(diff)
        # The clean baseline itself carries no warning/critical finding.
        assert not [
            f for f in clean["telemetry"]["findings"]
            if f["severity"] in ("warning", "critical")
        ]
