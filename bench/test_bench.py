"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Tier-1 collects only ``tests/``; these pin the harness so that a number it
prints can be trusted: self times telescope, patching leaves no trace,
missing hooks are survivable, digests ignore what must be ignored, and the
whole suite runs end to end at ``--quick`` size.
"""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for path in (BENCH_DIR, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import calibrate  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class FakeClock:
    """An integer clock the test advances by hand (exact arithmetic)."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# A span tree: (layer index, ticks before children, children, ticks after).
_span_trees = st.recursive(
    st.tuples(st.integers(0, 3), st.integers(0, 50), st.just(()),
              st.integers(0, 50)),
    lambda children: st.tuples(
        st.integers(0, 3), st.integers(0, 50),
        st.lists(children, max_size=4).map(tuple), st.integers(0, 50),
    ),
    max_leaves=25,
)


def _play(tracer, clock, tree, expected):
    layer, before, children, after = tree
    frame = tracer.begin(f"layer{layer}", f"name{layer}")
    clock.now += before
    for child in children:
        _play(tracer, clock, child, expected)
    clock.now += after
    tracer.end(frame)
    expected[f"layer{layer}"] = expected.get(f"layer{layer}", 0) + before + after


class TestSelfTimes:
    @settings(max_examples=200, deadline=None)
    @given(_span_trees)
    def test_self_times_telescope_to_the_root(self, tree):
        """Σ self time over all spans == the root span's duration, and each
        layer's self time is exactly the ticks spent at its own level —
        the idiom PR 5's flowtrace stages are pinned with."""
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)
        expected = {}
        root = tracer.begin("root", "root")
        _play(tracer, clock, tree, expected)
        clock.now += 7
        duration = tracer.end(root)
        expected["root"] = 7
        assert duration == clock.now
        assert sum(own for _, own in tracer.layers.values()) == duration
        assert {layer: own for layer, (_, own) in tracer.layers.items()} == expected
        assert sum(own for _, _, own in tracer.names.values()) == duration

    def test_spans_close_innermost_first(self):
        tracer = tracing.Tracer(clock=FakeClock())
        outer = tracer.begin("a", "outer")
        tracer.begin("a", "inner")
        with pytest.raises(RuntimeError):
            tracer.end(outer)

    def test_each_next_of_a_generator_is_a_span(self):
        tracer = tracing.Tracer(clock=FakeClock())

        def numbers(count):
            yield from range(count)

        traced = tracer.wrap(numbers, "workloads", "numbers")
        assert list(traced(3)) == [0, 1, 2]
        assert tracer.names["numbers"][0] == 4  # three items + exhaustion


def _repro_bindings():
    """``id`` of every attribute of every loaded repro module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".", 1)[0] != "repro":
            continue
        for attribute, value in vars(module).items():
            seen[(name, attribute)] = id(value)
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for member, raw in vars(value).items():
                    seen[(name, attribute, member)] = id(raw)
    return seen


class TestPatching:
    def test_patch_then_unpatch_leaves_repro_identical(self):
        import repro.experiments.caching  # noqa: F401  (a from-import site)

        tracer = tracing.Tracer()
        for _, target, _ in tracing.HOOKS:
            tracing._resolve(target)  # import every hooked module first
        before = _repro_bindings()
        tracer.patch()
        patched = _repro_bindings()
        tracer.unpatch()
        assert _repro_bindings() == before
        changed = {key for key in before if patched[key] != before[key]}
        assert len(changed) >= len(tracing.HOOKS)
        # ``from x import y`` copies were caught, not only the definition.
        assert ("repro.experiments.caching", "simulate_wildcard_cache") in changed
        assert ("repro.baselines.microflow_cache", "simulate_wildcard_cache") in changed

    def test_every_hook_resolves_at_this_commit(self):
        tracer = tracing.Tracer()
        try:
            tracer.patch()
        finally:
            tracer.unpatch()
        assert tracer.missing == []

    def test_a_missing_hook_is_skipped_and_counted(self):
        hooks = (
            ("obs", "repro.no_such_module:thing", None),
            ("net.events", "repro.net.events:EventScheduler.no_such_method", None),
            ("net.events", "repro.net.events:NoSuchClass.run", None),
            ("net.events", "repro.net.events:EventScheduler.run", None),
        )
        tracer = tracing.Tracer()
        before = _repro_bindings()
        try:
            tracer.patch(hooks)
            assert tracer.missing == [target for _, target, _ in hooks[:3]]
            assert len(tracer._patched) == 1
        finally:
            tracer.unpatch()
        assert _repro_bindings() == before

    def test_classmethods_stay_classmethods(self):
        from repro.core.controller import DifaneNetwork

        tracer = tracing.Tracer()
        try:
            tracer.patch()
            assert isinstance(vars(DifaneNetwork)["build"], classmethod)
        finally:
            tracer.unpatch()

    def test_dispatch_spans_inherit_the_trace_and_name_their_cause(self):
        from repro.net.events import EventScheduler

        tracer = tracing.Tracer(sample_every=1)
        fired = []
        try:
            tracer.patch()
            root = tracer.begin("experiments", "run:test")
            scheduler = EventScheduler()

            def second():
                fired.append("second")

            def first():
                fired.append("first")
                scheduler.schedule(1.0, second)

            # As if it were a callback of the simulator, not of the driver
            # (whose schedules each start a new trace).
            first.__module__ = "repro.net.simnet"
            scheduler.schedule_at(1.0, first)   # offered by the driver
            scheduler.schedule_at(5.0, second)  # a second, unrelated trace
            scheduler.run()
            tracer.end(root)
        finally:
            tracer.unpatch()
        assert fired == ["first", "second", "second"]
        assert tracer.dispatches == 3
        spans = {span[0]: span for span in tracer.spans}
        dispatches = [s for s in tracer.spans if s[1].startswith("dispatch:")]
        chain = [s for s in dispatches if s[7] == dispatches[0][7]]
        assert len(chain) == 2 and len({s[7] for s in dispatches}) == 2
        for span in dispatches:
            cause = spans[span[6]]
            assert cause[1].startswith("EventScheduler.schedule")
        # The chained dispatch was scheduled from inside the first one.
        assert spans[chain[1][6]][5] == chain[0][0]
        assert sum(own for _, own in tracer.layers.values()) == pytest.approx(
            spans[1][4] - spans[1][3])

    def test_module_layers(self):
        assert tracing.layer_of_module("repro.net.events") == "net.events"
        assert tracing.layer_of_module("repro.net.chaos") == "net.simnet"
        assert tracing.layer_of_module("repro.switch.switch") == "core.authority"
        assert tracing.layer_of_module("repro.switch.tcam") == "switch.pipeline"
        assert tracing.layer_of_module("repro.experiments.streaming") == "experiments"
        assert tracing.layer_of_module(None) == "experiments"
        assert {layer for _, layer in tracing._MODULE_LAYERS} <= set(tracing.LAYERS)
        assert {layer for layer, _, _ in tracing.HOOKS} <= set(tracing.LAYERS)


class TestDigest:
    DOCUMENT = {
        "schema": "difane-metrics/1",
        "notes": {"engine": "linear", "seed": 3, "points": {"a": {"x": 1}}},
        "metrics": {
            "counters": {"packets_delivered_total": 7.0},
            "histograms": {"profile_stage_seconds{stage=x}": {"sum": 0.1}},
        },
    }

    def test_digest_ignores_engine_note_and_host_time_keys(self):
        other = json.loads(json.dumps(self.DOCUMENT))
        other["notes"]["engine"] = "dtree"
        other["metrics"]["histograms"]["profile_stage_seconds{stage=x}"]["sum"] = 9.9
        other["metrics"]["counters"]["artifact_cache_hits_total"] = 4.0
        assert unit.document_digest(other) == unit.document_digest(self.DOCUMENT)

    def test_digest_sees_everything_else(self):
        other = json.loads(json.dumps(self.DOCUMENT))
        other["metrics"]["counters"]["packets_delivered_total"] = 8.0
        assert unit.document_digest(other) != unit.document_digest(self.DOCUMENT)
        other = json.loads(json.dumps(self.DOCUMENT))
        other["notes"]["points"]["a"]["x"] = 2
        assert unit.document_digest(other) != unit.document_digest(self.DOCUMENT)

    def test_divergence_counts_differing_leaves(self):
        reference = unit.canonical_document(self.DOCUMENT)
        assert run.divergence(reference, reference)["differing"] == 0
        other = json.loads(json.dumps(reference))
        other["notes"]["points"]["a"]["x"] = 2
        other["notes"]["extra"] = [1, 2]
        assert run.divergence(reference, other) == {
            "differing": 2, "leaves": len(run.leaves(reference)) + 1,
        }


class TestCalibrator:
    def test_clock_skips_sampling_and_calibrated_scales_by_speed(self):
        ticks = iter(range(0, 10_000, 10))
        calibrator = calibrate.Calibrator(timer=lambda: next(ticks) / 1000.0)
        before = calibrator.clock()
        calibrator._sample()
        after = calibrator.clock()
        # The sample spans four timer reads (30 ms); the clock saw only the
        # two 10 ms steps outside it.
        assert after - before == pytest.approx(0.020)
        assert len(calibrator.samples) == 1
        at, speed = calibrator.samples[0]
        nominal = (calibrate.ARITH_NOMINAL_S * calibrate.OBJECTS_NOMINAL_S) ** 0.5
        assert speed == pytest.approx((nominal / 0.010) ** calibrate.SENSITIVITY)
        assert calibrator.calibrated(before, after) == pytest.approx(
            (after - before) * speed)

    def test_no_samples_means_wall_time(self):
        calibrator = calibrate.Calibrator()
        assert calibrator.calibrated(1.0, 3.5) == 2.5


class TestCompare:
    CONTRACT = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "sim_miss_rate", "unit": "share", "better": "lower", "bound": 0.1},
        ],
    }

    @staticmethod
    def result(rate, spread=0.02, miss=0.3, failed=0):
        return {"schema": "s", "comparable": True, "seed": 0, "sizes": {}, "workloads": {
            "w": {"failed": failed, "end_to_end": {
                "pkts_per_s": {"value": rate, "min": rate * (1 - spread / 2),
                               "max": rate * (1 + spread / 2), "n": 3},
                "sim_miss_rate": {"value": miss},
            }},
        }}

    def verdicts(self, a, b):
        rows = compare.compare(a, b, self.CONTRACT)
        return {row["metric"]: row["verdict"] for row in rows}

    def test_within_bound_is_same(self):
        assert self.verdicts(self.result(100.0), self.result(95.0)) == {
            "pkts_per_s": "same", "sim_miss_rate": "same", "failed": "same"}

    def test_beyond_bound_is_worse_or_better(self):
        assert self.verdicts(self.result(100.0), self.result(80.0))["pkts_per_s"] == "worse"
        assert self.verdicts(self.result(100.0), self.result(120.0))["pkts_per_s"] == "better"

    def test_wide_spread_is_unresolved(self):
        noisy = self.result(100.0, spread=0.3)
        assert self.verdicts(noisy, self.result(80.0))["pkts_per_s"] == "unresolved"

    def test_simulated_metrics_and_failures_compare_exactly(self):
        verdicts = self.verdicts(self.result(100.0), self.result(100.0, miss=0.3001, failed=2))
        assert verdicts["sim_miss_rate"] == "worse"
        assert verdicts["failed"] == "worse"
        assert self.verdicts(self.result(100.0, miss=0.3),
                             self.result(100.0, miss=0.2))["sim_miss_rate"] == "better"

    def test_quick_or_mismatched_results_are_refused(self):
        quick = dict(self.result(100.0), comparable=False)
        assert "quick" in compare.incomparable(quick, self.result(100.0))
        other_seed = dict(self.result(100.0), seed=1)
        assert "seed" in compare.incomparable(self.result(100.0), other_seed)
        assert compare.incomparable(self.result(100.0), self.result(90.0)) is None


class TestContract:
    def test_benchmark_json_lists_what_the_code_measures(self):
        contract = run.load_contract()
        assert contract["paths"] == ["bench"]
        assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
        assert "setup_s" in [m["name"] for m in contract["end_to_end"]]
        traced = {
            "host_speed": 1.0, "run_s": 2.0,
            "outcome": {"offered": 10, "redirects": 1, "retries": 0, "hit_rate": 0.5},
            "trace": {"root_s": 1.0, "layers": {}, "names": {}, "counters": {},
                      "delay_p99_s": 0.0, "dispatches": 0, "spans_sampled": 0,
                      "missing_hooks": []},
        }
        measured = run.per_layer_metrics(traced, {"run_s": 1.0}, 0)
        listed = {m["name"]: m["unit"] for m in contract["per_layer"]}
        assert {name: m["unit"] for name, m in measured.items()} == listed
        assert measured["trace.overhead"]["value"] == 1.0


def test_quick_suite_smoke(tmp_path):
    """The <30 s smoke: every workload, untraced and traced, at tiny sizes;
    every check passes and the result is marked non-comparable."""
    out = tmp_path / "quick.json"
    finished = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--quick",
         "--out", str(out), "--trace-dir", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert finished.returncode == 0, finished.stdout[-2000:]
    result = json.loads(out.read_text())
    contract = run.load_contract()
    assert result["comparable"] is False
    assert set(result["workloads"]) == set(WORKLOADS)
    for name, measured in result["workloads"].items():
        assert measured["correct"] and measured["failed"] == 0, name
        assert set(measured["end_to_end"]) == {
            m["name"] for m in contract["end_to_end"]}
        assert set(measured["per_layer"]) == {
            m["name"] for m in contract["per_layer"]}
        assert measured["per_layer"]["trace.missing_hooks"]["value"] == 0
        assert (tmp_path / f"{name}.spans.jsonl").exists()
    columnar = result["workloads"]["m1_columnar"]
    assert columnar["reference"] == "m1_scalar"
    for name in ("c2_heal", "e7_acl"):
        assert result["workloads"][name]["sim_divergence"] == 0
    assert result["workloads"]["e7_acl"]["per_layer"]["net.events.calls"]["value"] == 0
    assert result["workloads"]["c2_heal"]["per_layer"]["core.shards.calls"]["value"] > 0
    assert compare.incomparable(result, result) is not None
