"""Per-class QoS: classification, SLO detectors, residency protection.

Covers the QoS observability surface end to end at unit scale:
classifier semantics, the histogram-bucket quantile math, the
``slo-burn`` / ``slo-exhausted`` detector edge cases (single-window
histories, classes absent from windows, zero budgets), cache residency
protection against the scan oracle, admission-shed drop attribution,
the obs-diff severity-upgrade regression rule, dashboard empty states,
Prometheus class labels, and the additive-gating contract (QoS off ⇒
no ``qos_*`` key anywhere).  The flash-crowd differentiation story and
``--jobs`` byte-identity run at experiment scale at the bottom.
"""

import json

import pytest

from repro.flowspace import Forward, Match, Packet, Rule, TWO_FIELD_LAYOUT
from repro.flowspace.rule import RuleKind
from repro.obs.attribution import attribute_reason
from repro.obs.health import slo_report, qos_class_summary
from repro.obs.qos import (
    DEFAULT_CLASS,
    FlowClass,
    FlowClassifier,
    QosPolicy,
    SloSpec,
    bucket_quantile,
    delay_bucket,
)
from repro.switch import Tcam
from repro.switch.cache import CacheManager, EvictionPolicy, ScanCacheManager

L = TWO_FIELD_LAYOUT


def flow_class(name, f1, **kwargs):
    return FlowClass(name, Match.build(L, f1=f1), **kwargs)


def bits(f1, f2=0):
    return Packet.from_fields(L, f1=f1, f2=f2).header_bits


# ---------------------------------------------------------------------------
# Classifier
# ---------------------------------------------------------------------------

def test_classifier_first_match_wins_and_default():
    classifier = FlowClassifier(
        [flow_class("gold", 3), flow_class("silver", 3), flow_class("gold", 4)]
    )
    assert classifier.classify_bits(bits(3)) == "gold"
    assert classifier.classify_bits(bits(4)) == "gold"
    assert classifier.classify_bits(bits(5)) == DEFAULT_CLASS
    assert classifier.classify(Packet.from_fields(L, f1=3)) == "gold"


def test_classifier_class_names_deduped_default_last():
    classifier = FlowClassifier(
        [flow_class("gold", 1), flow_class("silver", 2), flow_class("gold", 3)]
    )
    assert classifier.class_names() == ["gold", "silver", DEFAULT_CLASS]
    # A configured class that shadows the default is not listed twice.
    classifier = FlowClassifier([flow_class(DEFAULT_CLASS, 1)])
    assert classifier.class_names() == [DEFAULT_CLASS]


def test_classifier_memoizes_by_header():
    classifier = FlowClassifier([flow_class("gold", 3)])
    assert classifier.classify_bits(bits(3)) == "gold"
    # Memo hit: mutating the class list no longer changes seen headers.
    classifier.classes.clear()
    assert classifier.classify_bits(bits(3)) == "gold"
    assert classifier.classify_bits(bits(7)) == DEFAULT_CLASS


def test_flow_class_validation():
    with pytest.raises(ValueError):
        FlowClass("", Match.build(L, f1=1))
    with pytest.raises(ValueError):
        flow_class("gold", 1, reserved_fraction=1.5)


# ---------------------------------------------------------------------------
# Buckets and quantiles
# ---------------------------------------------------------------------------

def test_delay_bucket_bounds():
    assert delay_bucket(0.0) == "0.0001"
    assert delay_bucket(100e-6) == "0.0001"
    assert delay_bucket(101e-6) == "0.00015"
    assert delay_bucket(1.0) == "+Inf"


def test_bucket_quantile():
    assert bucket_quantile({}, 0.99) is None
    counts = {"0.0001": 90.0, "0.0002": 9.0, "+Inf": 1.0}
    assert bucket_quantile(counts, 0.5) == 100e-6
    assert bucket_quantile(counts, 0.95) == 200e-6
    assert bucket_quantile(counts, 1.0) == float("inf")


# ---------------------------------------------------------------------------
# Policy knobs
# ---------------------------------------------------------------------------

def test_policy_weights_reservations_protection():
    policy = QosPolicy(
        FlowClassifier([
            flow_class("gold", 1, weight=8.0, reserved_fraction=0.25,
                       protected=True),
            flow_class("gold", 2, weight=8.0, reserved_fraction=0.5,
                       protected=True),
            flow_class("silver", 3, weight=1.0, reserved_fraction=0.01),
        ]),
        admission_threshold=4,
    )
    # Unit weights are elided so the cache's zero-overhead gate stays off.
    assert policy.class_weights() == {"gold": 8.0}
    # Duplicate class names take the max reservation; tiny fractions
    # round up to at least one entry.
    assert policy.reservations(8) == {"gold": 4, "silver": 1}
    assert policy.reservations(0) == {}
    assert policy.is_protected("gold")
    assert not policy.is_protected("silver")
    assert not policy.is_protected(DEFAULT_CLASS)
    with pytest.raises(ValueError):
        QosPolicy(FlowClassifier(), admission_threshold=0)
    with pytest.raises(ValueError):
        SloSpec("gold", budget=-0.1)
    with pytest.raises(ValueError):
        SloSpec("gold", latency_quantile=0.0)


# ---------------------------------------------------------------------------
# SLO detector edge cases (synthetic telemetry sections)
# ---------------------------------------------------------------------------

def _qos_counters(cls, cache=0.0, redirects=0.0, delivered=0.0, dropped=0.0):
    counters = {}
    if cache:
        counters[f"qos_cache_hits_total{{flow_class={cls},switch=e0}}"] = cache
    if redirects:
        counters[f"qos_redirects_total{{flow_class={cls},switch=e0}}"] = redirects
    if delivered:
        counters[f"qos_delivered_total{{flow_class={cls}}}"] = delivered
    if dropped:
        counters[f"qos_dropped_total{{flow_class={cls}}}"] = dropped
    return counters


def _section(spec_list, window_counters):
    return {
        "interval_s": 1.0,
        "slo_specs": [spec.export() for spec in spec_list],
        "windows": [
            {
                "index": i, "start": float(i), "end": float(i + 1),
                "counters": counters, "samples": {},
            }
            for i, counters in enumerate(window_counters)
        ],
    }


GOOD = dict(cache=9.0, redirects=1.0, delivered=10.0)   # miss 0.1
BAD = dict(cache=1.0, redirects=9.0, delivered=10.0)    # miss 0.9


def test_slo_single_window_history_never_burns():
    # One bad window is cold-start noise: the warm-up gate holds burn
    # findings until the short detector's span is populated, and a
    # 100% budget keeps exhaustion out of the picture.
    spec = SloSpec("gold", miss_rate_target=0.25, budget=1.0)
    report = slo_report(_section([spec], [_qos_counters("gold", **BAD)]))
    assert report["findings"] == []
    assert report["summary"]["gold"]["bad_windows"] == 1
    assert report["summary"]["gold"]["max_burn_short"] == 0.0


def test_slo_class_absent_from_windows():
    spec_gold = SloSpec("gold", miss_rate_target=0.25, budget=0.1)
    spec_ghost = SloSpec("ghost", miss_rate_target=0.25, budget=0.1)
    windows = [
        _qos_counters("gold", **GOOD),
        {},                                # nobody saw traffic
        _qos_counters("gold", **GOOD),
    ]
    report = slo_report(_section([spec_gold, spec_ghost], windows))
    assert report["findings"] == []
    # Absent windows are ineligible, never bad.
    assert report["summary"]["gold"]["eligible_windows"] == 2
    ghost = report["summary"]["ghost"]
    assert ghost["eligible_windows"] == 0
    assert ghost["bad_windows"] == 0
    assert ghost["budget_remaining"] == 1.0


def test_slo_zero_budget_exhausts_on_first_bad_window():
    spec = SloSpec("gold", miss_rate_target=0.25, budget=0.0)
    windows = [
        _qos_counters("gold", **GOOD),
        _qos_counters("gold", **BAD),
        _qos_counters("gold", **BAD),
    ]
    report = slo_report(_section([spec], windows))
    detectors = [(f["detector"], f["window"]) for f in report["findings"]]
    # Exhaustion fires exactly once, at the first bad window; burn math
    # is undefined at zero budget so no burn finding ever fires.
    assert detectors == [("slo-exhausted", 1)]
    summary = report["summary"]["gold"]
    assert summary["exhausted_findings"] == 1
    assert summary["burn_findings"] == 0
    assert summary["budget_remaining"] == 0.0


def test_slo_zero_budget_clean_run_keeps_full_budget():
    spec = SloSpec("gold", miss_rate_target=0.25, budget=0.0)
    report = slo_report(_section([spec], [_qos_counters("gold", **GOOD)]))
    assert report["findings"] == []
    assert report["summary"]["gold"]["budget_remaining"] == 1.0


def test_slo_sustained_burn_fires_warning_and_exhaustion():
    spec = SloSpec("gold", miss_rate_target=0.25, budget=0.1)
    windows = [_qos_counters("gold", **GOOD)] * 3 + \
        [_qos_counters("gold", **BAD)] * 3
    report = slo_report(_section([spec], windows))
    by_detector = {}
    for finding in report["findings"]:
        by_detector.setdefault(finding["detector"], []).append(finding)
    assert [f["window"] for f in by_detector["slo-burn"]] == [3, 4, 5]
    assert [f["window"] for f in by_detector["slo-exhausted"]] == [3]
    assert "burning" in by_detector["slo-burn"][0]["detail"]
    assert "miss-rate 0.900 > 0.25" in by_detector["slo-burn"][0]["detail"]
    summary = report["summary"]["gold"]
    assert summary["bad_windows"] == 3
    assert summary["budget_remaining"] == round((0.6 - 3) / 0.6, 6)


def test_slo_delivery_target():
    spec = SloSpec("gold", delivery_target=0.95, budget=0.0)
    windows = [_qos_counters("gold", cache=10.0, delivered=5.0, dropped=5.0)]
    report = slo_report(_section([spec], windows))
    assert report["findings"][0]["detector"] == "slo-exhausted"
    assert "delivery 0.500 < 0.95" in report["findings"][0]["detail"]


def test_qos_class_summary_totals():
    windows = [
        _qos_counters("gold", **GOOD),
        _qos_counters("gold", **BAD),
    ]
    summary = qos_class_summary(_section([], windows))
    assert list(summary) == ["gold"]
    gold = summary["gold"]
    assert gold["cache_hits"] == 10.0
    assert gold["redirects"] == 10.0
    assert gold["miss_rate"] == 0.5
    assert gold["redirect_p99_s"] is None  # no latency samples recorded
    # Falsy on a run with no qos counters at all: callers gate on it.
    assert qos_class_summary(_section([], [{}])) == {}


# ---------------------------------------------------------------------------
# Cache residency protection
# ---------------------------------------------------------------------------

def cache_rule(f1, flow_class=None, priority=5, port="x"):
    rule = Rule(
        Match.build(L, f1=f1), priority, Forward(port), kind=RuleKind.CACHE
    )
    rule.flow_class = flow_class
    return rule


def manager(cls=CacheManager, capacity=3, policy=EvictionPolicy.LRU, **kwargs):
    return cls(Tcam(L), capacity=capacity, policy=policy, **kwargs)


def surviving_f1(m):
    return sorted(rule.match.ternary.value for rule in m.cache_rules())


def test_reservation_shields_cross_class_eviction():
    m = manager(capacity=3, reserved={"gold": 2})
    m.install(cache_rule(1, "gold"), now=0.0)
    m.install(cache_rule(2, "gold"), now=1.0)
    m.install(cache_rule(3, "best-effort"), now=2.0)
    # LRU would evict rule 1 (oldest) — but gold is at its reservation,
    # so the best-effort entry goes instead.
    m.install(cache_rule(4, "best-effort"), now=3.0)
    assert m.occupancy() == 3
    classes = sorted(r.flow_class for r in m.cache_rules())
    assert classes == ["best-effort", "gold", "gold"]


def test_reservation_allows_same_class_and_excess_eviction():
    m = manager(capacity=2, reserved={"gold": 1})
    m.install(cache_rule(1, "gold"), now=0.0)
    m.install(cache_rule(2, "gold"), now=1.0)
    # Gold holds 2 > reserve 1: its LRU entry is fair game for others.
    m.install(cache_rule(3, "best-effort"), now=2.0)
    classes = sorted(r.flow_class for r in m.cache_rules())
    assert classes == ["best-effort", "gold"]
    # Same-class pressure always competes normally, reservation or not.
    m2 = manager(capacity=2, reserved={"gold": 2})
    m2.install(cache_rule(1, "gold"), now=0.0)
    m2.install(cache_rule(2, "gold"), now=1.0)
    assert m2.install(cache_rule(3, "gold"), now=2.0) is not None
    assert m2.occupancy() == 2


def test_reservation_full_shield_fails_install_but_not_shrink():
    m = manager(capacity=2, reserved={"gold": 2})
    m.install(cache_rule(1, "gold"), now=0.0)
    m.install(cache_rule(2, "gold"), now=1.0)
    # Every entry is shielded: the cross-class install has no victim.
    assert m.install(cache_rule(3, "best-effort"), now=2.0) is None
    assert m.occupancy() == 2
    assert sorted(r.flow_class for r in m.cache_rules()) == ["gold", "gold"]
    # A controller shrink must land regardless of reservations.
    evicted = m.set_capacity(1, now=3.0)
    assert len(evicted) == 1 and m.occupancy() == 1


def test_class_weight_biases_cost_eviction():
    kwargs = dict(policy=EvictionPolicy.COST, cost_tau=1.0)
    plain = manager(capacity=2, **kwargs)
    weighted = manager(capacity=2, class_weights={"gold": 8.0}, **kwargs)
    for m in (plain, weighted):
        m.install(cache_rule(1, "gold"), now=0.0)
        m.install(cache_rule(2, "best-effort"), now=0.0)
        # Best-effort is hotter: without weights gold is the victim.
        entry = m._entries[id(m.cache_rules()[1])]
        m._observe(entry, 3, 0.5)
        m.install(cache_rule(3, "best-effort"), now=1.0)
    assert sorted(r.flow_class for r in plain.cache_rules()) == \
        ["best-effort", "best-effort"]
    assert sorted(r.flow_class for r in weighted.cache_rules()) == \
        ["best-effort", "gold"]


@pytest.mark.parametrize(
    "policy", [EvictionPolicy.LRU, EvictionPolicy.FIFO, EvictionPolicy.COST]
)
def test_reservation_indexed_matches_scan_oracle(policy):
    classes = ["gold", "gold", "silver", None, "best-effort"]
    managers = [
        manager(cls, capacity=3, policy=policy,
                class_weights={"gold": 4.0}, reserved={"gold": 2, "silver": 1})
        for cls in (CacheManager, ScanCacheManager)
    ]
    for m in managers:
        clock = 0.0
        for step in range(24):
            f1 = step % 7
            m.install(cache_rule(f1, classes[step % len(classes)]), now=clock)
            clock += 0.25
            if step % 5 == 4:
                m.tcam.lookup(Packet.from_fields(L, f1=f1), now=clock)
            if step == 15:
                m.set_capacity(2, now=clock)
                m.set_capacity(3, now=clock)
    indexed, oracle = managers
    assert surviving_f1(indexed) == surviving_f1(oracle)
    assert [r.flow_class for r in indexed.cache_rules()] == \
        [r.flow_class for r in oracle.cache_rules()]
    assert indexed.eviction_breakdown() == oracle.eviction_breakdown()


# ---------------------------------------------------------------------------
# Attribution, diff, dashboard, export, gating
# ---------------------------------------------------------------------------

def test_admission_shed_attribution():
    assert attribute_reason("admission shed best-effort") == "admission-control"
    assert attribute_reason("admission shed gold") == "admission-control"


def _doc(severity):
    return {
        "schema": "difane-metrics/1",
        "telemetry": {
            "interval_s": 1.0,
            "windows": [],
            "findings": [{
                "detector": "slo-burn", "severity": severity, "window": 3,
                "start": 3.0, "end": 4.0, "detail": "class gold: burning",
            }],
        },
    }


def test_obs_diff_severity_upgrade_is_regression():
    from repro.analysis.obsdiff import diff_documents, render_diff

    diff = diff_documents(_doc("warning"), _doc("critical"))
    assert not diff["identical"]
    assert diff["new_findings"] == [] and diff["resolved_findings"] == []
    assert len(diff["changed_findings"]) == 1
    assert len(diff["regressions"]) == 1
    text = render_diff(diff)
    assert "warning -> critical" in text
    assert "REGRESSION" in text
    # Downgrades are changes but not regressions.
    diff = diff_documents(_doc("critical"), _doc("warning"))
    assert len(diff["changed_findings"]) == 1
    assert diff["regressions"] == []
    # Identity: same doc diffs empty.
    diff = diff_documents(_doc("warning"), _doc("warning"))
    assert diff["identical"]
    assert render_diff(diff) == "documents are identical\n"


def test_obs_diff_sees_per_class_sections():
    from repro.analysis.obsdiff import diff_documents

    base = {"telemetry": {"interval_s": 1.0, "windows": []}}
    cand = {"telemetry": {
        "interval_s": 1.0, "windows": [],
        "classes": {"gold": {"cache_hits": 5.0}},
        "slo": {"gold": {"bad_windows": 2}},
        "slo_specs": [{"flow_class": "gold", "budget": 0.1}],
    }}
    diff = diff_documents(base, cand)
    keys = [c["key"] for c in diff["sections"]["telemetry"]]
    assert "classes.gold.cache_hits" in keys
    assert "slo.gold.bad_windows" in keys
    assert "slo_specs.0.budget" in keys


def test_dashboard_empty_states_and_class_tables():
    from repro.analysis.dashboard import render_report

    report = render_report({"experiment": "t", "telemetry": {
        "interval_s": 2.5, "windows": [],
    }})
    assert "no windows closed" in report
    assert "2.5s interval" in report
    assert "Health findings: not evaluated for this document" in report

    window = {"index": 0, "start": 0.0, "end": 1.0,
              "counters": {}, "samples": {}}
    report = render_report({"experiment": "t", "telemetry": {
        "interval_s": 1.0, "windows": [window], "findings": [],
    }})
    assert "Health findings: none" in report

    report = render_report({"experiment": "t", "telemetry": {
        "interval_s": 1.0, "windows": [window], "findings": [],
        "classes": {"gold": {
            "cache_hits": 5.0, "authority_hits": 1.0, "redirects": 2.0,
            "miss_rate": 0.25, "delivered": 6.0, "dropped": 0.0,
            "shed": 0.0, "redirect_p99_s": 2e-4,
        }},
        "slo": {"gold": {
            "budget": 0.1, "eligible_windows": 10, "bad_windows": 2,
            "budget_remaining": -1.0, "max_burn_short": 3.33,
            "max_burn_long": 2.5, "burn_findings": 2,
            "exhausted_findings": 1,
        }},
    }})
    assert "Per-class traffic" in report
    assert "Per-class SLO error budgets" in report
    assert "0.0002s" in report
    assert "-100.0%" in report


def test_dashboard_renders_qos_sweep_points_from_notes():
    from repro.analysis.dashboard import render_report

    point = {
        "classes": {"gold": {
            "cache_hits": 5.0, "authority_hits": 0.0, "redirects": 2.0,
            "miss_rate": 0.28, "delivered": 6.0, "dropped": 0.0,
            "shed": 0.0, "redirect_p99_s": None,
        }},
        "slo": {"gold": {
            "budget": 0.1, "eligible_windows": 10, "bad_windows": 4,
            "budget_remaining": -3.0, "max_burn_short": 10.0,
            "max_burn_long": 4.0, "burn_findings": 3,
            "exhausted_findings": 1,
        }},
        "slo_findings": [{
            "window": 6, "severity": "warning", "detector": "slo-burn",
            "detail": "class gold: burning",
        }],
    }
    report = render_report({"experiment": "E9-qos-slo", "notes": {
        "points": {"off": point, "reserved": {**point, "slo_findings": []}},
    }})
    assert "Per-class traffic [off]" in report
    assert "Per-class SLO error budgets [off]" in report
    assert "SLO findings [off] (1)" in report
    assert "SLO findings [reserved]: none" in report
    # Non-QoS sweeps (plain scalar points) render no per-mode blocks.
    report = render_report({"experiment": "E8", "notes": {
        "points": {"lru/16": {"miss_rate": 0.1}},
    }})
    assert "Per-class" not in report


def test_prometheus_export_carries_class_labels():
    from repro.obs.export import prometheus_text

    text = prometheus_text({
        "counters": {
            "qos_delivered_total{flow_class=gold}": 5,
            "qos_redirect_delay_bucket_total{flow_class=gold,le=0.0001}": 3,
        },
        "gauges": {}, "histograms": {},
    })
    assert 'qos_delivered_total{flow_class="gold"} 5' in text
    assert 'flow_class="gold",le="0.0001"' in text


def _qos_keys(context):
    snapshot = context.metrics.snapshot()
    return [
        key
        for kind in ("counters", "gauges", "histograms")
        for key in snapshot.get(kind, {})
        if key.startswith("qos_")
    ]


def test_qos_off_is_strictly_additive():
    from repro.experiments.delay import run_delay
    from repro.obs import context as obs_context, fresh_run_context

    previous = obs_context.current()
    try:
        context = fresh_run_context(telemetry=True)
        run_delay(flows=10)
        assert _qos_keys(context) == []
        from repro.obs.telemetry import telemetry_section

        section = telemetry_section(context.telemetry)
        assert "slo_specs" not in section
        assert "classes" not in section
        assert "slo" not in section
    finally:
        obs_context.install(previous)


def test_qos_policy_does_not_leak_into_a_later_run():
    """The policy lives on the E9Q point's network and dies with it: a
    later run in a fresh context binds no ``qos_*`` counter."""
    from repro.experiments.delay import run_delay
    from repro.experiments.qos import run_qos_slo
    from repro.obs import context as obs_context, fresh_run_context

    previous = obs_context.current()
    try:
        result = run_qos_slo(modes=("reserved+admission",), epochs=6)
        assert result.notes["points"]["reserved+admission"]["classes"]
        assert obs_context.current() is previous
        context = fresh_run_context(telemetry=True)
        run_delay(flows=10)
        assert _qos_keys(context) == []
    finally:
        obs_context.install(previous)


def test_only_the_network_built_with_a_policy_counts_per_class(monkeypatch):
    """Two networks in one run context, one built with the policy and
    read by the per-class reader: only that one binds ``qos_*``
    counters, and its per-class deliveries are the classifier applied
    to the packets sent."""
    from collections import Counter

    from repro.core import DifaneNetwork
    from repro.flowspace import FIVE_TUPLE_LAYOUT
    from repro.net import TopologyBuilder
    from repro.obs import fresh_run_context
    from repro.obs.qos import QosOutcomeReader
    from repro.workloads.policies import routing_policy_for_topology

    layout = FIVE_TUPLE_LAYOUT
    topo = TopologyBuilder.linear(3, hosts_per_switch=1)
    rules, host_ips = routing_policy_for_topology(topo, layout)
    policy = QosPolicy(FlowClassifier(
        [FlowClass("gold", Match.build(layout, tp_src=2001))]
    ))
    context = fresh_run_context()
    bound = []
    counter = context.metrics.counter

    def recording_counter(name, **labels):
        bound.append(name)
        return counter(name, **labels)

    monkeypatch.setattr(context.metrics, "counter", recording_counter)

    def packets():
        return [
            Packet.from_fields(
                layout, nw_src=0x0A0A0A0A, nw_dst=host_ips["h2"], nw_proto=6,
                tp_src=sport, tp_dst=80,
            )
            for sport in (2000, 2001, 2001, 2002, 2001, 2000)
        ]

    qos_bound = {}
    for qos in (policy, None):
        del bound[:]
        dn = DifaneNetwork.build(
            topo, rules, layout, authority_switches=["s1"], qos=qos
        )
        if qos is not None:
            dn.network.read_outcomes_with(
                QosOutcomeReader(qos, context.metrics)
            )
        for index, packet in enumerate(packets()):
            dn.send_at(index * 1e-3, "h0", packet)
        dn.run()
        qos_bound[qos] = [name for name in bound if name.startswith("qos_")]

    assert {"qos_delivered_total", "qos_redirect_delay_bucket_total"} <= set(
        qos_bound[policy]
    )
    assert qos_bound[None] == []
    expected = Counter(policy.classifier.classify(p) for p in packets())
    assert expected == {"gold": 3, DEFAULT_CLASS: 3}
    for cls, count in expected.items():
        assert context.metrics.value("qos_delivered_total", flow_class=cls) == count
    assert context.metrics.sum_counters("packets_delivered_total") == 12


# ---------------------------------------------------------------------------
# Experiment scale: differentiation and parallel merge identity
# ---------------------------------------------------------------------------

def test_e9_protection_differentiates_and_jobs_merge_is_byte_identical():
    from repro.experiments.qos import run_qos_slo

    documents = []
    for jobs in (None, 2):
        result = run_qos_slo(modes=("off", "reserved"), jobs=jobs)
        documents.append(json.dumps(result.notes, sort_keys=True))
    # Satellite: per-class counters/findings merge associatively — the
    # two-worker sweep is byte-identical to the serial one.
    assert documents[0] == documents[1]

    notes = json.loads(documents[0])
    gold = notes["gold_slo_by_mode"]
    # Unprotected gold blows its budget during the flash crowds and the
    # detectors say so; reserved residency keeps it inside the budget.
    assert gold["off"]["bad_windows"] > gold["reserved"]["bad_windows"]
    assert gold["off"]["budget_remaining"] < 0
    assert gold["reserved"]["budget_remaining"] > 0
    off_detectors = {
        f["detector"] for f in notes["points"]["off"]["slo_findings"]
    }
    assert {"slo-burn", "slo-exhausted"} <= off_detectors
    assert notes["points"]["reserved"]["slo_findings"] == []
