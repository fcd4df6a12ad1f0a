"""Flow-causal analyzer over hand-built trace event sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.nox import NoxNetwork
from repro.core import DifaneNetwork
from repro.flowspace import FIVE_TUPLE_LAYOUT, Packet
from repro.net import TopologyBuilder
from repro.net.failures import FailureInjector
from repro.net.simnet import DeliveryRecord
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.obs.flowtrace import (
    MISS_PATHS,
    STAGES,
    FirstDetourReader,
    FlowTraceAnalysis,
    _percentile,
)
from repro.obs.trace import PacketTracer, TraceEvent, TraceKind
from repro.workloads.policies import routing_policy_for_topology
from repro.workloads.traffic import host_pair_packets


def _event(time, kind, packet_id=1, flow_id=10, node="a1", **extra):
    return TraceEvent(
        time=time, kind=kind, packet_id=packet_id, flow_id=flow_id,
        node=node, **extra,
    )


def _hit_only(packet_id=1, flow_id=10, start=0.0):
    return [
        _event(start, TraceKind.INGRESS, packet_id, flow_id),
        _event(start + 0.001, TraceKind.CACHE_HIT, packet_id, flow_id),
        _event(start + 0.003, TraceKind.DELIVERED, packet_id, flow_id, node="h2"),
    ]


def _miss(packet_id=1, flow_id=10, start=0.0):
    return [
        _event(start, TraceKind.INGRESS, packet_id, flow_id),
        _event(start + 0.001, TraceKind.REDIRECT, packet_id, flow_id),
        _event(start + 0.003, TraceKind.AUTHORITY_HANDLE, packet_id, flow_id,
               node="dist0"),
        _event(start + 0.004, TraceKind.INSTALL_SENT, packet_id, flow_id,
               node="dist0"),
        _event(start + 0.006, TraceKind.DELIVERED, packet_id, flow_id, node="h2"),
    ]


class TestHandBuiltSequences:
    def test_hit_only_flow(self):
        analysis = FlowTraceAnalysis.from_events(_hit_only())
        (span,) = analysis.spans
        assert span.path == "cache-hit"
        assert span.delivered
        assert span.latency == pytest.approx(0.003)
        assert span.stages == {
            "ingress": pytest.approx(0.001),
            "delivery": pytest.approx(0.002),
        }
        assert span.path not in MISS_PATHS
        assert len(analysis.miss_penalty_cdf()) == 0

    def test_miss_install_then_hit(self):
        events = _miss(packet_id=1) + _hit_only(packet_id=2, start=0.01)
        analysis = FlowTraceAnalysis.from_events(events)
        assert len(analysis.spans) == 2
        miss, hit = analysis.spans
        assert miss.path == "redirect"
        assert miss.stages == {
            "ingress": pytest.approx(0.001),
            "redirect": pytest.approx(0.002),
            "authority-handle": pytest.approx(0.001),
            "install": pytest.approx(0.002),
        }
        assert hit.path == "cache-hit"
        # Both packets belong to one flow; the miss is its first span.
        flow = analysis.flows[10]
        assert [s.packet_id for s in flow.spans] == [1, 2]
        assert flow.first is miss
        # The miss-penalty CDF holds exactly that first miss.
        cdf = analysis.miss_penalty_cdf()
        assert cdf.points() == [(pytest.approx(6.0), 1.0)]

    def test_degraded_controller_punt_flow(self):
        events = [
            _event(0.0, TraceKind.INGRESS),
            _event(0.001, TraceKind.DEGRADED),
            _event(0.002, TraceKind.PUNT, node="controller"),
            _event(0.005, TraceKind.DELIVERED, node="h2"),
        ]
        (span,) = FlowTraceAnalysis.from_events(events).spans
        # DEGRADED outranks PUNT in path precedence…
        assert span.path == "degraded"
        assert span.path in MISS_PATHS
        # …but both segments charge to the controller-punt stage.
        assert span.stages == {
            "ingress": pytest.approx(0.001),
            "controller-punt": pytest.approx(0.004),
        }

    def test_dropped_first_packet(self):
        events = [
            _event(0.0, TraceKind.INGRESS),
            _event(0.001, TraceKind.REDIRECT),
            _event(0.002, TraceKind.DROPPED, detail="link-loss"),
        ]
        analysis = FlowTraceAnalysis.from_events(events)
        (span,) = analysis.spans
        assert not span.delivered
        assert span.path == "redirect"
        assert span.latency == pytest.approx(0.002)
        # Undelivered packets never enter the miss-penalty CDF.
        assert len(analysis.miss_penalty_cdf()) == 0

    def test_events_after_terminal_are_clamped(self):
        # An install ack that lands after delivery must not stretch the
        # span or leak time into any stage.
        events = _hit_only() + [
            _event(0.009, TraceKind.INSTALL_RECEIVED),
        ]
        (span,) = FlowTraceAnalysis.from_events(events).spans
        assert span.end == pytest.approx(0.003)
        assert sum(span.stages.values()) == pytest.approx(span.latency)

    def test_unattributed_events_counted_not_folded(self):
        events = _hit_only() + [
            _event(0.002, TraceKind.INSTALL_RECEIVED, packet_id=None),
        ]
        analysis = FlowTraceAnalysis.from_events(events)
        assert analysis.unattributed == 1
        assert len(analysis.spans) == 1

    def test_accepts_jsonl_dict_rows(self):
        rows = [
            {"time": 0.0, "kind": "ingress", "packet_id": 1, "flow_id": 3,
             "node": "a1"},
            {"time": 0.002, "kind": "cache-hit", "packet_id": 1, "flow_id": 3,
             "node": "a1"},
            {"time": 0.004, "kind": "delivered", "packet_id": 1, "flow_id": 3,
             "node": "h2"},
        ]
        (span,) = FlowTraceAnalysis.from_events(rows).spans
        assert span.path == "cache-hit"
        assert span.flow_id == 3

    def test_same_timestamp_ties_break_by_arrival_order(self):
        events = [
            _event(0.0, TraceKind.INGRESS),
            _event(0.0, TraceKind.CACHE_HIT),
            _event(0.001, TraceKind.DELIVERED, node="h2"),
        ]
        (span,) = FlowTraceAnalysis.from_events(events).spans
        assert [e.kind for e in span.events] == [
            TraceKind.INGRESS, TraceKind.CACHE_HIT, TraceKind.DELIVERED,
        ]
        assert span.stages == {"delivery": pytest.approx(0.001)}


class TestAggregates:
    def test_stage_totals_follow_canonical_order(self):
        events = _miss(packet_id=1) + _hit_only(packet_id=2, flow_id=11, start=0.01)
        totals = FlowTraceAnalysis.from_events(events).stage_totals()
        assert list(totals) == [s for s in STAGES if s in totals]
        assert sum(totals.values()) == pytest.approx(0.006 + 0.003)

    def test_top_flows_deterministic_ranking(self):
        events = (
            _miss(packet_id=1, flow_id=10)
            + _hit_only(packet_id=2, flow_id=10, start=0.01)
            + _hit_only(packet_id=3, flow_id=11, start=0.02)
        )
        analysis = FlowTraceAnalysis.from_events(events)
        rows = analysis.top_flows(k=2)
        assert rows[0][:2] == (10, 2)
        assert rows[1][:2] == (11, 1)

    def test_summary_shape(self):
        events = _miss() + _hit_only(packet_id=2, flow_id=11, start=0.01)
        summary = FlowTraceAnalysis.from_events(events).summary()
        assert summary["packets"] == 2
        assert summary["flows"] == 2
        assert summary["paths"] == {"cache-hit": 1, "redirect": 1}
        assert summary["miss_penalty_samples"] == 1
        assert summary["miss_penalty_p50_ms"] == pytest.approx(6.0)
        assert summary["evicted_events"] == 0

    def test_ring_truncation_is_reported(self):
        tracer = PacketTracer(capacity=8, enabled=True)
        for packet_id in range(1, 5):
            for event in _miss(packet_id, flow_id=packet_id, start=0.01 * packet_id):
                tracer.record(event.time, event.kind, event, node=event.node)
        analysis = FlowTraceAnalysis.from_tracer(tracer)
        assert tracer.evicted == 4 * 5 - 8
        assert analysis.summary()["evicted_events"] == tracer.evicted


# -- property: the stage decomposition telescopes ---------------------------

_KINDS = [
    TraceKind.INGRESS, TraceKind.CACHE_HIT, TraceKind.AUTHORITY_HIT,
    TraceKind.REDIRECT, TraceKind.FAILOVER, TraceKind.DEGRADED,
    TraceKind.AUTHORITY_HANDLE, TraceKind.PUNT,
    TraceKind.INSTALL_SENT, TraceKind.INSTALL_RECEIVED,
]

_deltas = st.floats(min_value=0.0, max_value=0.01, allow_nan=False)


@st.composite
def _packet_history(draw):
    """INGRESS, a random middle, a terminal, and optional stragglers."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=0, max_size=6))
    terminal = draw(st.sampled_from([TraceKind.DELIVERED, TraceKind.DROPPED]))
    tail = draw(st.lists(st.sampled_from(_KINDS), min_size=0, max_size=2))
    sequence = [TraceKind.INGRESS] + kinds + [terminal] + tail
    deltas = draw(st.lists(_deltas, min_size=len(sequence), max_size=len(sequence)))
    events, now = [], 0.0
    for kind, delta in zip(sequence, deltas):
        now += delta
        events.append(_event(now, kind))
    return events


@given(_packet_history())
@settings(max_examples=200, deadline=None)
def test_stage_decomposition_sums_to_terminal_latency(events):
    (span,) = FlowTraceAnalysis.from_events(events).spans
    assert sum(span.stages.values()) == pytest.approx(span.latency, abs=1e-12)
    assert all(duration >= 0 for duration in span.stages.values())
    assert span.latency >= 0


@given(st.lists(_packet_history(), min_size=1, max_size=5))
@settings(max_examples=50, deadline=None)
def test_telescoping_holds_across_many_packets(histories):
    events = []
    for packet_id, history in enumerate(histories, start=1):
        for event in history:
            event.packet_id = packet_id
            event.flow_id = packet_id % 2
        events.extend(history)
    analysis = FlowTraceAnalysis.from_events(events)
    assert len(analysis.spans) == len(histories)
    for span in analysis.spans:
        assert sum(span.stages.values()) == pytest.approx(span.latency, abs=1e-12)


# -- the delivery-log miss penalty, against the trace oracle -------------------

L = FIVE_TUPLE_LAYOUT
_PENALTY_KEYS = ("miss_penalty_samples", "miss_penalty_p50_ms", "miss_penalty_p99_ms")


def miss_penalty_summary(records):
    """Oracle for :class:`FirstDetourReader`: the miss penalty from a
    retained record log — per flow, the lowest-packet-id delivered record
    that detoured, latency ``finished_at - created_at``."""
    first = {}
    for record in records:
        if record.delivered and (record.via_authority or record.via_controller):
            seen = first.get(record.flow_id)
            if seen is None or record.packet_id < seen[0]:
                first[record.flow_id] = (record.packet_id, record.delay)
    latencies = sorted(latency * 1e3 for _, latency in first.values())
    return {
        "miss_penalty_samples": len(latencies),
        "miss_penalty_p50_ms": _percentile(latencies, 0.5),
        "miss_penalty_p99_ms": _percentile(latencies, 0.99),
    }


def _streamed_penalty(records):
    """What :class:`FirstDetourReader` reads from ``records`` when it is the
    network's outcome reader: every outcome, in log order.  A record
    carries every attribute the reader reads off a packet."""
    reader = FirstDetourReader()
    for record in records:
        if record.delivered:
            reader.observe_delivery(record, record.endpoint, record.finished_at)
        else:
            reader.observe_drop(
                record, record.endpoint, record.drop_reason, record.finished_at
            )
    return reader.summary()


def _trace_oracle(tracer):
    analysis = FlowTraceAnalysis.from_tracer(tracer)
    assert analysis.evicted == 0
    summary = analysis.summary()
    return {key: summary[key] for key in _PENALTY_KEYS}


@pytest.fixture
def traced_context():
    previous = obs_context.current()
    yield fresh_run_context(trace=True)
    obs_context.install(previous)


def _penalty_record(packet_id, flow_id, delay, delivered=True, authority=True,
                    controller=False):
    return DeliveryRecord(
        packet_id, flow_id, created_at=1.0, finished_at=1.0 + delay,
        delivered=delivered, hops=2, via_authority=authority,
        via_controller=controller, ingress_switch="e0", endpoint="h0",
    )


class TestMissPenaltyFromRecords:
    def test_first_flagged_delivered_packet_per_flow(self):
        record = _penalty_record
        records = [
            record(3, 10, 0.009),                       # a later miss of flow 10
            record(2, 10, 0.002),                       # flow 10's first miss
            record(1, 10, 0.001, authority=False),      # a cache hit
            record(4, 11, 0.008, delivered=False),      # dropped: never counted
            record(5, 11, 0.004),
            record(6, 12, 0.006),
        ]
        assert miss_penalty_summary(records) == {
            "miss_penalty_samples": 3,
            "miss_penalty_p50_ms": 4.0,
            "miss_penalty_p99_ms": 6.0,
        }
        assert miss_penalty_summary([]) == {
            "miss_penalty_samples": 0,
            "miss_penalty_p50_ms": None,
            "miss_penalty_p99_ms": None,
        }

    def test_reader_equals_the_record_oracle(self):
        record = _penalty_record
        cases = {
            "empty": [],
            "out-of-order ids": [
                record(9, 10, 0.009), record(4, 10, 0.004), record(7, 10, 0.007),
                record(2, 11, 0.003), record(1, 11, 0.005),
            ],
            "via_controller": [
                record(1, 10, 0.002, authority=False, controller=True),
                record(2, 10, 0.001),
                record(3, 11, 0.006, authority=False, controller=True),
                record(4, 12, 0.001, authority=False),
            ],
            "drops ignored": [
                record(1, 10, 0.001, delivered=False),
                record(2, 10, 0.005),
                record(3, 11, 0.002, delivered=False, controller=True),
            ],
        }
        for name, records in cases.items():
            expected = miss_penalty_summary(records)
            assert _streamed_penalty(records) == expected, name
        # Flow 10's first miss is id 4 (4 ms), flow 11's id 1 (5 ms): the
        # lowest id wins, not the first delivered.
        assert _streamed_penalty(cases["out-of-order ids"]) == {
            "miss_penalty_samples": 2,
            "miss_penalty_p50_ms": 5.0,
            "miss_penalty_p99_ms": 5.0,
        }
        assert _streamed_penalty(cases["via_controller"])[
            "miss_penalty_samples"] == 2
        assert _streamed_penalty(cases["drops ignored"])[
            "miss_penalty_samples"] == 1

    def test_every_e8c_point_matches_the_trace_oracle(self, monkeypatch):
        """Every golden-scale E8C point, rerun with its tracer on: the
        streamed miss penalty equals the trace-derived one exactly."""
        from repro.experiments import cachingablation

        compared = []

        class Checked(FirstDetourReader):
            def summary(self):
                got = super().summary()
                compared.append((got, _trace_oracle(obs_context.current().tracer)))
                return got

        monkeypatch.setattr(
            cachingablation, "fresh_run_context",
            lambda: fresh_run_context(trace=True),
        )
        monkeypatch.setattr(cachingablation, "FirstDetourReader", Checked)
        cachingablation.run_caching_ablation(jobs=1)
        assert len(compared) == 3 * 5 * 2
        for got, expected in compared:
            assert got == expected
        assert all(got["miss_penalty_samples"] > 0 for got, _ in compared)

    def test_degraded_controller_fallback_matches_the_trace_oracle(
        self, traced_context
    ):
        topo = TopologyBuilder.star(4, hosts_per_leaf=1)
        rules, host_ips = routing_policy_for_topology(topo, L)
        dn = DifaneNetwork.build(
            topo, rules, L, authority_switches=["s0", "s1"], replication=2,
            cache_capacity=64, redirect_rate=None,
        )
        dn.controller.connect_control_plane(max_retries=None)
        src, dst = [
            next(h for h in host_ips if topo.host_attachment(h) == switch)
            for switch in ("s2", "s3")
        ]
        injector = FailureInjector(dn.network)
        injector.fail_switch("s0")
        injector.fail_switch("s1")
        for flow in range(8):
            for k in range(3):
                packet = Packet.from_fields(
                    L, flow_id=flow, nw_src=0x0A0A0A0A, nw_dst=host_ips[dst],
                    nw_proto=6, tp_src=4000 + flow, tp_dst=80,
                )
                dn.send_at(0.001 * flow + 0.004 * k, src, packet)
        dn.run()
        assert any(r.via_controller for r in dn.network.delivered())
        got = miss_penalty_summary(dn.network.deliveries)
        assert got["miss_penalty_samples"] == 8
        assert got == _trace_oracle(dn.network.tracer)
        assert _streamed_penalty(dn.network.deliveries) == got

    def test_nox_punts_match_the_trace_oracle(self, traced_context):
        topo = TopologyBuilder.star(4, hosts_per_leaf=2)
        rules, host_ips = routing_policy_for_topology(topo, L)
        nox = NoxNetwork.build(topo, rules, L)
        # Three back-to-back packets per flow all punt; the same flows
        # again 0.1 s later hit the installed microflows.
        for offset in (0.0, 0.1):
            for timed in host_pair_packets(
                topo, host_ips, L, count=30, rate=2000.0, seed=3, flow_packets=3
            ):
                nox.send_at(timed.time + offset, timed.source_host, timed.packet)
        nox.run()
        punted = [r.via_controller for r in nox.network.delivered()]
        assert any(punted) and not all(punted)
        got = miss_penalty_summary(nox.network.deliveries)
        assert got["miss_penalty_samples"] > 0
        assert got == _trace_oracle(nox.network.tracer)
        assert _streamed_penalty(nox.network.deliveries) == got

    def test_e8c_point_refuses_authority_local_hits(self, monkeypatch):
        """The one miss path a record cannot see: an ingress switch that is
        its own authority must stop the point, not shrink its samples."""
        from repro.experiments.cachingablation import run_caching_ablation
        from repro.workloads.streaming import StreamSpec

        monkeypatch.setattr(
            StreamSpec, "authority_names", lambda self: [self.edge_name(0)]
        )
        with pytest.raises(ValueError, match="authority-local"):
            run_caching_ablation(
                workloads=["zipf-steady"], policies=["lru"], capacities=(16,),
                hosts=64, epochs=2, burst_size=8, jobs=1,
            )
