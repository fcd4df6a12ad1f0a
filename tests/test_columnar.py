"""Packet bursts and CLI error exits.

:class:`PacketBatch` is how the burst-driven soaks build a same-instant
burst; :meth:`PacketBatch.packets` turns it into the packets the network
moves.  A burst addressed to a switch's own authority caches its cache
rules locally, per packet in packet order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.controller import DifaneNetwork
from repro.flowspace.batch import PacketBatch
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.net.topology import TopologyBuilder
from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.workloads.policies import routing_policy_for_topology

LAYOUT = FIVE_TUPLE_LAYOUT


@pytest.fixture(autouse=True)
def _restore_context():
    previous = obs_context.current()
    yield
    obs_context.install(previous)


# -- PacketBatch --------------------------------------------------------------------

def _sample_batch(count=16, seed=3):
    rng = np.random.default_rng(seed)
    return PacketBatch.from_fields(
        LAYOUT,
        count,
        flow_ids=rng.integers(0, 64, count).tolist(),
        size_bytes=64,
        nw_src=rng.integers(0, 2**32, count),
        nw_dst=rng.integers(0, 2**32, count),
        nw_proto=6,
        tp_src=rng.integers(1024, 65536, count),
        tp_dst=80,
    )


def test_packet_batch_round_trips_through_packets():
    rng = np.random.default_rng(3)
    flow_ids = rng.integers(0, 64, 16).tolist()
    columns = dict(
        nw_src=rng.integers(0, 2**32, 16), nw_dst=rng.integers(0, 2**32, 16),
        tp_src=rng.integers(1024, 65536, 16),
    )
    batch = _sample_batch()
    batch.created_at = 0.5
    batch.ingress_switch = "e0"
    packets = batch.packets()
    assert [p.flow_id for p in packets] == flow_ids == batch.flow_ids
    assert [p.packet_id for p in packets] == batch.packet_ids
    assert batch.packet_ids == list(range(batch.packet_ids[0], batch.packet_ids[0] + 16))
    for i, packet in enumerate(packets):
        assert packet.fields() == {
            "nw_src": int(columns["nw_src"][i]), "nw_dst": int(columns["nw_dst"][i]),
            "nw_proto": 6, "tp_src": int(columns["tp_src"][i]), "tp_dst": 80,
        }
        assert packet.header_bits == batch.header_bits[i]
        assert (packet.size_bytes, packet.created_at, packet.ingress_switch) == (
            64, 0.5, "e0",
        )
        assert (packet.hops, packet.encap_destination) == (0, None)
        assert not (packet.via_authority or packet.via_controller)


@pytest.mark.parametrize("prefetch", [1, 4])
def test_redirect_to_own_ingress_caches_locally_in_packet_order(prefetch):
    """The degenerate single-switch case (a burst tunnelled to the switch
    it entered at) installs synchronously, with no install message, per
    packet: 24 installs into a 4-entry cache evict."""
    context = fresh_run_context(trace=True)
    topo = TopologyBuilder.star(leaf_count=3, hosts_per_leaf=2)
    rules, host_ips = routing_policy_for_topology(topo, LAYOUT, seed=1)
    facade = DifaneNetwork.build(
        topo, rules, LAYOUT, authority_count=1, cache_capacity=4,
        redirect_rate=None, prefetch_fragments=prefetch,
    )
    switch = next(s for s in facade.switches() if len(s.pipeline.authority))
    addresses = list(host_ips.values())
    picks = np.random.default_rng(3).integers(0, len(addresses), 24)
    batch = PacketBatch.from_fields(
        LAYOUT, 24, flow_ids=list(range(24)), nw_src=addresses[0],
        nw_dst=[addresses[i] for i in picks], nw_proto=6, tp_dst=80,
    )
    batch.created_at = 0.0
    batch.ingress_switch = switch.name
    for packet in batch.packets():
        packet.encapsulate(switch.name)
        switch.handle_packet(facade.network, packet)
    facade.run()
    assert switch.redirects_handled == 24
    assert switch.cache_installs_received >= 24
    assert switch.cache_installs_sent == 0
    assert switch.cache.evicted > 0
    accounting = context.tracer.accounting()
    assert accounting["delivered"] + accounting["dropped"] == 24


# -- CLI: corrupt metrics documents exit 2 with a clean message ---------------------

def test_cli_report_missing_file_exits_2(capsys):
    assert cli_main(["report", "/nonexistent/metrics.json"]) == 2
    err = capsys.readouterr().err
    assert "cannot read metrics document" in err
    assert "Traceback" not in err


def test_cli_report_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli_main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err or "invalid" in err.lower()
    assert "Traceback" not in err


def test_cli_obs_diff_wrong_schema_exits_2(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"schema": "difane-metrics/1", "counters": {}}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else/9"}))
    assert cli_main(["obs", "diff", str(good), str(bad)]) == 2
    err = capsys.readouterr().err
    assert "schema" in err
    assert "Traceback" not in err
