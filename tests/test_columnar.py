"""Own-ingress redirects and CLI error exits.

A burst addressed to a switch's own authority caches its cache rules
locally, per packet in packet order.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.controller import DifaneNetwork
from repro.flowspace.fields import FIVE_TUPLE_LAYOUT
from repro.flowspace.packet import Packet
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
    packets = [
        Packet.from_fields(
            LAYOUT, flow_id=flow, nw_src=addresses[0], nw_dst=addresses[pick],
            nw_proto=6, tp_dst=80,
        )
        for flow, pick in enumerate(picks.tolist())
    ]
    for packet in packets:
        packet.created_at = 0.0
        packet.ingress_switch = switch.name
        packet.encapsulate(switch.name)
        switch.receive(packet)
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
