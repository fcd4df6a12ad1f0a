"""Tests for the policy-churn workload driver."""

import random

import pytest

from repro.core import DifaneNetwork
from repro.core.dynamics import ChurnWorkload
from repro.flowspace import FIVE_TUPLE_LAYOUT, RuleTable
from repro.net import TopologyBuilder
from repro.workloads.policies import routing_policy_for_topology

L = FIVE_TUPLE_LAYOUT


def build():
    topo = TopologyBuilder.linear(3, hosts_per_switch=1)
    rules, _ = routing_policy_for_topology(topo, L)
    dn = DifaneNetwork.build(
        topo, rules, L, authority_switches=["s1"],
        cache_capacity=32, redirect_rate=None,
    )
    return dn


class TestChurn:
    def test_steps_recorded(self):
        dn = build()
        churn = ChurnWorkload(dn.controller, L, seed=1)
        events = churn.run(10)
        assert len(events) == 10
        assert churn.events == events
        assert all(e.kind in ("insert", "delete") for e in events)

    def test_first_step_is_insert(self):
        dn = build()
        churn = ChurnWorkload(dn.controller, L, seed=1)
        assert churn.step().kind == "insert"

    def test_deterministic_by_seed(self):
        kinds_a = [e.kind for e in ChurnWorkload(build().controller, L, seed=3).run(20)]
        kinds_b = [e.kind for e in ChurnWorkload(build().controller, L, seed=3).run(20)]
        assert kinds_a == kinds_b

    def test_policy_stays_consistent(self):
        dn = build()
        base_size = len(dn.controller.policy)
        churn = ChurnWorkload(dn.controller, L, seed=2)
        events = churn.run(30)
        inserts = sum(1 for e in events if e.kind == "insert")
        deletes = sum(1 for e in events if e.kind == "delete")
        assert len(dn.controller.policy) == base_size + inserts - deletes

    def test_semantics_preserved_after_churn(self):
        dn = build()
        ChurnWorkload(dn.controller, L, seed=4).run(25)
        oracle = RuleTable(L, dn.controller.policy)
        rng = random.Random(0)
        for _ in range(150):
            bits = rng.getrandbits(L.width)
            state = next(
                s for s in dn.controller._states.values()
                if s.partition.region.matches(bits)
            )
            got = dn.switch(state.owners[0]).pipeline.authority.table.lookup_bits(bits)
            expected = oracle.lookup_bits(bits)
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got.root_origin() is expected
                        or got.actions == expected.actions)

    def test_insert_fraction_validation(self):
        dn = build()
        with pytest.raises(ValueError):
            ChurnWorkload(dn.controller, L, insert_fraction=1.5)
