"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.flowspace import (
    Drop,
    FIVE_TUPLE_LAYOUT,
    Forward,
    Match,
    Rule,
    RuleTable,
    TWO_FIELD_LAYOUT,
)


#: CI's scheduler-contract step (``--hypothesis-profile=scheduler-contract``):
#: the same examples on every run, and many more of them, so a contract
#: break cannot pass on one lucky draw and fail on the next.
settings.register_profile("scheduler-contract", derandomize=True, max_examples=1000)


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite tests/goldens/*.json from the current run instead "
             "of diffing against them",
    )


@pytest.fixture(autouse=True)
def _restore_run_context():
    """Each test ends in the run context it started in.

    A test that installs one (``repro run`` does, per experiment) would
    otherwise hand it, telemetry and all, to every later test: each
    network those build would register into its registry and each
    telemetry window would read all of them.
    """
    from repro.obs import context

    previous = context.current()
    yield
    context.install(previous)


@pytest.fixture
def update_goldens(request):
    """True when the run should rewrite the golden metrics documents."""
    return request.config.getoption("--update-goldens")


@pytest.fixture
def rng():
    """A deterministic RNG."""
    return random.Random(0xD1FA9E)


@pytest.fixture
def two_field_layout():
    return TWO_FIELD_LAYOUT


@pytest.fixture
def five_tuple_layout():
    return FIVE_TUPLE_LAYOUT


def make_rule(layout, priority, action=None, **fields):
    """Helper: build a rule over ``layout`` from field patterns."""
    return Rule(
        Match.build(layout, **fields),
        priority,
        action if action is not None else Forward("out"),
    )


@pytest.fixture
def overlapping_table(two_field_layout):
    """A small table with a classic dependency chain:

    priority 30: f1=0000 xxxx, f2=0000 xxxx  -> drop      (narrow deny)
    priority 20: f1=0000 xxxx                -> fwd(a)    (mid)
    priority 10: f2=0000 xxxx                -> fwd(b)    (mid, overlaps 20)
    priority  0: *                           -> fwd(c)    (default)
    """
    rules = [
        make_rule(two_field_layout, 30, Drop(), f1="0000xxxx", f2="0000xxxx"),
        make_rule(two_field_layout, 20, Forward("a"), f1="0000xxxx"),
        make_rule(two_field_layout, 10, Forward("b"), f2="0000xxxx"),
        make_rule(two_field_layout, 0, Forward("c")),
    ]
    return RuleTable(two_field_layout, rules)
