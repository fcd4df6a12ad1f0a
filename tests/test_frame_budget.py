"""Frames per packet: an exact work budget for the event-driven soaks.

Wall-clock claims need many alternating pairs on one host and still call a
few percent noise.  The number of Python frames the simulator enters per
offered packet is exact and host-independent, so it is pinned here.

Each budgeted experiment's quick run goes twice in one process: once to
warm the memos and artifact caches, then once under ``sys.setprofile``,
counting ``call`` events into ``src/repro`` functions per module.  Code
objects named ``<…>`` (comprehensions, generator expressions, lambdas,
module bodies) are left out: CPython inlines some of them in later
versions.  The cyclic garbage collector is off during the counted run, so
a collection that happens to fire a weakref callback cannot move a count.

``tests/goldens/frame-budget.json`` holds the counts; the test fails on any
module whose count rises.  A change that lowers a count rewrites the file
(``--update-goldens``), and the diff is its claim.  Refresh with::

    PYTHONPATH=src python -m pytest tests/test_frame_budget.py --update-goldens
"""

from __future__ import annotations

import collections
import gc
import json
import pathlib
import sys

import pytest

import repro
from repro.experiments.registry import SPECS
from repro.obs import fresh_run_context

BUDGET = pathlib.Path(__file__).parent / "goldens" / "frame-budget.json"
SRC = str(pathlib.Path(repro.__file__).parent) + "/"
EXPERIMENTS = ("M1", "C2")


def count_frames(experiment: str):
    """``(offered packets, {module: call events})`` of a warm quick run."""
    SPECS[experiment](quick=True)
    context = fresh_run_context()
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SRC) and not code.co_name.startswith("<"):
                calls[code.co_filename[len(SRC):]] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        SPECS[experiment](quick=True)
    finally:
        sys.setprofile(None)
        gc.enable()
    return context.metrics.value("packets_injected_total"), dict(sorted(calls.items()))


@pytest.fixture(scope="module")
def measured():
    return {experiment: count_frames(experiment) for experiment in EXPERIMENTS}


def test_frames_per_packet_stay_within_budget(measured, update_goldens):
    document = {}
    for experiment, (offered, calls) in measured.items():
        document[experiment] = {
            "offered": offered,
            "frames_per_packet": round(sum(calls.values()) / offered, 2),
            "calls": calls,
        }
    if update_goldens:
        BUDGET.write_text(json.dumps(document, indent=2) + "\n")
        pytest.skip(f"budget rewritten: {BUDGET.name}")
    budget = json.loads(BUDGET.read_text())
    assert sorted(budget) == sorted(document)
    risen = []
    for experiment, pinned in budget.items():
        now = document[experiment]
        assert now["offered"] == pinned["offered"], experiment
        for module, count in now["calls"].items():
            if count > pinned["calls"].get(module, 0):
                risen.append(f"{experiment} {module}: "
                             f"{pinned['calls'].get(module, 0)} -> {count}")
    assert not risen, "frame budget exceeded (refresh with --update-goldens " \
        "only when the rise is deliberate): " + "; ".join(risen)
