"""Tests for the record-free outcome reader and its time-binned rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.timeline import OutcomeTimeline
from repro.experiments.common import metrics_document
from repro.experiments.registry import SPECS
from repro.obs import context as obs_context
from repro.obs import fresh_run_context


def read(outcomes, bin_width_s=0.1):
    """An OutcomeTimeline fed ``(finish time, delivered)`` outcomes."""
    timeline = OutcomeTimeline(bin_width_s)
    for finish, delivered in outcomes:
        if delivered:
            timeline.observe_delivery(None, "h1", finish)
        else:
            timeline.observe_drop(None, "s0", "link loss s0->s1", finish)
    return timeline


def numpy_rate_timeline(outcomes, bin_width_s, delivered_only=True):
    """The oracle: the numpy binning the reader replaced, as ``(x, y)``
    lists.  Edges start at the first kept finish time; each point sits at
    its bin's midpoint."""
    times = [finish for finish, delivered in outcomes if delivered or not delivered_only]
    if not times:
        return [], []
    start = min(times)
    array = np.asarray(times, dtype=np.float64)
    indices = np.floor((array - start) / bin_width_s + 1e-9).astype(np.int64)
    counts = np.bincount(indices, minlength=int(indices.max()) + 1)
    xs = [float(start + (index + 0.5) * bin_width_s) for index in range(len(counts))]
    ys = [float(count / bin_width_s) for count in counts]
    return xs, ys


class TestRateTimeline:
    def test_uniform_rate(self):
        series = read([(i * 0.01, True) for i in range(100)]).series()  # 100/s for 1s
        assert len(series) == 10
        assert all(y == pytest.approx(100.0) for y in series.y)

    def test_excludes_drops_by_default(self):
        series = read([(0.05, True), (0.06, False)]).series()
        assert series.y == [pytest.approx(10.0)]

    def test_includes_drops_when_asked(self):
        series = read([(0.05, True), (0.06, False)]).series(delivered_only=False)
        assert series.y == [pytest.approx(20.0)]

    def test_empty(self):
        timeline = read([])
        assert len(timeline.series()) == 0
        assert len(timeline.series(delivered_only=False)) == 0

    def test_invalid_bin(self):
        with pytest.raises(ValueError):
            OutcomeTimeline(bin_width_s=0)

    def test_counts_and_drop_buckets(self):
        timeline = read([(0.0, True), (0.1, False), (0.2, True)])
        timeline.observe_drop(None, "s1", "unreachable h9", 0.3)
        assert (timeline.delivered, timeline.dropped) == (2, 2)
        assert timeline.drop_buckets == {"link-loss": 1, "black-hole": 1}


WIDTHS = st.sampled_from([0.01, 0.02, 0.05, 0.1, 1 / 3, 0.25])


@st.composite
def outcome_streams(draw):
    """Nondecreasing finish times, some exactly on a bin edge and some a
    hair below one, each delivered or dropped."""
    width = draw(WIDTHS)
    offset = draw(st.floats(0.0, 2.0, allow_nan=False))
    steps = draw(st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(["edge", "below", "inside"]),
                  st.booleans()),
        max_size=60,
    ))
    outcomes, now = [], offset
    for ticks, where, delivered in steps:
        when = offset + ticks * width
        if where == "below":
            when = math.nextafter(when, -math.inf)
        elif where == "inside":
            when += 0.37 * width
        now = max(now, when)
        outcomes.append((now, delivered))
    return width, outcomes


@settings(max_examples=200, deadline=None)
@given(stream=outcome_streams())
def test_bins_equal_the_numpy_binning(stream):
    """Both curves carry the numpy binning's floats bit for bit, hair-below
    edge times included."""
    width, outcomes = stream
    timeline = read(outcomes, width)
    for delivered_only in (True, False):
        series = timeline.series(delivered_only=delivered_only)
        assert (series.x, series.y) == numpy_rate_timeline(outcomes, width, delivered_only)
    assert timeline.delivered == sum(delivered for _, delivered in outcomes)
    assert timeline.dropped == len(outcomes) - timeline.delivered


@pytest.mark.parametrize("experiment", ["C1", "C2", "C2-STATIC", "A6"])
def test_fault_soak_ledgers_balance(experiment):
    """Every injected packet is delivered, dropped for a counted reason, or
    named unaccounted in the notes; and the reader's counts are the
    network's collected counters."""
    previous = obs_context.current()
    context = fresh_run_context()
    try:
        result = SPECS[experiment](quick=True)
        document = metrics_document(result, context=context)
    finally:
        obs_context.install(previous)
    counters = document["metrics"]["counters"]
    prefix = "packets_dropped_total{reason="
    drops = {name[len(prefix):-1]: value for name, value in counters.items()
             if name.startswith(prefix)}
    notes = result.notes
    unaccounted = notes.get("unaccounted_packets", 0)
    assert counters["packets_injected_total"] == (
        counters["packets_delivered_total"] + sum(drops.values()) + unaccounted
    )
    if experiment == "A6":
        delivered = sum(row[1] for row in result.table_rows)
        dropped = sum(row[2] for row in result.table_rows)
        assert dropped == notes["replicated_drops"] + notes["repair_drops"]
    else:
        delivered, dropped = notes["delivered"], notes["dropped"]
        assert notes["drop_attribution"] == drops
    assert delivered == counters["packets_delivered_total"]
    assert dropped == sum(drops.values())
