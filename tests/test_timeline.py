"""Tests for the time-binned rate analysis."""

import pytest

from repro.analysis.timeline import rate_timeline
from repro.net.simnet import DeliveryRecord


def record(finish, delivered=True, via_authority=False):
    return DeliveryRecord(
        packet_id=0, flow_id=None, created_at=finish - 0.001,
        finished_at=finish, delivered=delivered, hops=2,
        via_authority=via_authority, via_controller=False,
        ingress_switch="s0", endpoint="h1",
    )


class TestRateTimeline:
    def test_uniform_rate(self):
        records = [record(i * 0.01) for i in range(100)]  # 100/s for 1s
        series = rate_timeline(records, bin_width_s=0.1)
        assert len(series) == 10
        assert all(y == pytest.approx(100.0) for y in series.y)

    def test_excludes_drops_by_default(self):
        records = [record(0.05), record(0.06, delivered=False)]
        series = rate_timeline(records, bin_width_s=0.1)
        assert series.y == [pytest.approx(10.0)]

    def test_includes_drops_when_asked(self):
        records = [record(0.05), record(0.06, delivered=False)]
        series = rate_timeline(records, bin_width_s=0.1, delivered_only=False)
        assert series.y == [pytest.approx(20.0)]

    def test_empty(self):
        assert len(rate_timeline([], bin_width_s=0.1)) == 0

    def test_invalid_bin(self):
        with pytest.raises(ValueError):
            rate_timeline([], bin_width_s=0)
