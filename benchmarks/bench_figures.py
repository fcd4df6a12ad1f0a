"""Every archived figure and table, regenerated from the experiment table.

One test per id runs that id's ``full`` configuration from
:mod:`repro.experiments.registry` once under the benchmark timer,
archives the text under ``benchmarks/results/<name>.txt`` and asserts
the paper claim the figure reproduces.  Select one id with
``-k '[E7]'``; ``--benchmark-disable`` skips the timing.
"""

import json

import pytest
from conftest import RESULTS_DIR, run_once

from repro.analysis.report import render_series_table, render_table
from repro.experiments.registry import SPECS

#: Ids archived as their series table (followed by their table, if any).
SERIES_FIGURES = {"E2", "E3", "E5", "E6", "E10"}

CLAIMS = {}


def claim(key):
    def register(check):
        CLAIMS[key] = check
        return check
    return register


@claim("E1")
def _policies(result):
    """Table 1: one row per evaluated policy."""
    assert [row[0] for row in result.table_rows] == [
        "campus", "vpn", "classbench-acl"]


@claim("E2")
def _throughput(result):
    """One authority switch sustains ≈800K single-packet flows/s while a
    NOX-style controller saturates around 50K/s."""
    difane = result.series_by_label("DIFANE")
    nox = result.series_by_label("NOX")
    assert nox.y[-1] == pytest.approx(50e3, rel=0.3)
    assert difane.y[-1] == pytest.approx(800e3, rel=0.3)
    assert difane.y[-1] > 10 * nox.y[-1]


@claim("E3")
def _scaling(result):
    """Setup capacity grows ≈linearly in the authority switches; NOX stays
    pinned at one controller's rate."""
    difane = result.series_by_label("DIFANE")
    nox = result.series_by_label("NOX")
    assert difane.y[-1] > 3.0 * difane.y[0]
    assert max(nox.y) < 1.3 * min(nox.y)


@claim("E4")
def _delay(result):
    """≈0.4 ms first-packet delay for DIFANE vs ≈10 ms for NOX."""
    difane_first = result.notes["difane_first_median_ms"]
    nox_first = result.notes["nox_first_median_ms"]
    assert difane_first < 1.0
    assert nox_first > 5.0
    assert nox_first / difane_first > 10.0


@claim("E5")
def _partition_tcam(result):
    """Per-switch authority TCAM usage falls ≈N/k as partitions are added."""
    for series in result.series:
        assert series.y[-1] < series.y[0] / 4


@claim("E6")
def _partition_overhead(result):
    """Duplication from rules straddling partition boundaries grows
    sub-linearly and monotonically with the partition count."""
    for series in result.series:
        assert series.y[0] == 1.0
        assert series.y[-1] < 8.0
        assert all(a <= b + 1e-9 for a, b in zip(series.y, series.y[1:]))


@claim("E7")
def _cache_miss(result):
    """Wildcard rules reach a miss rate with far fewer entries than
    microflows; cost-aware eviction never misses more than LRU."""
    wildcard = result.series_by_label("DIFANE wildcard cache")
    cost = result.series_by_label("cost-aware wildcard cache")
    microflow = result.series_by_label("microflow cache")
    (RESULTS_DIR / "fig-cache-miss.json").write_text(json.dumps({
        "cache_sizes": wildcard.x,
        "wildcard_miss": wildcard.y,
        "cost_miss": cost.y,
        "microflow_miss": microflow.y,
    }, indent=2) + "\n")
    for w, m in zip(wildcard.y, microflow.y):
        assert w <= m
    # At 10% of the policy in cache, the wildcard miss rate is small.
    assert wildcard.y[-2] < 0.15
    # Measured: 0.527 vs 0.631 at 20 entries, converging by 1000.
    for c, w in zip(cost.y, wildcard.y):
        assert c <= w + 1e-9
    assert cost.y[0] < wildcard.y[0]


@claim("E8")
def _stretch(result):
    """The detour through an authority switch costs modest stretch, and
    central placement does not lose to random."""
    rows = {row[0]: (float(row[1]), float(row[2])) for row in result.table_rows}
    assert rows["central"][1] <= rows["random"][1] * 1.1
    for median, _ in rows.values():
        assert median < 3.0


@claim("E9")
def _dynamics(result):
    """Link failures move zero rules; inserts touch few partitions; the
    policy's semantics stay exact throughout."""
    assert result.notes["mismatches"] == 0
    rows = {row[0]: row for row in result.table_rows}
    assert rows["link failure"][3] == "0"
    assert rows["link failure"][4] == "0"
    assert float(rows["rule insert"][2]) < 6.0


@claim("E10")
def _cut_ablation(result):
    """Split-aware cuts never cost more entries than balance-only cuts."""
    aware = result.series_by_label("split-aware")
    naive = result.series_by_label("occupancy")
    for a, n in zip(aware.y, naive.y):
        assert a <= n
    assert aware.y[-1] < naive.y[-1]


@claim("A1")
def _eviction(result):
    """Every eviction policy functions; none collapses."""
    assert all(float(row[1]) > 0.1 for row in result.table_rows)


@claim("A2")
def _prefetch(result):
    """Prefetching trades install volume for redirects."""
    redirects = result.series_by_label("redirects")
    installs = result.series_by_label("cache installs")
    assert redirects.y[-1] < redirects.y[0]
    assert installs.y[-1] > installs.y[0]


@claim("A3")
def _zipf(result):
    """The wildcard advantage holds at every skew; both improve with it."""
    wildcard = result.series_by_label("DIFANE wildcard cache")
    microflow = result.series_by_label("microflow cache")
    for w, m in zip(wildcard.y, microflow.y):
        assert w < m
    assert wildcard.y[-1] < wildcard.y[0]


@claim("A4")
def _granularity(result):
    """Finer granularity costs monotone split overhead."""
    overhead = result.series_by_label("duplication factor")
    assert all(a <= b + 1e-9 for a, b in zip(overhead.y, overhead.y[1:]))


@claim("A5")
def _rebalance(result):
    """Re-packing on measured load repairs the hotspot's imbalance."""
    assert result.notes["imbalance_after"] <= result.notes["imbalance_before"]


@claim("A6")
def _failover(result):
    """Replicated partitions make an authority crash lossless; an
    unreplicated design drops redirects until the controller repairs."""
    assert result.notes["replicated_drops"] == 0
    assert result.notes["repair_drops"] > 0


@claim("C1")
def _chaos(result):
    """Under composed faults: zero invariant violations, every drop
    attributed, every packet accounted, the authority kill detected."""
    summary = {k: v for k, v in result.notes.items() if not k.startswith("_")}
    (RESULTS_DIR / f"{result.name}.json").write_text(
        json.dumps(summary, indent=2) + "\n"
    )
    assert result.notes["invariant_violations"] == 0
    assert result.notes["unattributed_drops"] == 0
    assert result.notes["unaccounted_packets"] == 0
    assert result.notes["detections"] >= 1
    assert result.notes["detection_latencies_s"], "authority kill went undetected"


@pytest.mark.parametrize(
    "spec", [spec for spec in SPECS.values() if spec.id in CLAIMS],
    ids=lambda spec: spec.id,
)
def test_figure(spec, benchmark, archive, jobs):
    result = run_once(benchmark, spec, jobs=jobs)
    if spec.id in SERIES_FIGURES:
        text = render_series_table(result.series, title=result.title)
        if result.table_rows:
            text += "\n\n" + render_table(result.table_headers, result.table_rows)
    else:
        text = render_table(result.table_headers, result.table_rows,
                            title=result.title)
    archive(result.name, text)
    CLAIMS[spec.id](result)
