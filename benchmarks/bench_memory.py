"""Peak-RSS gates: M1's million-host streaming soak, and C2's offered traffic.

The entire point of the streaming workload + sketch observability stack
is that a soak's memory footprint is a function of the *topology and
sketch parameters*, not of hosts x epochs x burst size.  This benchmark
makes that claim falsifiable: it runs the full-scale M1 soak (10^6
virtual hosts by default) in a child interpreter, has the child report
its own ``ru_maxrss``, and fails if the peak exceeds ``RSS_BUDGET_MB``.

The child process matters: measuring the parent would fold in pytest,
hypothesis and every previously-imported module, and ``ru_maxrss`` is a
high-water mark — it never comes back down, so only a fresh interpreter
gives an honest number for the soak itself.

Scale is env-tunable (``REPRO_M1_HOSTS``, ``REPRO_M1_EPOCHS``,
``REPRO_M1_BURST``) so CI can trade soak length against runtime without
editing the gate.

The C2 gate holds the fault soak to the same claim: its offered packets
are built as the run reaches them and its outcomes are binned, not kept,
so a soak four times as long (6 s against 1.5 s at 20,000 packets/s) may
peak at most ``C2_GROWTH_BUDGET_MB`` higher.  A soak that builds every
packet and outcome record up front grows by about 56 MB over that span.
"""

import json
import os
import pathlib
import subprocess
import sys

from conftest import run_once

from repro.analysis.report import render_table

#: The acceptance budget: a million-host soak must fit in this much RAM.
#: Measured headroom is ~7x (the full-scale run peaks near 70 MB).
RSS_BUDGET_MB = 500.0

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh interpreter; receives the soak config as argv[1] JSON
# and prints one JSON line.  ru_maxrss is kilobytes on Linux, bytes on
# darwin.
_CHILD = r"""
import json, resource, sys

from repro.experiments.streaming import run_streaming_soak
from repro.obs import fresh_run_context

config = json.loads(sys.argv[1])
context = fresh_run_context(telemetry=True)
result = run_streaming_soak(stream=True, sketch=True, **config)
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak_mb = peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024
print(json.dumps({
    "peak_rss_mb": round(peak_mb, 1),
    "telemetry_windows": len(context.telemetry),
    "notes": {
        key: value
        for key, value in result.notes.items()
        if not key.startswith("_")
    },
}))
"""


#: Most a 6 s full-rate C2 soak may peak above the 1.5 s one.
C2_GROWTH_BUDGET_MB = 12.0

_C2_CHILD = r"""
import json, resource, sys

from repro.experiments.chaos import run_rebalance_soak

result = run_rebalance_soak(rate=20_000.0, duration=float(sys.argv[1]))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
peak_mb = peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024
print(json.dumps({"peak_rss_mb": round(peak_mb, 1), "notes": {
    key: result.notes[key]
    for key in ("delivered", "dropped", "unaccounted_packets", "invariant_violations")
}}))
"""


def _soak_config():
    return {
        "hosts": int(os.environ.get("REPRO_M1_HOSTS", 1_000_000)),
        "epochs": int(os.environ.get("REPRO_M1_EPOCHS", 600)),
        "burst_size": int(os.environ.get("REPRO_M1_BURST", 512)),
    }


def _run_soak_child(config, child=_CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", child, json.dumps(config)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, f"soak child failed:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_memory_bounded_soak(benchmark, archive):
    config = _soak_config()
    report = run_once(benchmark, _run_soak_child, config)
    notes = report["notes"]
    sketch = notes["sketch_summary"]

    rows = [
        ["virtual hosts", notes["hosts"]],
        ["epochs", notes["epochs"]],
        ["offered packets", notes["offered"]],
        ["delivered", notes["delivered"]],
        ["dropped", notes["dropped"]],
        ["peak RSS (MB)", report["peak_rss_mb"]],
        ["RSS budget (MB)", RSS_BUDGET_MB],
        ["telemetry windows", report["telemetry_windows"]],
        ["delay p99 (sketch, s)", sketch["delay_p99_s"]],
        ["sketch rank-error bound", sketch["delay_rank_error_bound"]],
        ["sketch relative bound", round(sketch["delay_relative_error_bound"], 4)],
        ["sketch retained items", sketch["retained_items"]],
    ]
    archive(
        "M1-memory-bound",
        render_table(
            ["metric", "value"], rows,
            title="M1 million-host soak: peak RSS vs budget",
        ),
        timing=report,
    )

    assert report["peak_rss_mb"] <= RSS_BUDGET_MB, (
        f"peak RSS {report['peak_rss_mb']} MB blew the "
        f"{RSS_BUDGET_MB} MB budget"
    )
    # The full observability document was emitted, not traded away.
    assert report["telemetry_windows"] > 0
    assert notes["delivered"] > 0
    assert notes["unaccounted_packets"] == 0
    assert notes["invariant_violations"] == 0
    # The sketch stayed bounded while the error budget stayed honest.
    assert sketch["retained_items"] > 0
    assert sketch["delay_relative_error_bound"] < 0.10


def test_bench_memory_c2_peak_does_not_grow_with_offered_traffic():
    short, long = (_run_soak_child(duration, _C2_CHILD) for duration in (1.5, 6.0))
    for report, duration in ((short, 1.5), (long, 6.0)):
        notes = report["notes"]
        assert notes["delivered"] + notes["dropped"] == int(20_000 * duration)
        assert notes["unaccounted_packets"] == notes["invariant_violations"] == 0
    growth = long["peak_rss_mb"] - short["peak_rss_mb"]
    print(f"C2 peak RSS: {short['peak_rss_mb']} MB at 1.5 s, "
          f"{long['peak_rss_mb']} MB at 6 s (+{growth:.1f} MB)")
    assert growth <= C2_GROWTH_BUDGET_MB, (
        f"C2's peak grew {growth:.1f} MB from 1.5 s to 6 s of offered traffic "
        f"(budget {C2_GROWTH_BUDGET_MB} MB)"
    )
