"""Shared helpers for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures, times the
run via pytest-benchmark (one round — these are experiments, not
microbenchmarks), prints the rows/series, and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can reference a stable copy.

Every archived timing JSON embeds the host's provenance (CPU model,
core count, interpreter, worker count), because wall-clock numbers are
meaningless without the hardware they were measured on.  The metrics
documents carry none: they count simulated events, so they are the same
on every host, and CI diffs the figures' documents against the
checked-in copies.

Parallelism knobs: ``--repro-jobs N`` (or the ``REPRO_JOBS`` env var)
fans experiment sweeps out over N worker processes; ``--repro-cache-dir``
points the workload artifact cache at a disk directory shared across
runs.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Optional

import pytest

from repro.obs import context as obs_context
from repro.obs import fresh_run_context
from repro.parallel import configure_artifact_cache, host_provenance

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def pytest_addoption(parser):
    parser.addoption(
        "--repro-jobs", type=int,
        default=int(os.environ.get("REPRO_JOBS", "1")),
        help="worker processes for experiment sweeps (0 = all cores); "
             "archived output is identical whatever the value",
    )
    parser.addoption(
        "--repro-cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        help="directory for the on-disk workload artifact cache "
             "(unset = in-memory only)",
    )


@pytest.fixture
def jobs(request):
    """Worker-process count for sweeps (from --repro-jobs / REPRO_JOBS)."""
    return request.config.getoption("--repro-jobs")


@pytest.fixture(autouse=True)
def _artifact_cache_dir(request):
    """Point the process-wide artifact cache at --repro-cache-dir."""
    cache_dir = request.config.getoption("--repro-cache-dir")
    if cache_dir:
        configure_artifact_cache(cache_dir)


@pytest.fixture
def archive(request):
    """Return a writer: archive(name, text) prints and persists the text.

    The fixture installs a fresh observability context before the bench
    body runs, so every network the bench builds reports into one
    registry; the writer persists that registry as ``<name>-metrics.json``
    next to the text archive.  ``archive(name, text, timing=report)``
    also writes the wall-clock ``report`` as ``<name>.json``, stamped
    with the host's provenance.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    previous = obs_context.current()
    context = fresh_run_context()
    provenance = host_provenance(jobs=request.config.getoption("--repro-jobs"))

    def write(name: str, text: str, timing: Optional[dict] = None) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        context.metrics.write_json(RESULTS_DIR / f"{name}-metrics.json", name=name)
        if timing is not None:
            (RESULTS_DIR / f"{name}.json").write_text(json.dumps(
                dict(timing, host=provenance), indent=2, sort_keys=True
            ) + "\n")

    yield write
    obs_context.install(previous)


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under the benchmark timer."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
