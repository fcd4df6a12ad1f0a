"""Golden-regression tests: cheap experiment configs vs checked-in metrics.

Each test re-runs the ``quick`` configuration of one experiment with a
``golden`` name in the experiment table (:mod:`repro.experiments.registry`)
inside a fresh observability context, builds the canonical metrics document
(:func:`repro.experiments.common.metrics_document`), and diffs it —
verbatim, after a JSON round-trip — against ``tests/goldens/``.  Any
behavioural drift in the simulator (delivery counts, drop attribution,
pipeline stage mix, control-channel retries) shows up as a golden diff
instead of a silent change.

Refresh the goldens deliberately with::

    PYTHONPATH=src python -m pytest tests/test_golden_results.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.experiments.common import metrics_document
from repro.experiments.registry import SPECS
from repro.obs import context as obs_context
from repro.obs import fresh_run_context

GOLDENS_DIR = pathlib.Path(__file__).parent / "goldens"


@pytest.fixture
def run_context():
    """A fresh observability context, restored to the previous one after.

    Telemetry is on, so the goldens also pin the ``difane-telemetry/1``
    section: window boundaries, per-window counter deltas, probe levels
    and health findings are all part of the regression surface.
    """
    previous = obs_context.current()
    context = fresh_run_context(trace=True, telemetry=True)
    yield context
    obs_context.install(previous)


def _golden_check(result, golden: str, context, update: bool) -> None:
    document = json.loads(json.dumps(metrics_document(result, context=context)))
    path = GOLDENS_DIR / f"{golden}-metrics.json"
    if update:
        GOLDENS_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden rewritten: {path.name}")
    assert path.exists(), (
        f"missing golden {path}; run with --update-goldens to create it"
    )
    golden = json.loads(path.read_text())
    assert document == golden, (
        f"metrics document for {result.name} drifted from {path.name}; "
        "if the change is intentional, refresh with --update-goldens"
    )


GOLDEN_SPECS = [spec for spec in SPECS.values() if spec.golden]


@pytest.mark.parametrize(
    "spec", GOLDEN_SPECS, ids=[spec.golden for spec in GOLDEN_SPECS]
)
def test_golden_metrics(spec, run_context, update_goldens):
    result = spec(quick=True)
    if spec.id == "E7":
        # The one trace-driven golden.  A replay emits no counters, so the
        # metrics document alone would pin only the parameters: fold the
        # exact miss-rate series and the install table into the notes.
        result.notes["miss_rate"] = {s.label: s.points() for s in result.series}
        result.notes["table"] = [
            dict(zip(result.table_headers, row)) for row in result.table_rows
        ]
    _golden_check(result, spec.golden, run_context, update_goldens)


def test_golden_runs_are_deterministic():
    """The premise of golden testing: two identical runs, identical docs."""
    documents = []
    previous = obs_context.current()
    try:
        for _ in range(2):
            context = fresh_run_context(trace=True, telemetry=True)
            result = SPECS["E4"](quick=True)
            documents.append(
                json.loads(json.dumps(metrics_document(result, context=context)))
            )
    finally:
        obs_context.install(previous)
    assert documents[0] == documents[1]


def test_parallel_telemetry_matches_serial():
    """``--jobs 2`` telemetry must be byte-identical to ``--jobs 1``.

    Worker recorders dump their windows and the parent merges them
    window-wise (counter deltas sum, probe levels max); because both
    operations are associative and commutative, the merged section —
    and therefore the serialized document — cannot depend on worker
    scheduling.
    """
    texts = []
    previous = obs_context.current()
    try:
        for jobs in (1, 2):
            context = fresh_run_context(trace=True, telemetry=True)
            result = SPECS["E4"](quick=True, jobs=jobs)
            document = metrics_document(result, context=context)
            assert document["telemetry"]["windows"], "telemetry never sampled"
            texts.append(json.dumps(document, indent=2, sort_keys=True))
    finally:
        obs_context.install(previous)
    assert texts[0] == texts[1]
