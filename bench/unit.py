"""One measured unit: this interpreter runs one workload once and reports.

``run.py`` starts a fresh child per unit (so set-up, imports and peak RSS
are paid and seen every time, as by someone running the CLI) and reads the
one JSON object this prints last.  Everything the parent needs crosses
that pipe: host times, the simulated outcome, the canonical document and,
for a traced unit, the tracer's aggregates.
"""

import time

_CHILD_STARTED = time.perf_counter()  # before any other import: "child start"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibrate import Calibrator  # noqa: E402
from tracer import Tracer, rebind  # noqa: E402

#: Metric families that describe the host, not the simulated network.
HOST_TIME_PREFIXES = ("profile_", "artifact_cache_")


def canonical_document(document: dict) -> dict:
    """``document`` without what may differ between equivalent runs: the
    engine note (engines must agree on everything else) and host-time
    metric families."""
    canonical = dict(document)
    canonical["notes"] = {
        key: value for key, value in document.get("notes", {}).items()
        if key != "engine"
    }
    canonical["metrics"] = {
        kind: {
            name: value for name, value in family.items()
            if not name.startswith(HOST_TIME_PREFIXES)
        }
        for kind, family in document.get("metrics", {}).items()
    }
    return canonical


def document_digest(document: dict) -> str:
    """SHA-256 of the canonical document's sorted-key JSON."""
    text = json.dumps(canonical_document(document), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def watch_first_offer(clock, marks: dict, replays: list) -> None:
    """Catch the instant the run first offers traffic, from outside.

    Event-driven workloads offer through ``DifaneNetwork.send_at`` /
    ``send_batch_at``: a one-shot wrapper stamps the first call and
    removes itself, so the timed run pays for one extra call in total.
    The trace-driven workload offers through the ``simulate_*_cache``
    replays: those wrappers stay (18 calls a run) because their results
    are the only place the replay's packet accounting is visible.
    """
    from repro.baselines import microflow_cache
    from repro.core.controller import DifaneNetwork

    entry_points = {
        name: vars(DifaneNetwork)[name]
        for name in ("send_at", "send_batch_at") if name in vars(DifaneNetwork)
    }

    def one_shot(send):
        def first_offer(*args, **kwargs):
            marks.setdefault("first_offer", clock())
            for name, original in entry_points.items():
                setattr(DifaneNetwork, name, original)
            return send(*args, **kwargs)
        return first_offer

    for name, original in entry_points.items():
        setattr(DifaneNetwork, name, one_shot(original))

    def recording(simulate):
        def replay(*args, **kwargs):
            marks.setdefault("first_offer", clock())
            outcome = simulate(*args, **kwargs)
            replays.append(outcome)
            return outcome
        replay.__module__ = simulate.__module__
        replay.__qualname__ = replay.__name__ = simulate.__name__
        return replay

    for name in ("simulate_wildcard_cache", "simulate_microflow_cache"):
        original = getattr(microflow_cache, name, None)
        if original is not None:
            rebind(original, recording(original))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spans", default=None,
                        help="write the sampled spans here (traced unit)")
    args = parser.parse_args(argv)

    calibrator = Calibrator()
    calibrator.start()
    clock = calibrator.clock
    # Nothing was sampled before start(), so the calibrator's clock still
    # agrees with the timer read on this file's first line.
    started = _CHILD_STARTED

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]

    import numpy
    from repro.experiments.common import metrics_document
    from repro.flowspace.batch import set_columnar
    from repro.obs import fresh_run_context
    from repro.parallel import host_provenance

    set_columnar(workload.columnar)
    context = fresh_run_context()
    marks: dict = {}
    replays: list = []
    watch_first_offer(clock, marks, replays)

    tracer = root = None
    if args.trace:
        tracer = Tracer(clock=clock)
        tracer.patch()
        root = tracer.begin("experiments", "run:" + args.workload)
    run_started = clock()
    try:
        result = workload.run(args.seed, args.quick)
    finally:
        run_finished = clock()
        if tracer is not None:
            root_s = tracer.end(root)
            tracer.unpatch()
    calibrator.stop()

    document = metrics_document(result, context=context)
    outcome = workload.outcome(result, context, replays)
    first_offer = marks.get("first_offer", run_finished)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "wall_s": run_finished - run_started,
        "run_s": calibrator.calibrated(run_started, run_finished),
        "setup_wall_s": first_offer - started,
        "setup_s": calibrator.calibrated(started, first_offer),
        "host_speed": calibrator.speed(run_started, run_finished),
        "speed_samples": len(calibrator.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outcome": outcome,
        "digest": document_digest(document),
        "document": canonical_document(document),
        "provenance": dict(
            host_provenance(), numpy=numpy.__version__,
            interpreter=sys.version.split()[0],
        ),
    }
    if tracer is not None:
        delays = tracer.counters.pop("delays", [])
        report["trace"] = {
            "root_s": root_s,
            "layers": tracer.layers,
            "names": tracer.names,
            "counters": tracer.counters,
            "delay_p99_s": _weighted_quantile(delays, 0.99),
            "dispatches": tracer.dispatches,
            "spans_sampled": len(tracer.spans),
            "missing_hooks": tracer.missing,
        }
        if args.spans:
            tracer.write_spans(args.spans, origin=run_started)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


def _weighted_quantile(samples, q: float) -> float:
    """The ``q`` quantile of ``(value, count)`` samples (0.0 when empty)."""
    total = sum(count for _, count in samples)
    if not total:
        return 0.0
    rank = q * total
    seen = 0
    for value, count in sorted(samples):
        seen += count
        if seen >= rank:
            return value
    return 0.0


if __name__ == "__main__":
    sys.exit(main())
