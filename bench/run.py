"""The repo's end-to-end benchmark: six whole-soak workloads, measured from
outside through the public ``run_*`` experiment functions.

Two ways in, one measurement underneath::

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py [--seed S] [--seconds T] [--out PATH] [--trace-dir DIR] [--quick]

The first is the contract ``BENCHMARK.json`` states: one workload, one
result object on the last line of standard output — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The second
runs every workload both ways, prints every metric by name and unit with
the correctness checks, writes the whole result to ``--out`` and exits
non-zero if a check fails; ``compare.py`` reads two such files.

Every workload is fixed work (a batch simulator has no arrival schedule).
A *unit* is one ``run_*`` call at the workload's fixed size in a fresh
child interpreter (``PYTHONHASHSEED=0``, ``OMP_NUM_THREADS=1``,
``PYTHONPATH=src``), one child at a time.  An untraced measurement repeats
units until ``--seconds`` of run time has been measured (at least two) and
reports the median; a traced measurement is one untraced unit and one
traced unit of the same inputs.  Host-time figures are in *calibrated
seconds* (see ``calibrate.py``); simulated figures are deterministic and
must repeat exactly.

Nothing is written under ``bench/``: outputs go to ``--out`` /
``--trace-dir`` (default ``.bench_out/`` at the root of the checkout).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SOURCE_DIR = os.path.join(ROOT, "src")
DEFAULT_OUT_DIR = os.path.join(ROOT, ".bench_out")
RESULT_SCHEMA = "difane-bench/1"

#: A unit that runs longer than this is a hang, not a slow host.
UNIT_TIMEOUT_S = 150
#: Untraced units per measurement: at least this many, so that repeats can
#: be checked against each other, however short ``--seconds`` is.
MIN_UNITS = 2

sys.path.insert(0, BENCH_DIR)

from tracer import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not produce a result (as opposed to producing
    one that fails a check)."""


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds in force."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- running units ------------------------------------------------------------

def child_environment() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["OMP_NUM_THREADS"] = "1"
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SOURCE_DIR + (os.pathsep + inherited if inherited else "")
    return env


def run_unit(workload: str, seed: int, trace: bool = False, quick: bool = False,
             spans: Optional[str] = None) -> dict:
    """Run one unit in a fresh child interpreter and return its report."""
    command = [sys.executable, os.path.join(BENCH_DIR, "unit.py"), workload,
               "--seed", str(seed), "--trace", "1" if trace else "0"]
    if quick:
        command.append("--quick")
    if spans:
        command += ["--spans", spans]
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=child_environment(), stdout=subprocess.PIPE,
            text=True, timeout=UNIT_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child.
        raise BenchError(f"{workload}: unit exceeded {UNIT_TIMEOUT_S}s")
    if finished.returncode != 0:
        raise BenchError(f"{workload}: unit exited {finished.returncode}")
    try:
        return json.loads(finished.stdout.strip().rsplit("\n", 1)[-1])
    except ValueError:
        raise BenchError(f"{workload}: unit printed no report")


# -- documents ------------------------------------------------------------------

def leaves(value, prefix: str = "", out: Optional[dict] = None) -> dict:
    """Flatten a document to ``{dotted path: leaf}``; lists are leaves (the
    same view ``repro.analysis.obsdiff`` takes, over every section)."""
    if out is None:
        out = {}
    if isinstance(value, dict):
        for key, item in value.items():
            leaves(item, f"{prefix}.{key}" if prefix else str(key), out)
    else:
        out[prefix] = value
    return out


def divergence(reference: dict, candidate: dict) -> Dict[str, int]:
    """Leaves on which two canonical documents differ, and how many there
    are to differ on (a path present on one side only counts once)."""
    ours, theirs = leaves(reference), leaves(candidate)
    paths = set(ours) | set(theirs)
    missing = object()
    differing = sum(
        1 for path in paths
        if ours.get(path, missing) != theirs.get(path, missing)
    )
    return {"differing": differing, "leaves": len(paths)}


# -- checks ---------------------------------------------------------------------

def check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def outcome_checks(outcome: dict) -> List[dict]:
    """Packet conservation and invariants of one unit's simulated outcome."""
    accounted = outcome["delivered"] + outcome["dropped"]
    return [
        check(
            "conservation",
            accounted == outcome["offered"] and outcome["unaccounted"] == 0,
            f"offered {outcome['offered']} = delivered {outcome['delivered']}"
            f" + attributed drops {outcome['dropped']};"
            f" unaccounted {outcome['unaccounted']}",
        ),
        check(
            "invariants", outcome["violations"] == 0,
            f"{outcome['violations']} partition-ownership violations",
        ),
    ]


def passed(result: dict) -> bool:
    """A measurement is correct when every check holds and nothing failed."""
    return all(item["ok"] for item in result["checks"]) and result["failed"] == 0


def failed_packets(units: List[dict]) -> int:
    """Packets the simulator lost track of, plus every packet of a unit
    that trips an invariant or whose document differs from its repeats.
    Modelled drops are not failures; they are ``sim_delivered_share``."""
    failed = 0
    for unit in units:
        outcome = unit["outcome"]
        broken = (
            unit["digest"] != units[0]["digest"]
            or not all(item["ok"] for item in outcome_checks(outcome))
        )
        failed += outcome["offered"] if broken else abs(outcome["unaccounted"])
    return failed


# -- untraced measurement: the end-to-end metrics -----------------------------------

def host_metric(values: List[float], unit: str, kind: str = "host time") -> dict:
    return {"value": statistics.median(values), "unit": unit, "kind": kind,
            "min": min(values), "max": max(values), "n": len(values)}


def sim_metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit, "kind": "simulated"}


def reference_unit(workload: str, seed: int, quick: bool, own: dict) -> dict:
    """The unit whose document ``workload``'s is compared with: one of the
    workload it should reproduce (same seed), or ``own`` — an untraced unit
    of the workload itself — when it is its own reference."""
    reference = WORKLOADS[workload].reference
    return run_unit(reference, seed, quick=quick) if reference else own


def measure(workload: str, seed: int, seconds: float, quick: bool = False) -> dict:
    """Repeat untraced units of ``workload`` for ``seconds`` of run time."""
    units: List[dict] = []
    measured = 0.0
    while not units or (
        not quick and (len(units) < MIN_UNITS or measured < seconds)
    ):
        unit = run_unit(workload, seed, quick=quick)
        measured += unit["wall_s"]
        units.append(unit)
    first = units[0]
    outcome = first["outcome"]
    reference = reference_unit(workload, seed, quick, own=first)
    differs = divergence(reference["document"], first["document"])

    end_to_end = {
        "pkts_per_s": host_metric(
            [u["outcome"]["offered"] / u["run_s"] for u in units], "1/s"),
        "setup_s": host_metric([u["setup_s"] for u in units], "s"),
        "peak_rss_mb": host_metric(
            [u["peak_rss_mb"] for u in units], "MB", kind="host memory"),
        "sim_delivered_share": sim_metric(
            outcome["delivered"] / outcome["offered"], "share"),
        "sim_miss_rate": sim_metric(1.0 - outcome["hit_rate"], "share"),
        "sim_agreement": sim_metric(
            1.0 - differs["differing"] / differs["leaves"], "share"),
    }
    checks = outcome_checks(outcome)
    digests = sorted({unit["digest"] for unit in units})
    checks.append(check(
        "repeatable", len(digests) == 1,
        f"{len(units)} timed repeats share {len(digests)} document digest(s)",
    ))
    return {
        "workload": workload,
        "seed": seed,
        "attempted": sum(unit["outcome"]["offered"] for unit in units),
        "failed": failed_packets(units),
        "digest": first["digest"],
        "sim_divergence": differs["differing"],
        "reference": reference["workload"],
        "end_to_end": end_to_end,
        "checks": checks,
        "units": [
            {key: unit[key] for key in (
                "wall_s", "run_s", "setup_wall_s", "setup_s", "host_speed",
                "speed_samples", "peak_rss_mb",
            )}
            for unit in units
        ],
        "provenance": first["provenance"],
    }


# -- traced measurement: the per-layer metrics --------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: dict, untraced: dict, differing: int) -> Dict[str, dict]:
    """Every per-layer metric of one traced unit, by name.

    Host figures are calibrated like the end-to-end ones (the whole run's
    mean host speed scales every span alike, so shares are untouched);
    counts come from the same wrappers and repeat exactly.
    """
    trace = traced["trace"]
    speed = traced["host_speed"]
    root = trace["root_s"]
    offered = traced["outcome"]["offered"]
    names = trace["names"]
    counters = trace["counters"]

    # Per hooked callable: [calls, inclusive seconds, self seconds].
    def calls(*hooks: str) -> int:
        return sum(names[hook][0] for hook in hooks if hook in names)

    def inclusive(*hooks: str) -> float:
        return speed * sum(names[hook][1] for hook in hooks if hook in names)

    def own(*hooks: str) -> float:
        return speed * sum(names[hook][2] for hook in hooks if hook in names)

    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        count, self_s = trace["layers"].get(layer, (0, 0.0))
        put(f"{layer}.calls", count, "count")
        put(f"{layer}.self_s", speed * self_s, "s")
        put(f"{layer}.share", _ratio(self_s, root), "share")

    def layer_self(layer: str) -> float:
        return out[f"{layer}.self_s"]["value"]

    put("workloads.us_per_pkt", 1e6 * _ratio(layer_self("workloads"), offered), "us")

    events = trace["dispatches"]
    put("net.events.events", events, "count")
    put("net.events.events_per_pkt", _ratio(events, offered), "1/pkt")
    put("net.events.us_per_event", 1e6 * _ratio(layer_self("net.events"), events), "us")
    put("net.events.batch_events", calls("EventScheduler.schedule_batch"), "count")

    sends = calls("Link.send", "Link.send_batch")
    carried = calls("Link.send") + counters.get("link_batch_pkts", 0)
    put("net.links.sends", sends, "count")
    put("net.links.pkts_per_send", _ratio(carried, sends), "pkt")

    put("net.simnet.drops",
        calls("SimNetwork.record_drop") + counters.get("drop_batch_pkts", 0), "count")
    put("net.simnet.delay_p99_us", 1e6 * trace["delay_p99_s"], "us")

    lookup_names = ("RuleTable.lookup", "RuleTable.lookup_bits",
                    "RuleTable.batch_lookup", "VectorMatcher.match")
    lookups = (calls("RuleTable.lookup", "RuleTable.lookup_bits")
               + counters.get("batch_lookups", 0))
    put("flowspace.lookups", lookups, "count")
    put("flowspace.us_per_lookup", 1e6 * _ratio(own(*lookup_names), lookups), "us")
    remove_names = ("RuleTable.remove", "RuleTable.remove_if", "RuleTable.clear")
    put("flowspace.removes", calls(*remove_names), "count")
    put("flowspace.remove_s", inclusive(*remove_names), "s")
    put("flowspace.matcher_builds", calls("VectorMatcher.__init__"), "count")
    put("flowspace.matcher_build_s", inclusive("VectorMatcher.__init__"), "s")

    put("switch.cache.installs", calls("CacheManager.install"), "count")
    put("switch.cache.evictions", counters.get("tcam_evictions", 0), "count")
    put("switch.cache.expire_calls", calls("CacheManager.expire"), "count")
    put("switch.cache.expire_s", inclusive("CacheManager.expire"), "s")

    redirects = traced["outcome"]["redirects"]
    put("core.authority.redirects", redirects, "count")
    put("core.authority.redirect_share", _ratio(redirects, offered), "share")

    cachegen_calls = out["core.cachegen.calls"]["value"]
    put("core.cachegen.us_per_call",
        1e6 * _ratio(layer_self("core.cachegen"), cachegen_calls), "us")

    put("core.controller.build_s", inclusive("DifaneNetwork.build"), "s")
    put("core.controller.partition_s", inclusive("partition_policy"), "s")

    put("core.shards.migrations", calls("PartitionMigrator.migrate"), "count")

    put("openflow.channel.sends",
        calls("ControlChannel.send_to_controller", "ControlChannel.send_to_switch"),
        "count")
    put("openflow.channel.retries", traced["outcome"]["retries"], "count")

    put("obs.records",
        calls("DeliveryLog.append", "PacketTracer.record")
        + counters.get("obs_batch_records", 0), "count")

    put("trace.overhead", _ratio(traced["run_s"], untraced["run_s"]) - 1.0, "share")
    put("trace.unattributed_share", out["experiments.share"]["value"], "share")
    put("trace.missing_hooks", len(trace["missing_hooks"]), "count")
    put("trace.spans_sampled", trace["spans_sampled"], "count")

    put("sim.hit_rate", traced["outcome"]["hit_rate"], "share")
    put("sim.divergence", differing, "count")
    return out


def trace(workload: str, seed: int, quick: bool = False,
          trace_dir: Optional[str] = None) -> dict:
    """One untraced and one traced unit of the same inputs."""
    trace_dir = trace_dir or DEFAULT_OUT_DIR
    os.makedirs(trace_dir, exist_ok=True)
    # One file per workload, overwritten by the next traced run of it: a
    # driver that traces many seeds must not fill the checkout.
    spans = os.path.abspath(os.path.join(trace_dir, f"{workload}.spans.jsonl"))
    untraced = run_unit(workload, seed, quick=quick)
    traced = run_unit(workload, seed, trace=True, quick=quick, spans=spans)
    reference = reference_unit(workload, seed, quick, own=untraced)
    differs = divergence(reference["document"], traced["document"])
    per_layer = per_layer_metrics(traced, untraced, differs["differing"])

    root = traced["trace"]["root_s"]
    attributed = sum(self_s for _, self_s in traced["trace"]["layers"].values())
    checks = outcome_checks(traced["outcome"])
    checks.append(check(
        "tracing-is-transparent", traced["digest"] == untraced["digest"],
        "the traced run's document digest equals the untraced one",
    ))
    checks.append(check(
        "self-times-telescope", abs(attributed - root) <= 0.01 * root,
        f"layer self times sum to {attributed:.6f}s of a {root:.6f}s root span",
    ))
    units = [untraced, traced]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": sum(unit["outcome"]["offered"] for unit in units),
        "failed": failed_packets(units),
        "per_layer": per_layer,
        "checks": checks + [check("spans-written", os.path.exists(spans), spans)],
        "missing_hooks": traced["trace"]["missing_hooks"],
    }


# -- output ---------------------------------------------------------------------

def _format_metric(name: str, metric: dict) -> str:
    line = f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:6s}"
    kind = metric.get("kind", "")
    if kind.startswith("host"):
        line += (f" {kind}; median of {metric['n']}"
                 f" [{metric['min']:.6g} .. {metric['max']:.6g}]")
    elif kind:
        line += f" {kind}"
    return line


def print_measurement(result: dict, section: str) -> None:
    print(f"{result['workload']} (seed {result['seed']}): {section}")
    for name, metric in result[section].items():
        print(_format_metric(name, metric))
    for item in result["checks"]:
        verdict = "ok  " if item["ok"] else "FAIL"
        print(f"  check {verdict} {item['name']}: {item['detail']}")
    print(f"  attempted {result['attempted']} packets, failed {result['failed']}")


def contract_result(result: dict, section: str, names: List[str]) -> dict:
    """The one object the contract wants on the last line of stdout."""
    return {
        "correct": passed(result),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result[section][name]["value"],
                   "unit": result[section][name]["unit"]}
            for name in names
        },
    }


def run_suite(args, contract: dict) -> int:
    """Every workload, untraced then traced; the whole result to ``--out``."""
    started = time.time()
    results: Dict[str, dict] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        measured = measure(workload, args.seed, args.seconds, quick=args.quick)
        print_measurement(measured, "end_to_end")
        traced = trace(workload, args.seed, quick=args.quick,
                       trace_dir=args.trace_dir)
        print_measurement(traced, "per_layer")
        measured["per_layer"] = traced["per_layer"]
        measured["checks"] += traced["checks"]
        measured["failed"] += traced["failed"]
        measured["missing_hooks"] = traced["missing_hooks"]
        measured["correct"] = passed(measured)
        results[workload] = measured
    provenance = next(iter(results.values()))["provenance"]
    for measured in results.values():
        del measured["provenance"]
    document = {
        "schema": RESULT_SCHEMA,
        # Quick sizes are a smoke test: never compare them with anything.
        "comparable": not args.quick,
        "seed": args.seed,
        "seconds": args.seconds,
        "min_units": MIN_UNITS,
        "sizes": {
            name: dict(workload.quick if args.quick else workload.full)
            for name, workload in WORKLOADS.items()
        },
        "provenance": provenance,
        "elapsed_s": time.time() - started,
        "workloads": results,
    }
    out = args.out or os.path.join(DEFAULT_OUT_DIR, "result.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    failing = [name for name, measured in results.items() if not measured["correct"]]
    print(f"result written to {out} ({document['elapsed_s']:.0f}s);"
          f" {len(failing)} workload(s) failed a check"
          + (f": {', '.join(failing)}" if failing else ""))
    return 1 if failing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="DIFANE reproduction: end-to-end benchmark")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="measure one workload and print the contract's "
                             "result object last (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run time to measure per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = per-layer metrics of a traced run")
    parser.add_argument("--out", default=None,
                        help="suite result JSON (default .bench_out/result.json)")
    parser.add_argument("--trace-dir", default=None,
                        help="where traced runs write their span files "
                             "(default .bench_out/)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one unit each: a smoke test whose "
                             "numbers are marked non-comparable")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SOURCE_DIR, "repro")):
        print(f"error: no program to measure: {SOURCE_DIR}/repro is missing",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    # The build step: byte-compile once so that no timed unit pays for it.
    compileall.compile_dir(SOURCE_DIR, quiet=2)
    compileall.compile_dir(BENCH_DIR, quiet=2)

    try:
        if args.workload is None:
            return run_suite(args, contract)
        if args.trace:
            result = trace(args.workload, args.seed, quick=args.quick,
                           trace_dir=args.trace_dir)
            section, listed = "per_layer", contract["per_layer"]
        else:
            result = measure(args.workload, args.seed, args.seconds,
                             quick=args.quick)
            section, listed = "end_to_end", contract["end_to_end"]
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_measurement(result, section)
    final = contract_result(result, section, [m["name"] for m in listed])
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
