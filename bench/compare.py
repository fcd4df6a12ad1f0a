"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit, or the first of two runs of the
same code) and ``B`` the candidate.  One row per (workload, end-to-end
metric), judged with the bounds in ``BENCHMARK.json``:

* ``same`` / ``better`` / ``worse`` — ``B``'s median against ``A``'s; a
  host metric moves only when it differs by more than its bound, a
  simulated metric or a failed count when it differs at all (they are
  deterministic, so the comparison is exact);
* ``unresolved`` — the spread between the repeats inside either result is
  wider than the metric's bound, so neither "same" nor a change can be
  read off these runs.

Exit status: 1 if any row is ``worse``, 2 if the two results cannot be
compared (different seeds or sizes, or a ``--quick`` result), else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DEFAULT_CONTRACT = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")

__all__ = ["compare", "judge", "main"]


def judge(before: dict, after: dict, better: str, bound: float) -> str:
    """The verdict on one metric (see the module docstring)."""
    a, b = before["value"], after["value"]
    # Positive = the candidate is worse, as a share of the baseline.
    direction = 1.0 if better == "lower" else -1.0
    worse_by = direction * (b - a) / abs(a) if a else direction * (b - a)
    if "n" not in before:  # deterministic: simulated metrics, failed counts
        if a == b:
            return "same"
        return "worse" if worse_by > 0 else "better"
    spread = max(
        (side["max"] - side["min"]) / abs(side["value"])
        for side in (before, after) if side["value"]
    )
    if spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(baseline: dict, candidate: dict, contract: dict) -> List[dict]:
    """Every row of the comparison, in contract order."""
    rows: List[dict] = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        before = baseline["workloads"][workload]
        after = candidate["workloads"][workload]
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = before["end_to_end"][name], after["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "baseline": a["value"], "candidate": b["value"],
                "verdict": judge(a, b, metric["better"], metric["bound"]),
            })
        rows.append({
            "workload": workload, "metric": "failed", "unit": "count",
            "baseline": before["failed"], "candidate": after["failed"],
            "verdict": judge({"value": before["failed"]},
                             {"value": after["failed"]}, "lower", 0.0),
        })
    return rows


def incomparable(baseline: dict, candidate: dict) -> Optional[str]:
    """Why the two results must not be compared, or ``None``."""
    for label, result in (("baseline", baseline), ("candidate", candidate)):
        if not result.get("comparable", False):
            return f"the {label} is a --quick result: its numbers mean nothing"
    for key in ("schema", "seed", "sizes"):
        if baseline.get(key) != candidate.get(key):
            return f"the results differ in {key}: simulated metrics cannot match"
    return None


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':12s} {'metric':20s} {'baseline':>14s} "
             f"{'candidate':>14s} {'change':>8s}  verdict"]
    for row in rows:
        a, b = row["baseline"], row["candidate"]
        change = f"{100.0 * (b - a) / abs(a):+.1f}%" if a else "-"
        lines.append(
            f"{row['workload']:12s} {row['metric']:20s} {a:>14.6g} "
            f"{b:>14.6g} {change:>8s}  {row['verdict']}"
        )
    return "\n".join(lines) + "\n"


def _load(path: str) -> Dict[str, object]:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", help="result JSON of the parent / first run")
    parser.add_argument("candidate", help="result JSON of the change / second run")
    parser.add_argument("--contract", default=DEFAULT_CONTRACT,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args(argv)
    try:
        baseline, candidate = _load(args.baseline), _load(args.candidate)
        contract = _load(args.contract)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reason = incomparable(baseline, candidate)
    if reason is not None:
        print(f"error: {reason}", file=sys.stderr)
        return 2
    rows = compare(baseline, candidate, contract)
    sys.stdout.write(render(rows))
    counts = {verdict: sum(1 for row in rows if row["verdict"] == verdict)
              for verdict in ("same", "better", "worse", "unresolved")}
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
