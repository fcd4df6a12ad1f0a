"""Health detectors over telemetry windows.

Each detector scans the exported ``difane-telemetry/1`` section and
emits structured **findings** — dicts with a detector name, severity,
the window they fired in, and a human-readable detail line.  Findings
ship inside the metrics document, so golden tests pin them and
``repro obs diff`` surfaces new ones as regressions.

Detectors (all thresholds are fixed constants: findings must be
byte-deterministic, so nothing here adapts to the data):

* **authority-imbalance** — Jain's fairness index over the per-window
  redirect load of the authority switches.  DIFANE's partitioning claim
  is that load stays balanced; an authority kill (chaos C1) collapses
  the survivors' fairness and this fires.  The rule itself is
  :func:`authority_imbalance`; the rebalancer
  (:class:`~repro.core.shards.Rebalancer`) applies it to the per-switch
  deltas it reads each cycle, with no telemetry document in between.
* **degraded-mode** — any window with controller-punt packets
  (orphaned partitions) is a critical finding: the data-plane-only
  invariant was violated.
* **cache-churn** — eviction spikes within one window (thrashing
  ingress caches under-provisioned for the working set).
* **top-switches** — informational: the heaviest switches by total
  data-plane work, for the report dashboards.
* **slo-burn / slo-exhausted** — per-class SLO evaluation (only when the
  telemetry section carries ``slo_specs``): each class's windows are
  judged against its :class:`~repro.obs.qos.SloSpec` targets, and
  multi-window burn rates over the resulting error budget emit a
  warning when the budget is burning fast (short *and* long trailing
  burn above threshold) and a critical, once, when the run's whole
  budget is spent.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.qos import bucket_quantile

__all__ = [
    "authority_imbalance",
    "evaluate_telemetry",
    "jain_fairness",
    "slo_report",
    "qos_class_summary",
    "IMBALANCE_FAIRNESS_THRESHOLD",
    "IMBALANCE_MIN_LOAD",
    "CACHE_CHURN_THRESHOLD",
    "TOP_K_SWITCHES",
    "SLO_SHORT_WINDOWS",
    "SLO_LONG_WINDOWS",
    "SLO_BURN_THRESHOLD",
]

#: Jain index below which per-window authority load counts as imbalanced
#: (1.0 = perfectly even; 1/n = one switch carries everything).
IMBALANCE_FAIRNESS_THRESHOLD = 0.8

#: Minimum redirects in a window before imbalance is judged — tiny
#: windows are all-noise (one redirect is always "imbalanced").
IMBALANCE_MIN_LOAD = 8

#: Cache evictions within one window that count as churn.
CACHE_CHURN_THRESHOLD = 16

#: Switches listed by the informational top-switches finding.
TOP_K_SWITCHES = 3

#: Trailing eligible windows in the *short* (fast) burn-rate window.
SLO_SHORT_WINDOWS = 3

#: Trailing eligible windows in the *long* (sustained) burn-rate window.
SLO_LONG_WINDOWS = 12

#: Burn-rate multiple of the budget that, sustained in both windows
#: while the current window is bad, emits the slo-burn warning.
SLO_BURN_THRESHOLD = 2.0

_SWITCH_LABEL = re.compile(r"\{switch=([^}]*)\}")
_CLASS_LABEL = re.compile(r"[{,]flow_class=([^,}]*)")
_LE_LABEL = re.compile(r"[{,]le=([^,}]*)")


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``, 1.0 when empty."""
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(value * value for value in values)
    if squares == 0:
        return 1.0
    return (total * total) / (len(values) * squares)


def authority_imbalance(per_authority: Sequence[float]) -> Tuple[float, bool]:
    """The authority-imbalance rule over one window's per-authority load.

    Returns ``(fairness, fires)``: the Jain fairness of the loads, and
    whether it counts as imbalanced — at least two authorities, at least
    :data:`IMBALANCE_MIN_LOAD` redirects, and fairness below
    :data:`IMBALANCE_FAIRNESS_THRESHOLD`.
    """
    fairness = jain_fairness(per_authority)
    fires = (
        len(per_authority) >= 2
        and sum(per_authority) >= IMBALANCE_MIN_LOAD
        and fairness < IMBALANCE_FAIRNESS_THRESHOLD
    )
    return fairness, fires


def _switch_of(key: str) -> Optional[str]:
    match = _SWITCH_LABEL.search(key)
    return match.group(1) if match else None


def _per_switch(counters: Dict[str, float], prefix: str) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in counters.items():
        if key.startswith(prefix):
            switch = _switch_of(key)
            if switch is not None:
                out[switch] = out.get(switch, 0.0) + value
    return out


def _finding(detector, severity, window, detail) -> Dict[str, object]:
    return {
        "detector": detector,
        "severity": severity,
        "window": window["index"],
        "start": window["start"],
        "end": window["end"],
        "detail": detail,
    }


def evaluate_telemetry(section: Dict[str, object]) -> List[Dict[str, object]]:
    """Run every detector over an exported telemetry section.

    Returns findings sorted by ``(window, detector)`` — a pure function
    of the section, so identical runs yield identical findings.
    """
    windows = section.get("windows", [])
    findings: List[Dict[str, object]] = []

    # Which switches ever handled redirects: the fairness denominator.
    # Only switches that are authorities at all should count — an edge
    # switch that never handles redirects is not "starved".
    authority_totals: Dict[str, float] = {}
    for window in windows:
        for switch, value in _per_switch(
            window["counters"], "difane_redirects_handled_total"
        ).items():
            authority_totals[switch] = authority_totals.get(switch, 0.0) + value
    authorities = sorted(switch for switch, total in authority_totals.items() if total)

    eviction_level = 0.0  # the newest cumulative eviction sample so far
    for window in windows:
        counters = window["counters"]

        loads = _per_switch(counters, "difane_redirects_handled_total")
        per_authority = [loads.get(switch, 0.0) for switch in authorities]
        fairness, fires = authority_imbalance(per_authority)
        if fires:
            shares = ", ".join(
                f"{switch}={load:g}"
                for switch, load in zip(authorities, per_authority)
            )
            findings.append(
                _finding(
                    "authority-imbalance",
                    "warning",
                    window,
                    f"Jain fairness {fairness:.3f} over {sum(per_authority):g} "
                    f"redirects ({shares})",
                )
            )

        degraded = sum(
            value for key, value in counters.items()
            if key.startswith("difane_degraded_packets_total")
        )
        if degraded > 0:
            findings.append(
                _finding(
                    "degraded-mode",
                    "critical",
                    window,
                    f"{degraded:g} packet(s) fell back to the controller "
                    f"(orphaned partition)",
                )
            )

        churn = sum(
            value for key, value in counters.items()
            if key.startswith("cache_evictions_total")
        )
        # Evictions also arrive as cumulative probe samples; use the
        # window-over-window delta of the max-merged level.
        level = _eviction_level(window)
        if not churn and level is not None:
            churn = max(0.0, level - eviction_level)
        if level is not None:
            eviction_level = level
        if churn >= CACHE_CHURN_THRESHOLD:
            findings.append(
                _finding(
                    "cache-churn",
                    "warning",
                    window,
                    f"{churn:g} cache evictions in one window",
                )
            )

    top = _top_switches(windows)
    if top and windows:
        last = windows[-1]
        detail = ", ".join(f"{switch}={total:g}" for switch, total in top)
        findings.append(
            _finding(
                "top-switches",
                "info",
                last,
                f"heaviest switches by data-plane work: {detail}",
            )
        )

    if section.get("slo_specs"):
        findings.extend(slo_report(section)["findings"])

    findings.sort(key=lambda f: (f["window"], f["detector"]))
    return findings


def _eviction_level(window) -> Optional[float]:
    samples = window.get("samples")
    if not samples:
        return None
    levels = [
        value for key, value in samples.items()
        if key.startswith("difane_cache_evictions")
    ]
    return sum(levels) if levels else None


_WORK_PREFIXES = (
    "difane_cache_hits_total",
    "difane_authority_hits_total",
    "difane_redirects_out_total",
    "difane_redirects_handled_total",
)


def _top_switches(windows) -> List:
    totals: Dict[str, float] = {}
    for window in windows:
        for prefix in _WORK_PREFIXES:
            for switch, value in _per_switch(window["counters"], prefix).items():
                totals[switch] = totals.get(switch, 0.0) + value
    # Switches with zero total work are not "heavy" — an all-zero load
    # series (e.g. counters explicitly exported as 0.0) must not produce
    # a spurious finding.
    ranked = sorted(
        ((switch, total) for switch, total in totals.items() if total),
        key=lambda kv: (-kv[1], kv[0]),
    )
    return ranked[:TOP_K_SWITCHES]


# -- per-class SLO evaluation ------------------------------------------------

def _class_stats(counters: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Aggregate one window's ``qos_*`` counters per flow class.

    The per-switch split the counters carry is irrelevant to SLO math —
    a class's miss rate is network-wide — so everything folds down to
    per-class sums (plus the latency histogram's per-bucket sums).
    """
    stats: Dict[str, Dict[str, object]] = {}
    for key, value in counters.items():
        if not key.startswith("qos_"):
            continue
        label = _CLASS_LABEL.search(key)
        if label is None:
            continue
        entry = stats.setdefault(label.group(1), {
            "cache_hits": 0.0, "authority_hits": 0.0, "redirects": 0.0,
            "delivered": 0.0, "dropped": 0.0, "shed": 0.0, "buckets": {},
        })
        name = key.split("{", 1)[0]
        if name == "qos_redirect_delay_bucket_total":
            le = _LE_LABEL.search(key)
            if le is not None:
                buckets = entry["buckets"]
                buckets[le.group(1)] = buckets.get(le.group(1), 0.0) + value
        elif name == "qos_cache_hits_total":
            entry["cache_hits"] += value
        elif name == "qos_authority_hits_total":
            entry["authority_hits"] += value
        elif name == "qos_redirects_total":
            entry["redirects"] += value
        elif name == "qos_delivered_total":
            entry["delivered"] += value
        elif name == "qos_dropped_total":
            entry["dropped"] += value
        elif name == "qos_shed_total":
            entry["shed"] += value
    return stats


def _violations(stats: Optional[Dict[str, object]], spec: Dict[str, object]) -> List[str]:
    """Which of the spec's targets this window's class stats violate."""
    reasons: List[str] = []
    if stats is None:
        return reasons
    target = spec.get("miss_rate_target")
    lookups = stats["cache_hits"] + stats["authority_hits"] + stats["redirects"]
    if target is not None and lookups > 0:
        miss = stats["redirects"] / lookups
        if miss > target:
            reasons.append(f"miss-rate {miss:.3f} > {target:g}")
    target = spec.get("latency_target_s")
    if target is not None:
        quantile = float(spec.get("latency_quantile", 0.99))
        observed = bucket_quantile(stats["buckets"], quantile)
        if observed is not None and observed > target:
            reasons.append(
                f"p{100 * quantile:g} redirect latency {observed:g}s > {target:g}s"
            )
    target = spec.get("delivery_target")
    outcomes = stats["delivered"] + stats["dropped"]
    if target is not None and outcomes > 0:
        rate = stats["delivered"] / outcomes
        if rate < target:
            reasons.append(f"delivery {rate:.3f} < {target:g}")
    return reasons


def slo_report(section: Dict[str, object]) -> Dict[str, object]:
    """Evaluate every exported SLO spec over the telemetry windows.

    Per class: a window is **eligible** when the class saw any traffic
    in it, **bad** when any configured target is violated.  The error
    budget allows ``budget × eligible`` bad windows across the run;
    trailing burn rates over :data:`SLO_SHORT_WINDOWS` /
    :data:`SLO_LONG_WINDOWS` eligible windows emit ``slo-burn``
    (warning) while the budget drains fast, and ``slo-exhausted``
    (critical) fires once when the cumulative bad count exceeds the
    run's whole allowance — immediately on the first bad window when
    the budget is zero.  Pure function of the section: identical runs
    yield identical findings, so goldens can pin them.
    """
    specs = section.get("slo_specs") or []
    windows = section.get("windows", [])
    per_window = [_class_stats(window["counters"]) for window in windows]
    findings: List[Dict[str, object]] = []
    summary: Dict[str, Dict[str, object]] = {}
    for spec in sorted(specs, key=lambda s: s["flow_class"]):
        cls = spec["flow_class"]
        budget = float(spec.get("budget", 0.0))
        judged = []  # (window, eligible, reasons) in window order
        for window, stats_by_class in zip(windows, per_window):
            stats = stats_by_class.get(cls)
            eligible = stats is not None and (
                stats["cache_hits"] + stats["authority_hits"]
                + stats["redirects"] + stats["delivered"] + stats["dropped"]
            ) > 0
            judged.append((window, eligible, _violations(stats, spec)))
        total_eligible = sum(1 for _, eligible, _ in judged if eligible)
        allowed = budget * total_eligible
        history: List[bool] = []  # badness per eligible window, in order
        cum_bad = 0
        exhausted = False
        max_short = 0.0
        max_long = 0.0
        burn_findings = 0
        exhausted_findings = 0
        for window, eligible, reasons in judged:
            if not eligible:
                continue
            bad = bool(reasons)
            history.append(bad)
            if bad:
                cum_bad += 1
            if budget > 0 and len(history) >= SLO_SHORT_WINDOWS:
                # Warm-up gate: a burn rate over fewer windows than the
                # short detector's span is all cold-start noise (the very
                # first bad window would read as a 1/budget-x burn).
                short = history[-SLO_SHORT_WINDOWS:]
                long = history[-SLO_LONG_WINDOWS:]
                short_burn = (sum(short) / len(short)) / budget
                long_burn = (sum(long) / len(long)) / budget
                max_short = max(max_short, short_burn)
                max_long = max(max_long, long_burn)
                if (
                    bad
                    and short_burn >= SLO_BURN_THRESHOLD
                    and long_burn >= SLO_BURN_THRESHOLD
                ):
                    burn_findings += 1
                    findings.append(
                        _finding(
                            "slo-burn",
                            "warning",
                            window,
                            f"class {cls}: burning {short_burn:.2f}x/"
                            f"{long_burn:.2f}x of budget {budget:g} "
                            f"({'; '.join(reasons)})",
                        )
                    )
            if not exhausted and bad and cum_bad > allowed:
                exhausted = True
                exhausted_findings += 1
                findings.append(
                    _finding(
                        "slo-exhausted",
                        "critical",
                        window,
                        f"class {cls}: {cum_bad} bad of {total_eligible} "
                        f"eligible windows exceeds error budget {budget:g} "
                        f"({'; '.join(reasons)})",
                    )
                )
        remaining = (
            (allowed - cum_bad) / allowed if allowed > 0
            else (1.0 if cum_bad == 0 else 0.0)
        )
        summary[cls] = {
            "bad_windows": cum_bad,
            "budget": budget,
            "budget_remaining": round(remaining, 6),
            "burn_findings": burn_findings,
            "eligible_windows": total_eligible,
            "exhausted_findings": exhausted_findings,
            "max_burn_long": round(max_long, 4),
            "max_burn_short": round(max_short, 4),
        }
    return {"findings": findings, "summary": summary}


def qos_class_summary(section: Dict[str, object]) -> Dict[str, Dict[str, object]]:
    """Whole-run per-class traffic totals from the windowed qos counters.

    Empty (falsy) when the run recorded no per-class counters at all, so
    callers can gate the extra document section on it.
    """
    totals: Dict[str, Dict[str, object]] = {}
    for window in section.get("windows", []):
        for cls, stats in _class_stats(window["counters"]).items():
            entry = totals.setdefault(cls, {
                "cache_hits": 0.0, "authority_hits": 0.0, "redirects": 0.0,
                "delivered": 0.0, "dropped": 0.0, "shed": 0.0, "buckets": {},
            })
            for field in (
                "cache_hits", "authority_hits", "redirects",
                "delivered", "dropped", "shed",
            ):
                entry[field] += stats[field]
            for label, value in stats["buckets"].items():
                entry["buckets"][label] = entry["buckets"].get(label, 0.0) + value
    out: Dict[str, Dict[str, object]] = {}
    for cls in sorted(totals):
        entry = totals[cls]
        lookups = entry["cache_hits"] + entry["authority_hits"] + entry["redirects"]
        p99 = bucket_quantile(entry["buckets"], 0.99)
        if p99 is not None and math.isinf(p99):
            p99 = None  # overflow bucket: beyond the histogram's range
        out[cls] = {
            "authority_hits": entry["authority_hits"],
            "cache_hits": entry["cache_hits"],
            "delivered": entry["delivered"],
            "dropped": entry["dropped"],
            "miss_rate": (
                round(entry["redirects"] / lookups, 6) if lookups > 0 else None
            ),
            "redirect_p99_s": p99,
            "redirects": entry["redirects"],
            "shed": entry["shed"],
        }
    return out
