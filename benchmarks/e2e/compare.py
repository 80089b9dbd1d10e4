"""``run.py compare A.json B.json``: judge result set B against A.

One row per workload x end-to-end metric. Host metrics are compared by
median against the metric's bound. When either side's own spread
(interquartile range over median) is wider than that bound the medians
settle nothing and the row is ``unresolved`` — unless the two sets do not
overlap: every run of B better than every run of A is ``ok``, every run
worse (and the median beyond the bound) is ``regressed``.
Simulated metrics are single deterministic values: identical is ``ok``,
a change within the bound is ``ok`` but flagged, a change for the worse
beyond it is ``regressed``. Exit status is 1 when any row regressed and
2 when the two sets cannot be compared at all.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from typing import Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) the way the benchmark contract takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = better)."""
    delta = new - base if better == "lower" else base - new
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def _incomparable(a: dict, b: dict) -> List[str]:
    reasons = []
    for key in ("native_loaded", "seed", "seconds"):
        if a.get(key) != b.get(key):
            reasons.append(f"{key}: {a.get(key)!r} vs {b.get(key)!r}")
    return reasons


def _judge_host(entry_a: dict, entry_b: dict) -> Tuple[str, str]:
    bound, better = entry_a["bound"], entry_a["better"]
    values_a, values_b = entry_a["values"], entry_b["values"]
    worse = worsening(entry_a["median"], entry_b["median"], better)
    sign = 1 if better == "lower" else -1
    all_better = max(sign * v for v in values_b) < min(sign * v for v in values_a)
    all_worse = min(sign * v for v in values_b) > max(sign * v for v in values_a)
    widest = max(spread(values_a), spread(values_b))
    note = f"{worse:+.1%}, spread {widest:.1%}"
    if widest > bound:
        # Too noisy for the medians to settle it: only runs that do not
        # overlap at all do.
        if all_better:
            return "ok", note
        if all_worse and worse > bound:
            return "regressed", note
        return "unresolved", note
    return ("regressed" if worse > bound else "ok"), note


def _judge_sim(entry_a: dict, entry_b: dict) -> Tuple[str, str]:
    if entry_a["value"] == entry_b["value"]:
        return "ok", "identical"
    worse = worsening(entry_a["value"], entry_b["value"], entry_a["better"])
    if worse > entry_a["bound"]:
        return "regressed", f"{worse:+.2%} (sim changed)"
    return "ok", f"{worse:+.2%} (sim changed)"


def _cell(entry: dict) -> str:
    if entry["kind"] == "sim":
        return f"{entry['value']:.6g}"
    return (
        f"{entry['median']:.6g} [{entry['q1']:.6g}, {entry['q3']:.6g}]"
        f" n={entry['n']}"
    )


def compare(a: dict, b: dict) -> Tuple[List[str], Dict[str, int], List[str]]:
    """Rows of the comparison table, verdict counts, and the workloads
    whose simulated outputs changed."""
    rows = [
        f"{'workload':<20}{'metric':<28}{'kind':<5}{'A':<34}{'B':<34}"
        f"{'bound':>6}  verdict"
    ]
    verdicts = {"ok": 0, "regressed": 0, "unresolved": 0}
    sim_changed = []
    for name, work_a in a["workloads"].items():
        work_b = b["workloads"].get(name)
        if work_b is None:
            continue
        if work_a["sim_digest"] != work_b["sim_digest"]:
            sim_changed.append(name)
        for metric, entry_a in work_a["end_to_end"].items():
            entry_b = work_b["end_to_end"].get(metric)
            if entry_b is None:
                continue
            judge = _judge_sim if entry_a["kind"] == "sim" else _judge_host
            verdict, note = judge(entry_a, entry_b)
            verdicts[verdict] += 1
            rows.append(
                f"{name:<20}{metric:<28}{entry_a['kind']:<5}"
                f"{_cell(entry_a):<34}{_cell(entry_b):<34}"
                f"{entry_a['bound']:>6.0%}  {verdict} ({note})"
            )
    return rows, verdicts, sim_changed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    a, b = documents
    reasons = _incomparable(a, b)
    if reasons:
        print("refusing to compare: " + "; ".join(reasons), file=sys.stderr)
        return 2
    rows, verdicts, sim_changed = compare(a, b)
    print("\n".join(rows))
    print(
        f"\n{verdicts['ok']} ok, {verdicts['regressed']} regressed, "
        f"{verdicts['unresolved']} unresolved"
    )
    if sim_changed:
        print("sim_digest differs on: " + ", ".join(sim_changed))
    else:
        print("sim_digest identical on every workload")
    return 1 if verdicts["regressed"] else 0
