"""Compare two sets of benchmark runs, workload by workload and metric by metric.

Each input file holds saved stdout of run.py (any number of runs, other
lines ignored). The i-th run of a workload in one file is paired with the
i-th run of it in the other, so alternate the two sides while running.
Verdicts follow this rule for claiming a change on a noisy machine:

- improved: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile spread;
- worse: the same rule in the other direction, or, for a metric with a
  bound, a median worse than the parent's by more than the bound;
- unresolved: a bounded metric whose parent spread is wider than its bound,
  unless every change run beats every parent run;
- unchanged: otherwise, for a bounded metric; a metric without a bound
  that is neither improved nor worse is reported unresolved.

No combined score is computed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace), in file order."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.startswith("{"):
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "workload" in record and "result" in record:
            runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], lower_better: bool,
            bound: float | None) -> tuple[str, float]:
    """(verdict, share of pairs the change wins) for one metric."""
    sign = -1.0 if lower_better else 1.0  # sign * (change - parent) > 0 is a gain
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs) / len(pairs)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gain = sign * (med_c - med_p)
    if wins >= 0.9 and gain > q3 - q1:
        return "improved", wins
    if losses >= 0.9 and -gain > q3 - q1:
        return "worse", wins
    if bound is None:
        return "unresolved", wins
    scale = abs(med_p) or 1.0
    if (q3 - q1) / scale > bound and not all(sign * (c - p) > 0
                                              for c in change for p in parent):
        return "unresolved", wins
    if -gain > bound * scale:
        return "worse", wins
    return "unchanged", wins


def report(parent_path: str, change_path: str, spec: dict) -> str:
    parent, change = load(parent_path), load(change_path)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':<36} "
             f"{'change median [q1, q3]':<36} {'pairs':>5} {'wins':>5}  verdict"]
    for key in sorted(set(parent) & set(change)):
        a, b = parent[key], change[key]
        count = min(len(a), len(b))
        a, b = a[:count], b[:count]
        for name in a[0]["result"]["metrics"]:
            if name not in metrics:
                continue
            pa = [r["result"]["metrics"][name]["value"] for r in a]
            pb = [r["result"]["metrics"][name]["value"] for r in b]
            m = metrics[name]
            v, wins = verdict(pa, pb, m["better"] == "lower", m.get("bound"))
            cols = []
            for values in (pa, pb):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}")
            lines.append(f"{key[0]:<14} {name:<28} {cols[0]:<36} {cols[1]:<36} "
                         f"{count:>5} {wins:>5.2f}  {v}")
        failed = [sum(r["result"]["failed"] for r in runs) for runs in (a, b)]
        if failed[1] > failed[0]:
            lines.append(f"{key[0]:<14} failed invocations rose from {failed[0]} to "
                         f"{failed[1]}: no gain on this workload counts")
    return "\n".join(lines)
