"""``compare PARENT.jsonl CHANGE.jsonl``: the verdict on a change.

Reads the result lines two commits' runs appended with ``--out`` and,
for every workload and metric, prints each side's median and
quartiles, the fraction of (parent, change) pairs the change wins
(ties count for neither; the i-th run of each side form a pair, so
alternate the sides when running), and a verdict:

* ``improved`` - the change wins at least 9/10 of the pairs and the
  medians differ by more than the parent's own quartile distance;
* ``regressed`` - the change's median is worse than the parent's by
  more than the metric's bound from ``BENCHMARK.json``;
* ``unresolved`` - the parent's quartile distance, as a share of its
  median, is wider than the bound, so "no regression" cannot be
  shown - unless every change run beats every parent run;
* ``unchanged`` - otherwise.

Per-layer metrics have no bound; they are judged against 10%.  The
exit status is 1 when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

#: Bound used for metrics that have none (the per-layer ones).
DEFAULT_BOUND = 0.10

WIN_SHARE = 0.9


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """``(verdict, pair win fraction)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    if win_share >= WIN_SHARE and abs(cmed - pmed) > p3 - p1:
        return "improved", win_share
    worse = -sign * (cmed - pmed) / abs(pmed) if pmed else 0.0
    if worse > bound:
        return "regressed", win_share
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = min(sign * c for c in change) \
        > max(sign * p for p in parent)
    if spread > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def _load(path: Path) -> Dict[Tuple[str, int], List[dict]]:
    runs: Dict[Tuple[str, int], List[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]),
                            []).append(record)
    return runs


def main(argv, bench: dict) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf compare")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    declared = {entry["name"]: entry
                for entry in bench["end_to_end"] + bench["per_layer"]}
    parent, change = _load(args.parent), _load(args.change)
    regressed = False
    header = (f"{'workload':<13} {'metric':<30} {'parent med [q1, q3]':>30}"
              f" {'change med [q1, q3]':>30} {'wins':>5}  verdict")
    print(header)
    for key in sorted(set(parent) & set(change)):
        before, after = parent[key], change[key]
        failures = (sum(r["failed"] for r in before),
                    sum(r["failed"] for r in after))
        for name in before[0]["metrics"]:
            entry = declared.get(name, {})
            p = [r["metrics"][name]["value"] for r in before]
            c = [r["metrics"][name]["value"] for r in after
                 if name in r["metrics"]]
            if not c:
                continue
            outcome, wins = verdict(p, c, entry.get("better", "lower"),
                                    entry.get("bound", DEFAULT_BOUND))
            regressed |= outcome == "regressed"
            pq, cq = quartiles(p), quartiles(c)
            print(f"{key[0]:<13} {name:<30} "
                  f"{pq[1]:>11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(75)
                  + f"{cq[1]:>11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(31)
                  + f"{wins:>5.2f}  {outcome}")
        print(f"{key[0]:<13} runs {len(before)} vs {len(after)}, failed "
              f"{failures[0]} vs {failures[1]}")
    return 1 if regressed else 0

