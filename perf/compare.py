#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perf/compare.py BEFORE/ AFTER/

Each directory holds result documents written by ``trajectory.py --out``
(one workload per file, or several under ``"workloads"``); traced results
are ignored.  For every workload and every end-to-end metric of
``BENCHMARK.json`` it prints each side's median and quartiles and a
verdict:

* ``unresolved`` - a side's spread (quartile distance over median) is
  wider than the metric's bound, and not every AFTER run beats every
  BEFORE run;
* ``regressed`` - AFTER's median is worse than BEFORE's by more than the
  bound;
* ``improved`` - AFTER wins at least nine tenths of all (BEFORE, AFTER)
  pairs, ties counting for neither, and the medians differ by more than
  BEFORE's quartile distance;
* ``unchanged`` - otherwise.

Exits 1 when a metric regressed or AFTER failed more operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> Dict[str, List[dict]]:
    """Untraced result documents under ``path``, by workload."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: Dict[str, List[dict]] = {}
    for file in files:
        doc = json.loads(file.read_text(encoding="utf-8"))
        for run in doc["workloads"].values() if "workloads" in doc else [doc]:
            if not run.get("trace"):
                runs.setdefault(run["workload"], []).append(run)
    return runs


def verdict(before: List[float], after: List[float], better: str, bound: float) -> dict:
    """The verdict of one metric on one workload (rules above)."""
    sign = 1.0 if better == "lower" else -1.0  # sign * value: lower is better
    med_a, med_b = statistics.median(before), statistics.median(after)
    row = {"before": med_a, "after": med_b, "change": (med_b - med_a) / med_a}
    if len(before) < 2 or len(after) < 2:
        return dict(row, verdict="unresolved", spread=None, quartiles=None)
    q_a, q_b = statistics.quantiles(before, n=4), statistics.quantiles(after, n=4)
    iqr_a = q_a[2] - q_a[0]
    spread = max(iqr_a / med_a, (q_b[2] - q_b[0]) / med_b)
    wins = sum(sign * b < sign * a for a in before for b in after)
    share = wins / (len(before) * len(after))
    moved = abs(med_b - med_a) > iqr_a and sign * med_b < sign * med_a
    worse_by = sign * (med_b - med_a) / med_a
    if spread > bound:
        every_run_better = max(sign * v for v in after) < min(sign * v for v in before)
        result = "improved" if every_run_better and moved else "unresolved"
    elif worse_by > bound:
        result = "regressed"
    elif share >= 0.9 and moved:
        result = "improved"
    else:
        result = "unchanged"
    return dict(row, verdict=result, spread=spread, quartiles=(q_a, q_b))


def compare(before: Dict[str, List[dict]], after: Dict[str, List[dict]], spec: dict):
    rows = []
    for workload in sorted(set(before) & set(after)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in before[workload]]
            b = [run["metrics"][name]["value"] for run in after[workload]]
            row = verdict(a, b, metric["better"], metric["bound"])
            rows.append(dict(row, workload=workload, metric=name, bound=metric["bound"]))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    before, after = load_runs(args.before), load_runs(args.after)
    rows = compare(before, after, spec)
    more_failures = [
        workload
        for workload in sorted(set(before) & set(after))
        if sum(r["failed"] for r in after[workload]) > sum(r["failed"] for r in before[workload])
    ]
    for workload in sorted(set(before) ^ set(after)):
        print(f"{workload}: only on one side, not compared")
    print(
        f"{'workload':16s} {'metric':19s} {'before [q1, q3]':>29s} "
        f"{'after [q1, q3]':>29s} {'change':>7s} {'spread':>7s} {'bound':>5s}  verdict"
    )
    for row in rows:
        spread, sides = "-", []
        for median, side in zip((row["before"], row["after"]), row["quartiles"] or (None, None)):
            quartiles = f"[{side[0]:.4g}, {side[2]:.4g}]" if side else ""
            sides.append(f"{median:.5g} {quartiles}")
        if row["spread"] is not None:
            spread = f"{row['spread']:.1%}"
        print(
            f"{row['workload']:16s} {row['metric']:19s} {sides[0]:>29s} {sides[1]:>29s} "
            f"{row['change']:+7.1%} {spread:>7s} {row['bound']:5.0%}  {row['verdict']}"
        )
    for workload in more_failures:
        print(f"{workload}: AFTER failed more operations than BEFORE")
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or more_failures else 0


if __name__ == "__main__":
    sys.exit(main())
