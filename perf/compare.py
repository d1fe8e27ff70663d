#!/usr/bin/env python3
"""Compare two result documents of ``run.py --repeat N``.

    python3 perf/compare.py A.json B.json
    python3 perf/compare.py A.json          # steadiness of one run set

One row per workload x end-to-end metric: both medians with their
quartiles, the ratio B/A with its base, the cell's bound (``bound_of``)
and a verdict:

* ``unresolved`` — the run-to-run spread (inter-quartile range over the
  median, of either side) is wider than the bound, so the data cannot
  tell a regression from noise;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better than A's by more than the run-to-run
  spread of either side (a label for the row, not a claim of a gain);
* ``within bound`` — anything else.

Exits 1 when any row is ``worse``. With one document, prints each
cell's median, quartiles and spread beside the bound (and exits 1 when a
spread exceeds its bound).
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

#: ISSUE 12's rule, per workload x metric cell: 10 % by default; at most
#: 15 % where the measured run-to-run spread needs it; a cell that cannot
#: hold 15 % is no gate of this harness (README, "Bounds", has the spreads).
#: ``BENCHMARK.json`` has room for one bound per metric only, so there each
#: metric carries what its widest cell needs; that bound is what the demoted
#: cells are still judged by, and no cell is judged by more.
DEFAULT_BOUND = 0.10
WIDENED = {
    ("web_cached_rw", "throughput_per_s"): 0.15,
    ("web_cached_rw", "latency_p50_ms"): 0.15,
    ("backend_sync", "throughput_per_s"): 0.15,
    ("backend_sync", "latency_p50_ms"): 0.15,
    ("broker_fanout", "throughput_per_s"): 0.15,
}
DEMOTED = {
    ("backend_durable", "throughput_per_s"),  # fsync waits follow the neighbours' I/O
    ("backend_durable", "latency_p50_ms"),
    ("*", "setup_s"),  # every workload: a median of three samples of about 0.3 s
}


def bound_of(workload: str, metric: dict) -> float:
    """The regression bound of one cell; *metric* is its ``end_to_end`` entry."""
    cell = (workload, metric["name"])
    if cell in DEMOTED or ("*", metric["name"]) in DEMOTED:
        return metric["bound"]
    return min(metric["bound"], WIDENED.get(cell, DEFAULT_BOUND))


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run]}}`` of one document."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        per_metric = values.setdefault(run["workload"], {})
        for name, value in run["metrics"].items():
            per_metric.setdefault(name, []).append(value)
    return values


def judge(a: List[float], b: List[float], better: str, bound: float) -> dict:
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    widest = max(spread(a), spread(b))
    change = (b_median - a_median) / a_median
    worsening = change if better == "lower" else -change
    if widest > bound:
        verdict = "unresolved"
    elif worsening > bound:
        verdict = "worse"
    elif -worsening > widest:
        verdict = "better"
    else:
        verdict = "within bound"
    return {
        "a": (a_q1, a_median, a_q3),
        "b": (b_q1, b_median, b_q3),
        "ratio": b_median / a_median,
        "spread": widest,
        "verdict": verdict,
    }


def compare(path_a: str, path_b: str, contract: dict) -> List[dict]:
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = []
    for workload in runs_a:  # the suite's order: the contract's workloads and backend_durable
        for metric in contract["end_to_end"]:
            a = runs_a[workload].get(metric["name"])
            b = runs_b.get(workload, {}).get(metric["name"])
            if not a or not b:
                continue
            bound = bound_of(workload, metric)
            row = judge(a, b, metric["better"], bound)
            row.update(workload=workload, metric=metric["name"], unit=metric["unit"],
                       bound=bound, runs=(len(a), len(b)))
            rows.append(row)
    return rows


def steadiness(path: str, contract: dict) -> int:
    """Spread of every workload x end-to-end metric cell of one run set."""
    runs = load_runs(path)
    unsteady = 0
    print(f"{'workload':<16} {'metric':<18} {'median [q1, q3]':<36} {'spread':>7} {'bound':>6}")
    for workload in runs:
        for metric in contract["end_to_end"]:
            values = runs[workload].get(metric["name"])
            if not values or len(values) < 2:
                continue
            q1, mid, q3 = quartiles(values)
            bound = bound_of(workload, metric)
            wide = spread(values) > bound
            unsteady += wide
            print(f"{workload:<16} {metric['name']:<18} {f'{mid:.4g} [{q1:.4g}, {q3:.4g}]':<36} "
                  f"{spread(values):>7.1%} {bound:>6.0%}{'  UNSTEADY' if wide else ''}"
                  f"  (n = {len(values)})")
    return 1 if unsteady else 0


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    if len(argv) == 1:
        return steadiness(argv[0], contract)
    rows = compare(argv[0], argv[1], contract)
    print(f"A = {argv[0]}\nB = {argv[1]}\n")
    print(f"{'workload':<16} {'metric':<18} {'A median [q1, q3]':<36} {'B median [q1, q3]':<36} "
          f"{'B/A':>7} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        a = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["a"])
        b = "{1:.4g} [{0:.4g}, {2:.4g}]".format(*row["b"])
        print(f"{row['workload']:<16} {row['metric']:<18} {a:<36} {b:<36} "
              f"{row['ratio']:>7.3f} {row['spread']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}"
              f"  ({row['unit']}; base A = {row['a'][1]:.4g}; n = {row['runs'][0]}/{row['runs'][1]})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
