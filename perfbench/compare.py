"""Compare two sets of benchmark results, workload by workload.

A result set is a directory of records written by run.py (one JSON file per
run). For every workload and every metric BENCHMARK.json declares, the
report gives each side's median and quartiles over its runs, and the
difference of the medians as a share of side A's. Verdicts follow the
benchmark's bounds:

    unresolved  the spread (quartile distance over median) of either side is
                wider than the bound, unless every run of B beats every run of A
    worse       B's median is worse than A's by more than the bound
    better      B's median is better than A's by more than the spread, or B
                beat A in every pair of runs
    same        otherwise
Per-layer metrics have no bound; they get the difference only.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import defaultdict


def load_set(directory: str) -> dict:
    """{(workload, trace): {metric: [values]}} over the records in directory."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    qa, qb = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    diff = sign * (qb[1] - qa[1]) / qa[1]  # > 0 means B is worse
    spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
    if spread > bound:
        b_wins_all = all(sign * (y - x) < 0 for x in a for y in b)
        return "better" if b_wins_all else "unresolved"
    if diff > bound:
        return "worse"
    return "better" if -diff > spread else "same"


def report(spec: dict, dir_a: str, dir_b: str) -> None:
    a, b = load_set(dir_a), load_set(dir_b)
    sections = ((0, spec["end_to_end"]), (1, spec["per_layer"]))
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in sections:
            ma, mb = a.get((workload, trace)), b.get((workload, trace))
            if not ma or not mb:
                continue
            runs_a = len(next(iter(ma.values())))
            runs_b = len(next(iter(mb.values())))
            print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; "
                  f"A {runs_a} runs, B {runs_b} runs)")
            print(f"{'metric':40} {'unit':8} {'A q1/med/q3':>32} {'B q1/med/q3':>32} "
                  f"{'diff':>8} verdict")
            for entry in metrics:
                name = entry["name"]
                if name not in ma or name not in mb:
                    continue
                qa, qb = quartiles(ma[name]), quartiles(mb[name])
                diff = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
                fmt = "{:.4g}/{:.4g}/{:.4g}"
                print(f"{name:40} {entry['unit']:8} {fmt.format(*qa):>32} "
                      f"{fmt.format(*qb):>32} {diff:>+8.1%} "
                      f"{verdict(ma[name], mb[name], entry['better'], entry.get('bound'))}")
