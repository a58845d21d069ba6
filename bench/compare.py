"""Compare two sets of benchmark runs: a parent commit against a change.

Usage:  python3 bench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of untraced runs of bench/run.py (any
other lines are skipped).  For each workload and end-to-end metric, the
output gives each side's median and quartiles over runs, the number of
paired runs the change won, and a verdict:

- improved:   the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              quartile spread;
- no worse:   the change's median is worse than the parent's by no more
              than the metric's bound in BENCHMARK.json, or every change
              run beats every parent run;
- unresolved: the parent's own spread, as a share of its median, is wider
              than the bound, so "no worse" cannot be told apart from noise;
- worse:      none of the above.

Runs pair by seed where both sides ran the same seeds, else in file order.
Two rows per workload are diagnostics from the run record, not declared
metrics: `raw_wall_s`, the wall time before host-speed adjustment, with the
bound of `wall_s`; and `fail_ratio`, with a bound of 0, so any rise in
failures is worse.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path: str) -> list:
    records = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"workload"'):
            continue
        record = json.loads(line)
        if record["trace"] == 0:
            records.append(record)
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def value(record: dict, metric: str) -> float:
    if metric in record["metrics"]:
        return record["metrics"][metric]["value"]
    return record[metric]


def pairs(parent: list, change: list, metric: str):
    p = {r["seed"]: value(r, metric) for r in parent}
    c = {r["seed"]: value(r, metric) for r in change}
    if len(p) == len(parent) and len(c) == len(change) and set(p) == set(c):
        return [(p[s], c[s]) for s in sorted(p)]
    return [(value(a, metric), value(b, metric)) for a, b in zip(parent, change)]


def verdict(p_vals, c_vals, paired, bound: float, lower_is_better: bool):
    sign = 1 if lower_is_better else -1
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_med = statistics.median(c_vals)
    gain = sign * (p_med - c_med)  # > 0 when the change is better
    wins = sum(1 for a, b in paired if sign * (a - b) > 0)
    if paired and wins >= 0.9 * len(paired) and gain > p_q3 - p_q1:
        return wins, "improved"
    if all(sign * (a - b) > 0 for a in p_vals for b in c_vals):
        return wins, "no worse"
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else (0.0 if p_q3 == p_q1 else float("inf"))
    if spread > bound:
        return wins, "unresolved"
    return wins, "no worse" if -gain <= bound * abs(p_med) else "worse"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load_records(path) for path in argv)
    spec = json.loads(BENCHMARK.read_text())
    metrics = [
        (m["name"], m["unit"], m["bound"], m["better"] == "lower") for m in spec["end_to_end"]
    ]
    wall_bound = next(bound for name, _, bound, _ in metrics if name == "wall_s")
    metrics += [("raw_wall_s", "s", wall_bound, True), ("fail_ratio", "1", 0.0, True)]

    print(f"{'workload':8s} {'metric':12s} {'unit':5s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>7s}  verdict")
    for workload in sorted({r["workload"] for r in parent} & {r["workload"] for r in change}):
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        for name, unit, bound, lower in metrics:
            p_vals = [value(r, name) for r in p_runs]
            c_vals = [value(r, name) for r in c_runs]
            paired = pairs(p_runs, c_runs, name)
            wins, result = verdict(p_vals, c_vals, paired, bound, lower)
            cells = []
            for vals in (p_vals, c_vals):
                q1, med, q3 = quartiles(vals)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(vals)}")
            print(f"{workload:8s} {name:12s} {unit:5s} {cells[0]:>32s} {cells[1]:>32s} "
                  f"{wins:>3d}/{len(paired):<3d}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
