"""tuttekit benchmark: fixed CLI workloads, end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Each pass runs the workload's job list, in an order set by the seed, in one
fresh child process (bench/child.py) that calls `tuttekit.cli.main(argv)`
in process; the gate checks every result.  Passes repeat, each in a new
child, until the next would end after `--seconds`; there is always at
least one.  Before the passes, SETUP_SPAWNS children only import
`tuttekit.cli`, so set-up time has enough samples; each is followed by the
import probe, a child that only imports numpy.

With `--trace 0` the last line reports the end-to-end metrics: the medians
over passes of the jobs' summed wall time (`wall_s`) and the child's peak
RSS (`peak_rss_mb`), and the median set-up time (`setup_s`).  Both times
are scaled to a reference host speed, because the host's speed drifts by
up to 1.6x: wall times by the host probe of bench/child.py, set-up times
by the import probe, whose work resembles set-up.  With
`--trace 1`, untraced and traced passes alternate and the last line reports
the per-layer metrics of bench/tracer.py (medians over traced passes) and
`trace.overhead_s`.  The line before it is a record with every sample, the
raw times, the fail ratio and the probe times; bench/compare.py reads it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import METRICS  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_SPAWNS = 8
CHILD_TIMEOUT_S = 150
# Reference times from the 2-core host the baseline was measured on:
# PROBE_REF_S is the host probe of bench/child.py in the host's fast state,
# IMPORT_REF_S about the median of IMPORT_PROBE, a child that only imports
# numpy and prints "ready".
PROBE_REF_S = 0.007
IMPORT_REF_S = 0.15
IMPORT_PROBE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]


def host_factor(probes, reference: float = PROBE_REF_S) -> float:
    """Scale from seconds measured while `probes` were taken to reference seconds."""
    return reference / statistics.median(probes)


def time_to_ready(argv):
    """Start `argv`; return the seconds until it prints "ready", and the rest of stdout."""
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"child timed out after {CHILD_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"child exited with code {proc.returncode}")
    return setup_s, rest


def spawn(jobs, trace: bool, setup_only: bool = False) -> dict:
    """Run one child; return its report plus the measured set-up time."""
    spec = json.dumps({"jobs": jobs, "trace": trace, "setup_only": setup_only})
    setup_s, rest = time_to_ready([sys.executable, str(BENCH / "child.py"), spec])
    report = {} if setup_only else json.loads(rest.splitlines()[-1])
    report["setup_s"] = setup_s
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = jobs_for(workload, seed)
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    setups, imports = [], []
    for _ in range(SETUP_SPAWNS):
        setups.append(spawn([], False, setup_only=True)["setup_s"])
        imports.append(time_to_ready(IMPORT_PROBE)[0])
    passes = {mode: [] for mode in modes}
    while True:
        round_start = time.perf_counter()
        for mode in modes:
            passes[mode].append(spawn(jobs, mode))
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            break

    reports = [r for mode in modes for r in passes[mode]]
    verdicts = [j for r in reports for j in r["jobs"]]
    errors = [f"{' '.join(j['job'])}: {j['error']}" for j in verdicts if j["error"]]
    walls = {mode: [sum(j["seconds"] for j in r["jobs"]) for r in passes[mode]] for mode in modes}
    setups += [r["setup_s"] for r in reports]
    untraced = passes[False]
    adjusted_walls = [w * host_factor(r["probe_s"]) for w, r in zip(walls[False], untraced)]
    adjusted_setups = [s * host_factor(imports, IMPORT_REF_S) for s in setups]

    if trace:
        traced = passes[True]
        values = {}
        for m in METRICS:
            samples = [r["layers"][m.name] for r in traced]
            values[m.name] = (m.unit, None if None in samples else statistics.median_low(samples))
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        values["trace.overhead_s"] = ("s", overhead)
        missing = sorted({t for r in traced for t in r["missing"]})
    else:
        values = {
            "wall_s": ("s", statistics.median(adjusted_walls)),
            "setup_s": ("s", statistics.median(adjusted_setups)),
            "peak_rss_mb": ("MiB", statistics.median(r["peak_rss_mb"] for r in untraced)),
        }
        missing = []
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "attempted": len(verdicts),
        "failed": len(errors),
        "fail_ratio": len(errors) / len(verdicts),
        "errors": errors[:10],
        "missing": missing,
        "raw_wall_s": statistics.median(walls[False]),
        "raw_setup_s": statistics.median(setups),
        "samples": {
            "wall_s": adjusted_walls,
            "raw_wall_s": walls[False],
            "traced_wall_s": walls.get(True, []),
            "setup_s": adjusted_setups,
            "raw_setup_s": setups,
            "import_probe_s": imports,
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "job_s": [[j["seconds"] for j in r["jobs"]] for r in untraced],
            "probe_s": [r["probe_s"] for r in untraced],
        },
        "metrics": {name: {"value": v, "unit": unit} for name, (unit, v) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tuttekit" / "cli.py").is_file():
        print(f"error: no tuttekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for rec in records:
        passes = rec["samples"]["traced_wall_s" if rec["trace"] else "wall_s"]
        for name, m in rec["metrics"].items():
            n = len(rec["samples"].get(name, passes))
            value = "missing" if m["value"] is None else f"{m['value']:.6g}"
            print(f"{rec['workload']:8s} {name:34s} {value:>12s} {m['unit']}  (median, n={n})")
        print(f"{rec['workload']:8s} {'fail_ratio':34s} {rec['fail_ratio']:12.6g} 1  "
              f"({rec['failed']} of {rec['attempted']} jobs)")
        for error in rec["errors"]:
            print(f"{rec['workload']:8s} FAILED {error}")
        print(json.dumps(rec))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
