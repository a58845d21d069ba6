"""One benchmark pass in a fresh process: import tuttekit, run jobs, report.

Usage (started by run.py):  python3 bench/child.py '<spec as JSON>'

The spec holds "jobs" (argv lists for `tuttekit.cli.main`), "trace" and
"setup_only".  The child writes "ready" on stdout as soon as `tuttekit.cli`
is imported, so the parent can time set-up, and ends with one JSON line:
per-job wall time and gate verdict, peak RSS, and either the host-probe
times (untraced) or the per-layer values (traced).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from tuttekit import cli  # noqa: E402

PROBE_ITERATIONS = 100_000
PROBE_INTERVAL_S = 0.5


def spin() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe."""
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


class HostProbe:
    """Times the spin loop at the start, every PROBE_INTERVAL_S, and at the end.

    The interval samples come from a SIGALRM handler, so they fall inside
    the jobs and follow the host's speed while the jobs run.  `busy_s` is
    the handler's total time, which job timings subtract.
    """

    def __init__(self):
        self.samples = []
        self.busy_s = 0.0

    def _sample(self, signum, frame):
        seconds = spin()
        self.samples.append(seconds)
        self.busy_s += seconds

    def __enter__(self):
        self.samples.append(spin())
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(spin())


def run_jobs(jobs, probe=None):
    """Run each job in process; return [(exit code or None, stdout, seconds)].

    A job's seconds exclude the time `probe` spent sampling during it.
    """
    runs = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        busy = probe.busy_s if probe else 0.0
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(job))
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            code = None
            print(f"job {job} raised {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - start - ((probe.busy_s if probe else 0.0) - busy)
        runs.append((code, out.getvalue(), seconds))
    return runs


def main(spec: dict) -> dict:
    sys.path.insert(0, str(BENCH))
    from gate import check, load_references
    from tracer import Tracer

    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
        try:
            runs = run_jobs(spec["jobs"])
        finally:
            tracer.uninstall()
        probes = []
    else:
        tracer = None
        with HostProbe() as probe:
            runs = run_jobs(spec["jobs"], probe)
        probes = probe.samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs = load_references()
    report = {
        "jobs": [
            {"job": job, "seconds": seconds, "error": check(job, code, stdout, refs)}
            for job, (code, stdout, seconds) in zip(spec["jobs"], runs)
        ],
        "peak_rss_mb": peak_rss_mb,
        "probe_s": probes,
    }
    if tracer is not None:
        report["layers"] = tracer.values()
        report["missing"] = tracer.missing
    return report


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    print("ready", flush=True)
    if not spec["setup_only"]:
        print(json.dumps(main(spec)), flush=True)
