"""The benchmark's fixed job lists.

Each job is one `tuttekit` command line, run in process through
`tuttekit.cli.main(argv)` with JSON output so the result gate can read it.
The job lists never change with the seed; the seed only changes job order.

Each workload puts most of its time in one layer that a planned
optimisation targets, and little in the layers the other workloads stress,
so an optimisation shows on one workload and leaves the others unchanged.
"""

from __future__ import annotations

import random
from typing import Dict, List

Job = List[str]


def _compute(method: str, system: str, *extra: str) -> Job:
    return ["compute", "--method", method, "--system", system, *extra, "--output", "json"]


# B4 and C4 are left out of `verify`: they cost two 2^16 SNF sweeps that
# `census` already measures, and would make `verify` mostly lattice work.
VERIFY_SYSTEMS = [
    f"{family}:{n}:{lattice}"
    for family, ranks in (("A", (3, 4, 5)), ("B", (2, 3)), ("C", (2, 3)), ("D", (2, 3, 4)))
    for n in ranks
    for lattice in ("integer", "root", "weight")
]

WORKLOADS: Dict[str, List[Job]] = {
    # 2^n subset sweeps: SNF calls and the census loop, no series or torus work.
    "census": [
        _compute("bruteforce", "B:4:integer"),
        _compute("bruteforce", "C:4:root"),
        _compute("bruteforce", "A:6:weight"),
        _compute("bruteforce", "D:4:weight"),
        ["invariants", "--system", "C:4:weight", "--output", "json"],
    ],
    # Interpolation over large torus grids: the torus count and the
    # multiplicity lcm; memory peaks here.
    "torus": [
        _compute("finitefield", system)
        for system in (
            "A:5:weight",
            "D:4:integer",
            "D:4:root",
            "C:3:integer",
            "C:3:weight",
            "B:3:weight",
            "A:5:root",
        )
    ],
    # High-order generating functions: series expansion and the
    # coboundary-to-Tutte transform, no lattice or torus work.
    "series": [
        ["table", "--lattice", "weight", "--max-n", "8", "--report", "tutte,char,ehrhart",
         "--output", "json"],
        _compute("genfun", "B:12:weight", "--order", "12"),
        _compute("genfun", "D:12:integer", "--order", "12"),
    ],
    # Many short jobs through every engine: fixed cost per call shows here.
    "verify": [["verify", "--system", s, "--output", "json"] for s in VERIFY_SYSTEMS],
}


def job_id(job: Job) -> str:
    """Stable key of a job in the reference file: its argv without `--output`."""
    return " ".join(a for a in job if a not in ("--output", "json"))


def jobs_for(workload: str, seed: int) -> List[Job]:
    jobs = [list(job) for job in WORKLOADS[workload]]
    random.Random(seed).shuffle(jobs)
    return jobs
