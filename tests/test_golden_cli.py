"""Stdout and exit codes of fixed command lines, pinned by sha256.

`golden_cli.json` maps each command line (its argv joined by spaces) to the
sha256 of its stdout and its exit code.  The hashes were generated once from
the code that preceded the engine table (the `fixtures` lines and the `table`
lines with one report or reports out of print order, from the code that
preceded the one fixture lookup, the single-method `genfun` lines from the
code that preceded the generating-function product lists, and the text-mode
single-engine and `invariants` lines from the code that preceded the
product-reach list); a refactor that changes any output byte fails here.  To
regenerate after a deliberate output change, run every argv of `ARGVS`
through `tuttekit.cli.main` and hash what it prints.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tuttekit.cli import main

GOLDEN = json.loads((Path(__file__).with_name("golden_cli.json")).read_text())


def _compute(method, system, *extra):
    return ["compute", "--method", method, "--system", system, *extra, "--output", "json"]


# The benchmark's 45 jobs, copied so that a benchmark change cannot move them.
BENCH_JOBS = [
    _compute("bruteforce", "B:4:integer"),
    _compute("bruteforce", "C:4:root"),
    _compute("bruteforce", "A:6:weight"),
    _compute("bruteforce", "D:4:weight"),
    ["invariants", "--system", "C:4:weight", "--output", "json"],
    *(
        _compute("finitefield", system)
        for system in ("A:5:weight", "D:4:integer", "D:4:root", "C:3:integer",
                       "C:3:weight", "B:3:weight", "A:5:root")
    ),
    ["table", "--lattice", "weight", "--max-n", "8", "--report", "tutte,char,ehrhart",
     "--output", "json"],
    _compute("genfun", "B:12:weight", "--order", "12"),
    _compute("genfun", "D:12:integer", "--order", "12"),
    *(
        ["verify", "--system", f"{family}:{n}:{lattice}", "--output", "json"]
        for family, ranks in (("A", (3, 4, 5)), ("B", (2, 3)), ("C", (2, 3)),
                              ("D", (2, 3, 4)))
        for n in ranks
        for lattice in ("integer", "root", "weight")
    ),
]

SYSTEMS = [
    f"{family}:{n}:{lattice}"
    for family, low in (("A", 1), ("B", 1), ("C", 1), ("D", 2))
    for n in range(low, 5)
    for lattice in ("integer", "root", "weight")
] + ["B:6:integer", "B:8:integer"]

_ALL = BENCH_JOBS + [
    argv
    for system in SYSTEMS
    for argv in (
        ["compute", "--method", "all", "--system", system],
        ["compute", "--method", "all", "--system", system, "--output", "json"],
        ["verify", "--system", system],
        ["verify", "--system", system, "--output", "json"],
    )
] + [
    ["table", "--lattice", lattice, "--max-n", str(max_n), "--report",
     "tutte,char,ehrhart", *output]
    for lattice in ("integer", "root", "weight")
    for max_n in range(2, 9)
    for output in ((), ("--output", "json"))
] + [
    # Rows past n = 12 through the psi -> M transform and the x-marginals.
    ["table", "--lattice", lattice, "--max-n", "16", "--report", "tutte,char,ehrhart",
     "--output", "json"]
    for lattice in ("integer", "root", "weight")
] + [
    # Each single column, and two columns asked for out of print order.
    ["table", "--lattice", lattice, "--max-n", "8", "--report", report, *output]
    for lattice in ("integer", "root", "weight")
    for report in ("tutte", "char", "ehrhart", "ehrhart,char")
    for output in ((), ("--output", "json"))
] + [
    # The genfun engine alone, one Z^n coefficient per line, and once with an
    # --order below n.
    _compute("genfun", f"{family}:{n}:{lattice}")
    for family in "ABCD"
    for n in range(5, 11)
    for lattice in ("integer", "root", "weight")
] + [
    _compute("genfun", "B:7:weight", "--order", "3"),
    ["fixtures"],
    ["fixtures", "--output", "json"],
    ["table", "--report", "tutte,bogus"],
    ["table", "--max-n", "1"],
    ["compute", "--method", "graphs", "--system", "B:8:integer"],
    # Each engine alone and the invariant report, in text mode.
    *(["compute", "--method", method, "--system", "C:2:integer"]
      for method in ("bruteforce", "genfun", "graphs", "finitefield")),
    ["invariants", "--system", "C:2:integer"],
]
ARGVS = list({" ".join(argv): argv for argv in _ALL}.values())  # bench verify jobs repeat


def test_argv_list_matches_the_pinned_list():
    assert len(BENCH_JOBS) == 45
    assert sorted(" ".join(argv) for argv in ARGVS) == sorted(GOLDEN)


@pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
def test_stdout_and_exit_code_are_pinned(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert [hashlib.sha256(out.encode()).hexdigest(), code] == GOLDEN[" ".join(argv)]
