"""Regenerate `references.json`, the expected results of the benchmark's jobs.

Run from the repository root:  python3 bench/make_references.py

Each job of the `census`, `torus` and `series` workloads is run once through
`tuttekit.cli.main`, and its result is accepted only after an independent
check; the script stops with an error if any check fails.

- Rows with a `tuttekit.tables` fixture (weight lattice, n <= 5; B5 is
  partial) must match it.
- Bruteforce and finite-field results must equal the generating-function
  engine on the same system.
- Generating-function results beyond the fixtures (table rows n > 5 and the
  order-12 jobs) have no second engine that reaches them.  They must agree
  with the same engine at a higher series order, satisfy psi(X, 1) = X^r,
  and match the closed-form characteristic polynomial where one exists
  (integer lattices, and type A in the weight lattice).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tuttekit import cli  # noqa: E402
from tuttekit.errors import StructureError  # noqa: E402
from tuttekit.genfun import DEFAULT_ORDER, GenFunRequest, extract_polynomial  # noqa: E402
from tuttekit.invariants import closed_form_characteristic, derive_all  # noqa: E402
from tuttekit.poly import MultiPoly  # noqa: E402
from tuttekit.tables import (  # noqa: E402
    characteristic_fixture,
    ehrhart_fixture,
    weight_tutte_fixture,
)
from tuttekit.tutte import coboundary_from_tutte  # noqa: E402

from gate import REFERENCES, poly_content  # noqa: E402
from workloads import WORKLOADS, job_id  # noqa: E402

FIXTURES = {
    "tutte": weight_tutte_fixture,
    "characteristic": characteristic_fixture,
    "ehrhart": ehrhart_fixture,
}


def run(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job)
    if code != 0:
        raise SystemExit(f"{job_id(job)}: exit code {code}")
    return json.loads(out.getvalue())


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"reference rejected: {what}")
    print(f"ok  {what}")


def same(a: dict, b: MultiPoly) -> bool:
    return poly_content(a) == poly_content(b.to_json_dict())


def check_genfun_only(
    name: str, family: str, n: int, lattice: str, order: int, tutte: dict
) -> None:
    """Checks for a generating-function result that no other engine reaches."""
    higher = extract_polynomial(GenFunRequest(family, lattice, order + 1), n)
    require(same(tutte, higher.poly), f"{name}: agrees with genfun at order {order + 1}")
    psi = coboundary_from_tutte(higher).poly
    at_one = {}
    for (i, _), c in psi.terms.items():
        at_one[i] = at_one.get(i, 0) + c
    require({i: c for i, c in at_one.items() if c} == {higher.rank: 1}, f"{name}: psi(X, 1) = X^r")
    try:
        closed = closed_form_characteristic(family, n, lattice)
    except StructureError:
        print(f"--  {name}: no closed-form characteristic polynomial for this lattice")
        return
    derived = derive_all(higher).characteristic
    require(derived == closed, f"{name}: characteristic polynomial equals the closed form")


def fixture_checks(name: str, row: str, results: dict) -> None:
    for key, fixture in FIXTURES.items():
        if key in results:
            ok = fixture(row).matches(MultiPoly.from_json_dict(results[key]))
            require(ok, f"{name}: {key} matches the {row} fixture")


def reference_for(job) -> dict:
    payload = run(job)
    name = job_id(job)
    if job[0] == "table":
        rows = {}
        for row in payload["rows"]:
            family, n = row["row"][0], int(row["row"][1:])
            if n <= 5:
                fixture_checks(name, row["row"], row)
            else:
                order = max(DEFAULT_ORDER, n)
                where = f"{name} row {row['row']}"
                check_genfun_only(where, family, n, "weight", order, row["tutte"])
            rows[row["row"]] = {k: v for k, v in row.items() if k != "row"}
        return {"rows": rows}

    family, n, lattice = payload["system"].split(":")
    n = int(n)
    if job[0] == "invariants":
        genfun = derive_all(extract_polynomial(GenFunRequest(family, lattice, DEFAULT_ORDER), n))
        for key in ("characteristic", "ehrhart", "poincare"):
            ok = same(payload[key], getattr(genfun, key))
            require(ok, f"{name}: {key} equals the genfun engine's")
        if lattice == "weight" and n <= 5:
            fixture_checks(name, f"{family}{n}", payload)
        return payload

    reference = {k: payload[k] for k in ("system", "flavor", "rank", "ambient_rank", "polynomial")}
    method = job[job.index("--method") + 1]
    if method == "genfun":
        order = int(job[job.index("--order") + 1])
        check_genfun_only(name, family, n, lattice, max(order, n), payload["polynomial"])
        return reference
    genfun = extract_polynomial(GenFunRequest(family, lattice, max(DEFAULT_ORDER, n)), n)
    require(same(payload["polynomial"], genfun.poly), f"{name}: equals the genfun engine's result")
    if lattice == "weight" and n <= 5:
        fixture_checks(name, f"{family}{n}", {"tutte": payload["polynomial"]})
    return reference


def main() -> None:
    references = {
        job_id(job): reference_for(job)
        for workload, jobs in WORKLOADS.items()
        if workload != "verify"
        for job in jobs
    }
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(references)} references to {REFERENCES}")


if __name__ == "__main__":
    main()
