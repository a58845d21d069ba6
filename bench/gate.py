"""Result gate: checks each job's output by content, not by a digest.

A job passes when it exits 0 and its JSON output carries the expected
polynomials (`compute`, `invariants`, `table`) or a clean cross-check
(`verify`).  Fields the gate does not know are ignored, so output that
gains fields, such as per-check timings, still passes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from workloads import Job, job_id

REFERENCES = Path(__file__).with_name("references.json")

# verify checks that compare two engines (the others are structural checks
# or record which engine became the baseline).
CROSS_ENGINE = ("-vs-", "finite-field-p")


def load_references() -> Dict[str, dict]:
    return json.loads(REFERENCES.read_text())


def poly_content(data: dict):
    """A polynomial's JSON dict as (variables, {exponents: nonzero coefficient})."""
    terms = {}
    for term in data["terms"]:
        coeff = Fraction(term["coeff"])
        if coeff:
            terms[tuple(term["exps"])] = coeff
    return tuple(data["vars"]), terms


def _compare(expected: dict, payload: dict, where: str) -> Optional[str]:
    """Compare the expected keys only: polynomials by content, the rest by value."""
    for key, want in expected.items():
        if key not in payload:
            return f"{where}: missing {key!r}"
        got = payload[key]
        if isinstance(want, dict) and "terms" in want:
            if poly_content(got) != poly_content(want):
                return f"{where}: {key} differs from the reference"
        elif got != want:
            return f"{where}: {key} = {got!r}, expected {want!r}"
    return None


def _check_table_fixtures(rows: list) -> Optional[str]:
    """Rows with n <= 5 must also match the fixtures shipped with tuttekit."""
    from tuttekit.poly import MultiPoly
    from tuttekit.tables import characteristic_fixture, ehrhart_fixture, weight_tutte_fixture

    for row in rows:
        if int(row["row"][1:]) > 5:
            continue
        for key, fixture in (
            ("tutte", weight_tutte_fixture),
            ("characteristic", characteristic_fixture),
            ("ehrhart", ehrhart_fixture),
        ):
            if key in row and not fixture(row["row"]).matches(MultiPoly.from_json_dict(row[key])):
                return f"table row {row['row']}: {key} differs from the fixture"
    return None


def _check_verify(payload: dict) -> Optional[str]:
    checks = payload.get("checks", [])
    failed = [c["name"] for c in checks if c["status"] == "fail"]
    if failed:
        return f"verify {payload.get('system')}: failed checks {failed}"
    if not any(
        c["status"] == "pass" and any(tag in c["name"] for tag in CROSS_ENGINE)
        for c in checks
    ):
        return f"verify {payload.get('system')}: no cross-engine check passed"
    return None


def check(job: Job, exit_code: Optional[int], stdout: str, refs: Dict[str, dict]) -> Optional[str]:
    """Return None if the job's result is correct, else the reason it is not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "output is not one JSON document"
    if job[0] == "verify":
        return _check_verify(payload)
    key = job_id(job)
    if key not in refs:
        return f"no reference for {key!r}"
    if job[0] != "table":
        return _compare(refs[key], payload, key)
    want_rows = refs[key]["rows"]
    got_rows = {row["row"]: row for row in payload.get("rows", [])}
    if sorted(got_rows) != sorted(want_rows):
        return f"table rows {sorted(got_rows)}, expected {sorted(want_rows)}"
    for name, want in want_rows.items():
        reason = _compare(want, got_rows[name], f"table row {name}")
        if reason:
            return reason
    return _check_table_fixtures(payload["rows"])
