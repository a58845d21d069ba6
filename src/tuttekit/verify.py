"""Cross-checks between the independent computation paths.

For a given root system and lattice, the brute-force, generating-function,
signed-graph, and finite-field engines should agree exactly.  Each check
either passes, fails, or is skipped with a reason (capacity guards, or a
path that does not apply to the system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import CapacityError, PrimeSearchError
from .finitefield import find_admissible_prime, multiplicity_lcm
from .finitefield import verify_finite_field_identity
from .genfun import GenFunRequest, extract_polynomial
from .lattice import VectorConfig
from .poly import MultiPoly
from .root_systems import RootSystemSpec, build_config
from .signed_graphs import graph_dictionary_tutte
from .tutte import (
    COBOUNDARY_VARS,
    TuttePolynomial,
    arithmetic_tutte_bruteforce,
    coboundary_from_tutte,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skip
    detail: str = ""


def _psi_at_y1_is_power(t: TuttePolynomial) -> bool:
    psi = coboundary_from_tutte(t)
    at_one = MultiPoly.zero(COBOUNDARY_VARS)
    for (i, j), c in psi.poly.terms.items():
        at_one = at_one + MultiPoly(COBOUNDARY_VARS, {(i, 0): c})
    expected = MultiPoly(COBOUNDARY_VARS, {(t.rank, 0): 1})
    return at_one == expected


def verify_system(
    spec: RootSystemSpec,
    *,
    order: int = 8,
    prime_count: int = 2,
    point_cap: int = 50_000_000,
    bruteforce_capacity: int = 20,
) -> List[CheckResult]:
    """Run every applicable cross-check for one system; deterministic order."""
    results: List[CheckResult] = []
    config = build_config(spec)
    n_vectors = len(config)

    baseline: Optional[TuttePolynomial] = None
    if n_vectors <= bruteforce_capacity:
        baseline = arithmetic_tutte_bruteforce(config)
    else:
        results.append(
            CheckResult(
                "bruteforce",
                SKIP,
                f"{n_vectors} vectors exceeds capacity {bruteforce_capacity}",
            )
        )

    # genfun vs bruteforce
    if spec.n <= order:
        # The Z^n coefficient does not depend on the order past n.
        req = GenFunRequest(spec.family, spec.lattice_kind, spec.n)
        gf = extract_polynomial(req, spec.n)
        if baseline is None:
            baseline = gf
            results.append(CheckResult("genfun", PASS, "taken as baseline"))
        else:
            ok = gf.poly == baseline.poly
            results.append(
                CheckResult(
                    "genfun-vs-bruteforce",
                    PASS if ok else FAIL,
                    "" if ok else f"{gf.poly} != {baseline.poly}",
                )
            )
    else:
        results.append(CheckResult("genfun", SKIP, f"n > order {order}"))

    # signed/unsigned graph dictionary
    dict_guard = 7 if spec.family == "A" else 5
    if spec.n <= dict_guard:
        gd = graph_dictionary_tutte(spec.family, spec.n, spec.lattice_kind)
        if baseline is None:
            baseline = gd
            results.append(CheckResult("graph-dictionary", PASS, "taken as baseline"))
        else:
            ok = gd.poly == baseline.poly
            results.append(
                CheckResult(
                    "graph-dictionary-vs-baseline",
                    PASS if ok else FAIL,
                    "" if ok else "mismatch against baseline polynomial",
                )
            )
    else:
        results.append(
            CheckResult("graph-dictionary", SKIP, f"n > guard {dict_guard}")
        )

    # structural identity on the baseline
    if baseline is not None:
        ok = _psi_at_y1_is_power(baseline)
        results.append(
            CheckResult(
                "coboundary-at-Y1",
                PASS if ok else FAIL,
                "" if ok else "psi(X, 1) != X^r",
            )
        )

    # finite-field identity at admissible primes
    if baseline is not None:
        psi_b = coboundary_from_tutte(baseline)
        try:
            divisor = multiplicity_lcm(config)
        except CapacityError as exc:
            divisor = None
            results.append(CheckResult("finite-field", SKIP, str(exc)))
        if divisor is not None:
            d = config.lattice.rank
            p = 2
            found = 0
            while found < prime_count:
                try:
                    p = find_admissible_prime(divisor, min_p=p)
                except PrimeSearchError as exc:
                    results.append(CheckResult("finite-field", SKIP, str(exc)))
                    break
                if (p - 1) ** d > point_cap:
                    results.append(
                        CheckResult(
                            f"finite-field-p{p}",
                            SKIP,
                            f"(p-1)^{d} exceeds point cap {point_cap}",
                        )
                    )
                    break
                ok = verify_finite_field_identity(config, p, psi_b, divisor=divisor)
                results.append(
                    CheckResult(
                        f"finite-field-p{p}",
                        PASS if ok else FAIL,
                        "" if ok else "histogram does not match q^(d-r) psi(q, Y)",
                    )
                )
                found += 1
                p += 1
    return results


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.status != FAIL for r in results)
