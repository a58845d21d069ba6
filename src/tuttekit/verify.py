"""The engine table, and cross-checks between the independent engines.

`ENGINES` maps each `compute --method` name to a function spec ->
TuttePolynomial that runs that engine and lets its own `CapacityError`
propagate; `compute` calls one entry, `compute --method all` and
`verify_system` walk the table through `attempt`.

`verify_system` runs each engine but the finite-field one once on one root
system and lattice (the group-count checks below replace interpolation):

- `bruteforce`: one sublattice census, folded into M(x, y);
- `genfun`: the Z^n coefficient of the family series, read alone;
- `graph-dictionary`: the (signed) graph census.

The first engine that runs is the baseline and reports
`<engine>: pass (taken as baseline)`; each later engine reports
`<engine>-vs-<baseline engine>`, which passes when the whole Tutte record
agrees: polynomial, rank, ambient rank and flavor.  One coboundary
polynomial psi of the baseline then feeds every structural check:

- `coboundary-at-Y1`: psi(X, 1) = X^r;
- `finite-field-q{L}` and `finite-field-q{2L}`: the histogram over (Z/q)^d
  equals q^(d-r) psi(q, Y), where L is the multiplicity lcm read off the
  same census.  When q + 1 is a prime p, (Z/q)^d is the torus (F_p^*)^d.
  These are not the finite-field engine's nodes, which are multiples of
  the torsion-exponent lcm E; E divides L, so both q are admissible.

A check is skipped only when its engine raises `CapacityError`: the
census's vector guard (which also skips the finite-field checks, as they
need L), the graph census guard, or the point cap of a group
count.  The skip's detail is the error's message.  A run in which no second
engine reached a verdict, that is no engine comparison ran and no group
count passed or failed, ends with
`cross-check: skip (no second engine reaches <system>)`.
"""

from __future__ import annotations

from math import lcm
from typing import Callable, Dict, List, NamedTuple, TypeVar, Union

from .errors import CapacityError
from .finitefield import group_identity_holds, tutte_via_interpolation
from .genfun import GenFunRequest, extract_polynomial
from .lattice import Census, VectorConfig, sublattice_census
from .root_systems import RootSystemSpec, build_config
from .signed_graphs import graph_dictionary_tutte
from .tutte import (
    CoboundaryPolynomial,
    TuttePolynomial,
    arithmetic_tutte_bruteforce,
    coboundary_from_tutte,
    tutte_from_census,
)

PASS, FAIL, SKIP = "pass", "fail", "skip"

T = TypeVar("T")

# In the order `compute --method all` runs them.  genfun expands to order n:
# the Z^n coefficient does not depend on any higher order.
ENGINES: Dict[str, Callable[[RootSystemSpec], TuttePolynomial]] = {
    "bruteforce": lambda spec: arithmetic_tutte_bruteforce(build_config(spec)),
    "genfun": lambda spec: extract_polynomial(
        GenFunRequest(spec.family, spec.lattice_kind, spec.n), spec.n
    ),
    "graphs": graph_dictionary_tutte,
    "finitefield": lambda spec: tutte_via_interpolation(build_config(spec)),
}


class CheckResult(NamedTuple):
    name: str
    status: str  # pass | fail | skip
    detail: str = ""


def _check(name: str, ok: bool, why: str) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, "" if ok else why)


def attempt(compute: Callable[[], T]) -> Union[T, CapacityError]:
    """The engine's result, or the CapacityError it raised."""
    try:
        return compute()
    except CapacityError as exc:
        return exc


def _at_y1_is_power(psi: CoboundaryPolynomial) -> bool:
    """psi(X, 1) = X^r, summing the row of each power of X.

    `coboundary_from_tutte` keeps the X-degree of psi at most r, so psi(X, 1)
    has exactly r + 1 rows when it is X^r.
    """
    return [sum(row) for row in psi.poly.rows()] == [0] * psi.rank + [1]


def _finite_field_checks(
    config: VectorConfig, census: Census, psi: CoboundaryPolynomial
) -> List[CheckResult]:
    divisor = lcm(*(stats.multiplicity for stats, _ in census))
    results: List[CheckResult] = []
    for q in (divisor, 2 * divisor):
        name = f"finite-field-q{q}"
        ok = attempt(lambda: group_identity_holds(config, q, psi))
        if isinstance(ok, CapacityError):
            results.append(CheckResult(name, SKIP, str(ok)))
        else:
            results.append(_check(name, ok, "histogram does not match q^(d-r) psi(q, Y)"))
    return results


# A table engine's check name, where it differs from its method name.
_CHECK_NAMES = {"graphs": "graph-dictionary"}


def verify_system(spec: RootSystemSpec) -> List[CheckResult]:
    """Run every applicable cross-check for one system; deterministic order."""
    config = build_config(spec)
    census = attempt(lambda: sublattice_census(config))
    folded = (
        census
        if isinstance(census, CapacityError)
        else tutte_from_census(census, config.lattice.rank)
    )
    # Every table engine but finitefield, whose group counts the finite-field
    # checks compare directly; bruteforce folds the census that also gives L.
    outcomes = {
        _CHECK_NAMES.get(engine, engine): (
            folded if engine == "bruteforce" else attempt(lambda: run(spec))
        )
        for engine, run in ENGINES.items()
        if engine != "finitefield"
    }

    results: List[CheckResult] = []
    baseline_name, baseline = "", None
    cross_checked = False  # a second engine reached a pass or a fail
    for engine, t in outcomes.items():
        if isinstance(t, CapacityError):
            results.append(CheckResult(engine, SKIP, str(t)))
        elif baseline is None:
            baseline_name, baseline = engine, t
            results.append(CheckResult(engine, PASS, "taken as baseline"))
        else:
            cross_checked = True
            ok = t == baseline  # polynomial, both ranks and flavor
            detail = "" if ok else f"{t!r} != {baseline!r}"
            results.append(
                CheckResult(f"{engine}-vs-{baseline_name}", PASS if ok else FAIL, detail)
            )
    if baseline is not None:
        psi = coboundary_from_tutte(baseline)
        results.append(
            _check("coboundary-at-Y1", _at_y1_is_power(psi), "psi(X, 1) != X^r")
        )
        if isinstance(census, CapacityError):
            results.append(CheckResult("finite-field", SKIP, str(census)))
        else:
            counts = _finite_field_checks(config, census, psi)
            cross_checked = cross_checked or any(r.status != SKIP for r in counts)
            results.extend(counts)
    if not cross_checked:
        why = f"no second engine reaches {spec}"
        results.append(CheckResult("cross-check", SKIP, why))
    return results


def all_passed(results: List[CheckResult]) -> bool:
    return all(r.status != FAIL for r in results)
