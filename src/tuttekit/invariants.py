"""Invariants derived from (arithmetic) Tutte polynomials.

Every quantity here is an exact specialization: the characteristic
polynomial, the Ehrhart polynomial of the zonotope and its point counts,
region and dimension counts, and the Poincare polynomial of the toric
arrangement complement.  Closed-form characteristic polynomials and two
independent necklace counters are provided as cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb, factorial, gcd
from typing import Dict, Iterator, List, Tuple

from .errors import CapacityError, StructureError
from .poly import MultiPoly
from .tutte import TuttePolynomial

CHAR_VARS = ("q",)
EHRHART_VARS = ("t",)


def _as_int(value: Q, what: str) -> int:
    if value.denominator != 1:
        raise StructureError(f"{what} is not an integer: {value}")
    return int(value)


def _univariate(var_tuple, coeffs: Dict[int, Q]) -> MultiPoly:
    return MultiPoly(var_tuple, {(e,): c for e, c in coeffs.items()})


@dataclass(frozen=True)
class InvariantReport:
    characteristic: MultiPoly  # over ("q",)
    ehrhart: MultiPoly  # over ("t",)
    poincare: MultiPoly  # over ("q",)
    volume: int
    lattice_points: int
    interior_points: int
    toric_regions: int
    dm_dimension: int
    dpv_dimension: int


def characteristic_polynomial(t: TuttePolynomial) -> MultiPoly:
    """chi(q) = (-1)^r q^(d-r) M(1-q, 0) as a polynomial over ("q",)."""
    r, d = t.rank, t.ambient_rank
    one_minus_q = _univariate(CHAR_VARS, {0: Q(1), 1: Q(-1)})
    sign = -1 if r % 2 else 1
    chi = MultiPoly.zero(CHAR_VARS)
    for i, c in _x_marginal(t, 0).items():
        chi = chi + one_minus_q**i * _univariate(CHAR_VARS, {d - r: sign * c})
    return chi


def _x_marginal(t: TuttePolynomial, y_value: int) -> Dict[int, Q]:
    """Coefficients of M(x, y_value) as {x-exponent: coefficient}."""
    out: Dict[int, Q] = {}
    for (i, j), c in t.poly.terms.items():
        out[i] = out.get(i, Q(0)) + c * y_value**j
    return {i: c for i, c in out.items() if c}


def ehrhart_polynomial(t: TuttePolynomial) -> MultiPoly:
    """E(t) = t^r M(1 + 1/t, 1), expanded as a polynomial over ("t",)."""
    r = t.rank
    t_plus_1 = _univariate(EHRHART_VARS, {0: Q(1), 1: Q(1)})
    result = MultiPoly.zero(EHRHART_VARS)
    for i, c in _x_marginal(t, 1).items():
        result = result + t_plus_1**i * _univariate(EHRHART_VARS, {r - i: c})
    return result


def poincare_polynomial(t: TuttePolynomial) -> MultiPoly:
    """q^d M((2q+1)/q, 0) as a polynomial over ("q",)."""
    d = t.ambient_rank
    two_q_plus_1 = _univariate(CHAR_VARS, {0: Q(1), 1: Q(2)})
    result = MultiPoly.zero(CHAR_VARS)
    for i, c in _x_marginal(t, 0).items():
        result = result + two_q_plus_1**i * _univariate(CHAR_VARS, {d - i: c})
    return result


def derive_all(t: TuttePolynomial) -> InvariantReport:
    chi = characteristic_polynomial(t)
    ehr = ehrhart_polynomial(t)
    poin = poincare_polynomial(t)
    r = t.rank
    volume = _as_int(t.evaluate(1, 1), "volume")
    points = _as_int(ehr.evaluate({"t": 1}), "lattice point count")
    interior = _as_int(ehr.evaluate({"t": -1}), "interior point count")
    if r % 2:
        interior = -interior
    regions = abs(_as_int(t.evaluate(1, 0), "toric region count"))
    dpv = _as_int(t.evaluate(2, 1), "DPV dimension")
    return InvariantReport(
        characteristic=chi,
        ehrhart=ehr,
        poincare=poin,
        volume=volume,
        lattice_points=points,
        interior_points=interior,
        toric_regions=regions,
        dm_dimension=volume,
        dpv_dimension=dpv,
    )


# ----------------------------------------------------------------------
# closed forms


def closed_form_characteristic(
    family: str, n: int, lattice_kind: str = "integer"
) -> MultiPoly:
    """Closed-form characteristic polynomials where one is known.

    Integer lattices (all families) use product formulas; type A also has
    the weight-lattice divisor sum.  Type A is indexed by coordinate count:
    n coordinates give the rank n-1 configuration.

    The integer-lattice products are fixed against independent point
    counts over finite fields: B ends with a factor (q - n) and C runs
    through all even shifts (q-2)(q-4)...(q-2n), and each equals the
    brute-force derivation for every admissible evaluation point.
    """
    if lattice_kind == "weight":
        if family != "A":
            raise StructureError(
                "closed forms are only available for the type-A weight lattice"
            )
        return weight_characteristic_type_A(n)
    if lattice_kind != "integer":
        raise StructureError(
            f"no closed-form characteristic for lattice kind {lattice_kind!r}"
        )
    qv = _univariate(CHAR_VARS, {1: Q(1)})
    one = MultiPoly.const(CHAR_VARS, 1)

    def falling(shifts: List[int]) -> MultiPoly:
        out = one
        for s in shifts:
            out = out * (qv - s)
        return out

    if family == "A":
        return falling(list(range(n)))
    if family == "B":
        return falling([2 * k for k in range(1, n)]) * (qv - n)
    if family == "C":
        return falling([2 * k for k in range(1, n + 1)])
    if family == "D":
        if n < 2:
            raise StructureError("type D needs n >= 2")
        tail = qv * qv - qv * (2 * (n - 1)) + n * (n - 1)
        return falling([2 * k for k in range(1, n - 1)]) * tail
    raise StructureError(f"unknown family {family!r}")


def _binomial_poly_in_q(m: int, k: int) -> MultiPoly:
    """C(q/m, k) as a polynomial in q with rational coefficients."""
    qv = _univariate(CHAR_VARS, {1: Q(1, m)})
    out = MultiPoly.const(CHAR_VARS, Q(1, factorial(k)))
    for i in range(k):
        out = out * (qv - i)
    return out


def weight_characteristic_type_A(n: int) -> MultiPoly:
    """chi of the rank n-1 type-A system in its weight lattice.

    Computed as (n!/q) * sum over m | n of (-1)^(n - n/m) phi(m) C(q/m, n/m),
    with the division by q performed exactly.
    """
    if n < 1:
        raise StructureError("n must be positive")
    total = MultiPoly.zero(CHAR_VARS)
    for m in range(1, n + 1):
        if n % m:
            continue
        phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
        sign = -1 if (n - n // m) % 2 else 1
        total = total + _binomial_poly_in_q(m, n // m) * (sign * phi)
    total = total * factorial(n)
    chi = total.divide_exact(_univariate(CHAR_VARS, {1: Q(1)}))
    if not chi.has_integer_coefficients():
        raise StructureError("weight-lattice characteristic is not integral")
    return chi


def prime_case_characteristic_type_A(n: int) -> MultiPoly:
    """(q-1)...(q-n+1) + (n-1)(n-1)! for prime n >= 3."""
    if n < 3:
        raise StructureError("formula requires n >= 3")
    qv = _univariate(CHAR_VARS, {1: Q(1)})
    out = MultiPoly.const(CHAR_VARS, 1)
    for i in range(1, n):
        out = out * (qv - i)
    return out + (n - 1) * factorial(n - 1)


# ----------------------------------------------------------------------
# necklaces


def necklace_count(n: int, q: int) -> int:
    """Cyclic necklaces with n black and q - n white beads (Burnside)."""
    if not 0 <= n <= q:
        raise StructureError("need 0 <= n <= q")
    if q == 0:
        return 1
    total = 0
    for m in range(1, q + 1):
        if q % m or n % m:
            continue
        phi = sum(1 for a in range(1, m + 1) if gcd(a, m) == 1)
        total += phi * comb(q // m, n // m)
    assert total % q == 0
    return total // q


def necklace_count_direct(n: int, q: int, guard: int = 22) -> int:
    """Oracle: enumerate binary strings and count rotation orbits."""
    if q > guard:
        raise CapacityError(f"direct necklace enumeration guarded at q <= {guard}")
    seen = set()
    orbits = 0
    for code in range(1 << q):
        if bin(code).count("1") != n or code in seen:
            continue
        orbits += 1
        c = code
        for _ in range(q):
            c = (c >> 1) | ((c & 1) << (q - 1))
            seen.add(c)
    return orbits


# ----------------------------------------------------------------------
# cycle-type formula for the weight-lattice type-A characteristic


def _partitions(n: int, max_part: int = None) -> Iterator[Tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def char_coeffs_via_permutations(n: int, guard: int = 9) -> MultiPoly:
    """chi of type A (n coordinates, weight lattice) via gcds over cycle types.

    chi(q) = sum over k of (-1)^(n-k) c_k q^(k-1), where c_k totals
    gcd(cycle lengths) over all permutations of [n] with k cycles.
    """
    if n > guard:
        raise CapacityError(f"cycle-type enumeration guarded at n <= {guard}")
    c: Dict[int, int] = {}
    for part in _partitions(n):
        mult: Dict[int, int] = {}
        for p in part:
            mult[p] = mult.get(p, 0) + 1
        perms = factorial(n)
        for j, mj in mult.items():
            perms //= j**mj * factorial(mj)
        g = 0
        for p in part:
            g = gcd(g, p)
        k = len(part)
        c[k] = c.get(k, 0) + perms * g
    coeffs = {}
    for k, ck in c.items():
        sign = -1 if (n - k) % 2 else 1
        coeffs[k - 1] = Q(sign * ck)
    return _univariate(CHAR_VARS, coeffs)


def weyl_group_check(family: str, n: int, chi: MultiPoly) -> bool:
    """|chi(0)| should equal the Weyl group order (weight-lattice chi)."""
    from .root_systems import weyl_group_order

    order = weyl_group_order(family, n)
    return abs(_as_int(chi.evaluate({"q": 0}), "chi(0)")) == order
