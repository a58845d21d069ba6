"""Invariants derived from (arithmetic) Tutte polynomials.

`derive_all` is the one reader of specializations off a Tutte polynomial:
the characteristic polynomial, the Ehrhart polynomial of the zonotope and
its point counts, region and dimension counts, and the Poincare polynomial
of the toric arrangement complement.  It reads both x-marginals M(x, 0) and
M(x, 1) once, on ints: a polynomial is a marginal composed with 1 - q,
1 + s or 2 + s by `poly.compose_affine` (s = 1/t or 1/q, cleared by a power
of t or q), and each count is a value of a marginal.  Closed-form
characteristic polynomials are provided as cross-checks; the tests hold
the necklace counters and the cycle-type formula they are checked against,
as oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, List, NamedTuple, Tuple

from .errors import StructureError
from .genfun import euler_phi
from .poly import MultiPoly, Scalar, compose_affine
from .root_systems import RootSystemSpec
from .tutte import TuttePolynomial

CHAR_VARS = ("q",)
EHRHART_VARS = ("t",)


def _as_int(value: Scalar, what: str) -> int:
    if value.denominator != 1:
        raise StructureError(f"{what} is not an integer: {value}")
    return int(value)


class InvariantReport(NamedTuple):
    characteristic: MultiPoly  # over ("q",)
    ehrhart: MultiPoly  # over ("t",)
    poincare: MultiPoly  # over ("q",)
    volume: int
    lattice_points: int
    interior_points: int
    toric_regions: int
    dm_dimension: int
    dpv_dimension: int


def _x_marginals(t: TuttePolynomial) -> Tuple[List[Scalar], List[Scalar]]:
    """Coefficient lists of M(x, 0) and M(x, 1), lowest x-degree first."""
    rows = t.poly.rows() or [[]]
    return [row[0] if row else 0 for row in rows], [sum(row) for row in rows]


def _reversed(variables, coeffs: List[Scalar], top: int) -> MultiPoly:
    """sum_k coeffs[k] v^(top-k): a polynomial in 1/v brought up by v^top."""
    return MultiPoly(variables, {(top - k,): c for k, c in enumerate(coeffs)})


def derive_all(t: TuttePolynomial) -> InvariantReport:
    """Every invariant from the two x-marginals M(x, 0) and M(x, 1).

    chi(q) = (-1)^r q^(d-r) M(1-q, 0) over ("q",); E(t) = t^r M(1 + 1/t, 1)
    over ("t",); the Poincare polynomial is q^d M(2 + 1/q, 0) over ("q",).
    With e = M(1 + s, 1) in s, E(t) = sum e_k t^(r-k), so the volume
    M(1, 1) is e_0, the point count E(1) = M(2, 1) is the sum of e, and
    the interior count (-1)^r E(-1) is M(0, 1).  The regions number
    |M(1, 0)|, and the DPV dimension M(2, 1) is the point count.
    """
    r, d = t.rank, t.ambient_rank
    at_0, at_1 = _x_marginals(t)
    sign = -1 if r % 2 else 1
    chi = compose_affine(at_0, 1, -1)
    ehr = compose_affine(at_1, 1)
    volume = _as_int(ehr[0], "volume")
    points = _as_int(sum(ehr), "lattice point count")  # also the DPV dimension
    return InvariantReport(
        characteristic=MultiPoly(
            CHAR_VARS, {(d - r + k,): sign * c for k, c in enumerate(chi)}
        ),
        ehrhart=_reversed(EHRHART_VARS, ehr, r),
        poincare=_reversed(CHAR_VARS, compose_affine(at_0, 2), d),
        volume=volume,
        lattice_points=points,
        interior_points=_as_int(at_1[0], "interior point count"),
        toric_regions=abs(_as_int(sum(at_0), "toric region count")),
        dm_dimension=volume,
        dpv_dimension=points,
    )


# ----------------------------------------------------------------------
# closed forms


def _times_linear(coeffs: List[int], shifts: Iterable[int]) -> MultiPoly:
    """coeffs(q) * prod (q - s) over the shifts, on an int list lowest first."""
    for s in shifts:
        coeffs = [lo - s * hi for lo, hi in zip([0] + coeffs, coeffs + [0])]
    return MultiPoly(CHAR_VARS, {(k,): c for k, c in enumerate(coeffs)})


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
    RootSystemSpec(family, n, "integer")  # refuses what names no system
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
    if family == "A":
        return _times_linear([1], range(n))
    if family == "B":
        return _times_linear([-n, 1], range(2, 2 * n, 2))
    if family == "C":
        return _times_linear([1], range(2, 2 * n + 1, 2))
    tail = [n * (n - 1), -2 * (n - 1), 1]  # D: q^2 - 2(n-1) q + n(n-1)
    return _times_linear(tail, range(2, 2 * n - 2, 2))


def weight_characteristic_type_A(n: int) -> MultiPoly:
    """chi of the rank n-1 type-A system in its weight lattice.

    chi = (n!/q) * sum over m | n of (-1)^(n - k) phi(m) C(q/m, k), k = n/m.
    As k! m^k C(q/m, k) = q (q - m) ... (q - (k-1) m), each term is the int
    n!/(k! m^k) times (q - m) ... (q - (k-1) m), and nothing is divided by q.
    """
    RootSystemSpec("A", n, "integer")  # refuses n < 1
    total = MultiPoly.zero(CHAR_VARS)
    for m in range(1, n + 1):
        if n % m:
            continue
        k = n // m
        sign = -1 if (n - k) % 2 else 1
        scale = sign * euler_phi(m) * (factorial(n) // (factorial(k) * m**k))
        total = total + _times_linear([scale], range(m, n, m))
    return total
