"""Closed-form generating functions for the coboundary polynomials.

Each classical family has an exponential generating function in Z, built
from deformed exponential factors with exponents that are polynomials in X
over the rationals.  Expanding the series and reading off the coefficient
of Z^n recovers the (arithmetic) coboundary polynomial, from which the
Tutte polynomial follows by the standard change of variables.

Type A in the weight lattice is handled separately: the connected-graph
logarithm is filtered down to every n-th term and re-exponentiated, summed
against Euler's totient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, gcd
from typing import Dict, Tuple

from .errors import ExactDivisionError, StructureError
from .poly import MultiPoly
from .series import TruncSeries, deformed_exponential
from .tutte import (
    COBOUNDARY_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    tutte_from_coboundary,
)

DEFAULT_ORDER = 8

GENFUN_KINDS = ("integer", "root", "weight", "classical")


@dataclass(frozen=True)
class GenFunRequest:
    family: str
    lattice_kind: str  # integer | root | weight | classical
    order: int

    def __post_init__(self):
        if self.family not in "ABCD" or len(self.family) != 1:
            raise StructureError(f"unknown family {self.family!r}")
        if self.lattice_kind not in GENFUN_KINDS:
            raise StructureError(f"unknown lattice kind {self.lattice_kind!r}")
        if self.order < 1:
            raise StructureError("order must be at least 1")


def euler_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def _x_poly(x_coeff: Q, const: Q) -> MultiPoly:
    return MultiPoly(COBOUNDARY_VARS, {(1, 0): Q(x_coeff), (0, 0): Q(const)})


def _factors(order: int) -> Dict[str, TruncSeries]:
    return {
        "F_Z_Y": deformed_exponential(1, order),
        "F_2Z_Y": deformed_exponential(2, order),
        "F_m2Z_Y": deformed_exponential(-2, order),
        "F_Z_Y2": deformed_exponential(1, order, beta_power=2),
        "F_YZ_Y2": deformed_exponential(1, order, beta_power=2, alpha_y_power=1),
    }


def typeA_weight_series(order: int) -> TruncSeries:
    """Weight-lattice series for type A via totient-weighted filtered logs."""
    if order < 1:
        raise StructureError("order must be at least 1")
    cg = deformed_exponential(1, order).log()
    x = MultiPoly.var(COBOUNDARY_VARS, "X")
    total = TruncSeries.constant(COBOUNDARY_VARS, 0, order)
    for n in range(1, order + 1):
        cg_n = cg.filter_every_nth(n)
        total = total + ((cg_n * x).exp() - 1) * euler_phi(n)
    return total


def expand_genfun(req: GenFunRequest) -> TruncSeries:
    """Truncated generating function for (family, lattice kind)."""
    family, kind, order = req.family, req.lattice_kind, req.order
    if family == "A":
        if kind == "weight":
            return typeA_weight_series(order)
        # Integer and root lattices agree for type A (unimodular configuration).
        f = deformed_exponential(1, order)
        x = MultiPoly.var(COBOUNDARY_VARS, "X")
        return f.pow_poly(x)

    f = _factors(order)
    f2 = f["F_2Z_Y"]
    if kind == "classical":
        head = f2.pow_poly(_x_poly(Q(1, 2), Q(-1, 2)))  # (X-1)/2
        if family in ("B", "C"):
            return head * f["F_YZ_Y2"]
        return head * f["F_Z_Y2"]

    half_exp = _x_poly(Q(1, 2), -1)  # X/2 - 1
    quarter_exp = _x_poly(Q(1, 4), -1)  # X/4 - 1
    quarter = _x_poly(Q(1, 4), 0)  # X/4

    if kind == "integer" or (kind == "root" and family == "B") or (
        kind == "weight" and family == "C"
    ):
        head = f2.pow_poly(half_exp)
        if family == "B":
            return head * f["F_Z_Y2"] * f["F_YZ_Y2"]
        if family == "C":
            return head * f["F_YZ_Y2"] * f["F_YZ_Y2"]
        return head * f["F_Z_Y2"] * f["F_Z_Y2"]

    if kind == "root":  # C or D: bracket sum with an exact halving
        head = f2.pow_poly(half_exp)
        square = f["F_YZ_Y2"] if family == "C" else f["F_Z_Y2"]
        bracket = f2 + square * square
        return (head * bracket) * Q(1, 2)

    # weight lattice, B or D
    head = f2.pow_poly(quarter_exp)
    middle = f["F_Z_Y2"] * (f["F_YZ_Y2"] if family == "B" else f["F_Z_Y2"])
    bracket = f2.pow_poly(quarter) + f["F_m2Z_Y"].pow_poly(quarter)
    return head * middle * bracket


def extract_coboundary(
    series: TruncSeries, family: str, n: int
) -> CoboundaryPolynomial:
    """Coboundary polynomial of the rank-n system from a family series.

    For type A, n counts coordinates (the configuration has rank n-1) and
    the series carries an extra factor of X which is divided out exactly.
    """
    if n > series.order:
        raise StructureError(f"n={n} exceeds series order {series.order}")
    psi = series.coefficient(n) * factorial(n)
    if family == "A":
        if any(i == 0 for i, _ in psi.terms):
            raise ExactDivisionError("non-exact polynomial division")
        shifted = {(i - 1, j): c for (i, j), c in psi.terms.items()}
        psi = MultiPoly(COBOUNDARY_VARS, shifted)
        rank = n - 1
    else:
        rank = n
    return CoboundaryPolynomial(poly=psi, rank=rank)


def tutte_from_series(
    series: TruncSeries, family: str, lattice_kind: str, n: int
) -> TuttePolynomial:
    """Tutte polynomial of the rank-n (or n-coordinate, type A) system, read
    from the family series of `expand_genfun`."""
    psi = extract_coboundary(series, family, n)
    # Type A has rank n-1; only the integer lattice spans all n coordinates.
    ambient = n - 1 if family == "A" and lattice_kind != "integer" else n
    flavor = "classical" if lattice_kind == "classical" else "arithmetic"
    result = tutte_from_coboundary(psi, ambient_rank=ambient, flavor=flavor)
    if not result.poly.has_integer_coefficients():
        raise StructureError(
            f"extracted polynomial has non-integer coefficients: {result.poly}"
        )
    return result


def extract_polynomial(req: GenFunRequest, n: int) -> TuttePolynomial:
    """Tutte polynomial of the rank-n (or n-coordinate, type A) system."""
    return tutte_from_series(expand_genfun(req), req.family, req.lattice_kind, n)
