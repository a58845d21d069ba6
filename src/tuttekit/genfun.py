"""Closed-form generating functions for the coboundary polynomials.

Each classical family has an exponential generating function in Z, built
from deformed exponential factors with exponents that are polynomials in X
over the rationals.  Expanding the series and reading off the coefficient
of Z^n recovers the (arithmetic) coboundary polynomial, from which the
Tutte polynomial follows by the standard change of variables.

Type A in the weight lattice is handled separately: the connected-graph
logarithm is filtered down to every n-th term and re-exponentiated, summed
against Euler's totient.

The expansion runs on integer numerators end to end.  Each power is taken
by Miller's recurrence (`TruncSeries.pow_poly`), and every product pairs a
series that depends on X with one in Y alone.  Each of B, C, D has one
pair u, v of factors free of X, multiplied together first, and the
weight-lattice B/D product f2^(X/4-1) uv (f2^(X/4) + F(-2Z,Y)^(X/4)) is
regrouped as f2^(X/2-1) uv + (f2 F(-2Z,Y))^(X/4) (uv f2^(-1)), with
f2 = F(2Z,Y).  `extract_coboundary` reads psi = n! [Z^n] as an integer
polynomial, and `tutte_from_series` hands it to
`tutte.tutte_from_coboundary`, with no rational polynomial in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import factorial, gcd

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

    def y_factor(a: int) -> TruncSeries:  # F(Y^a Z, Y^2), free of X
        return deformed_exponential(1, order, beta_power=2, alpha_y_power=a)

    # One pair u, v per family: B (F(Z,Y^2), F(YZ,Y^2)), C both F(YZ,Y^2),
    # D both F(Z,Y^2).
    a_u, a_v = {"B": (0, 1), "C": (1, 1), "D": (0, 0)}[family]
    v = y_factor(a_v)
    f2 = deformed_exponential(2, order)
    if kind == "classical":
        return f2.pow_poly(_x_poly(Q(1, 2), Q(-1, 2))) * v  # f2^((X-1)/2)

    uv = (v if a_u == a_v else y_factor(a_u)) * v
    head = f2.pow_poly(_x_poly(Q(1, 2), -1))  # f2^(X/2 - 1)
    if kind == "root" and family in ("C", "D"):  # bracket sum, exact halving
        return (head * (f2 + uv)) * Q(1, 2)
    if kind == "weight" and family in ("B", "D"):
        # f2^(X/4-1) uv (f2^(X/4) + F(-2Z,Y)^(X/4)), regrouped so that every
        # product has a factor free of X.
        even = f2 * deformed_exponential(-2, order)  # even in Z
        inverse = f2.pow_poly(MultiPoly.const(COBOUNDARY_VARS, -1))
        quarter = _x_poly(Q(1, 4), 0)  # X/4
        return head * uv + even.pow_poly(quarter) * (uv * inverse)
    return head * uv


def extract_coboundary(
    series: TruncSeries, family: str, n: int
) -> CoboundaryPolynomial:
    """Coboundary polynomial of the rank-n (or n-coordinate, type A) system
    from a family series.

    psi is n! times the Z^n coefficient, read as integer terms.  For type A,
    n counts coordinates (the configuration has rank n-1) and the series
    carries an extra factor of X, which is divided out exactly.
    """
    if n > series.order:
        raise StructureError(f"n={n} exceeds series order {series.order}")
    psi = series.integer_coefficient(n, factorial(n))
    if family == "A":
        if any(i == 0 for i, _ in psi):
            raise ExactDivisionError("non-exact polynomial division")
        psi = {(i - 1, j): c for (i, j), c in psi.items()}
    rank = n - 1 if family == "A" else n
    return CoboundaryPolynomial(MultiPoly(COBOUNDARY_VARS, psi), rank)


def tutte_from_series(
    series: TruncSeries, family: str, lattice_kind: str, n: int
) -> TuttePolynomial:
    """Tutte polynomial of the rank-n (or n-coordinate, type A) system, read
    from the family series of `expand_genfun`."""
    # Type A has rank n-1; only the integer lattice spans all n coordinates.
    ambient = n - 1 if family == "A" and lattice_kind != "integer" else n
    flavor = "classical" if lattice_kind == "classical" else "arithmetic"
    return tutte_from_coboundary(extract_coboundary(series, family, n), ambient, flavor)


def extract_polynomial(req: GenFunRequest, n: int) -> TuttePolynomial:
    """Tutte polynomial of the rank-n (or n-coordinate, type A) system."""
    return tutte_from_series(expand_genfun(req), req.family, req.lattice_kind, n)
