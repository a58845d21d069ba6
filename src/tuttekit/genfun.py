"""Closed-form generating functions for the coboundary polynomials.

Each classical family has an exponential generating function in Z, built
from deformed exponential factors with exponents that are polynomials in X
over the rationals.  Expanding the series and reading off the coefficient
of Z^n recovers the (arithmetic) coboundary polynomial, from which the
Tutte polynomial follows by the standard change of variables.

Each family series is a sum of (weight, series, series) products over one
divisor, listed by `_final_products` and read by `series.sum_of_products`:
`expand_genfun` reads every Z^k, `extract_polynomial` only Z^n.  With
f2 = F(2Z,Y), head = f2^(X/2-1) and u, v the family's two X-free factors,
they are head uv; head (f2 + uv) / 2 for C, D root; head uv +
(f2 F(-2Z,Y))^(X/4) (uv f2^(-1)) for B, D weight, regrouped from
f2^(X/4-1) uv (f2^(X/4) + F(-2Z,Y)^(X/4)); and f2^((X-1)/2) v for the
classical kind.  Type A weight is the totient sum sum_m phi(m)
(exp(X cg_m) - 1), cg_m every m-th term of log F(Z,Y).

The expansion runs on integer numerators end to end, with one monomial per
coefficient of each X-free factor and each power taken by Miller's
recurrence (`TruncSeries.pow_poly`).  `extract_coboundary` reads
psi = n! [Z^n] as an integer polynomial, and `tutte_from_series` hands it
to `tutte.tutte_from_coboundary`, with no rational polynomial in between.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial, gcd
from typing import Tuple

from .errors import ExactDivisionError, StructureError
from .poly import FrozenRecord, MultiPoly
from .root_systems import FAMILIES, LATTICE_KINDS, RootSystemSpec
from .series import Products, TruncSeries, deformed_exponential, sum_of_products
from .tutte import (
    COBOUNDARY_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    tutte_from_coboundary,
)

DEFAULT_ORDER = 8

GENFUN_KINDS = LATTICE_KINDS + ("classical",)


class GenFunRequest(FrozenRecord):
    __slots__ = _fields = ("family", "lattice_kind", "order")

    def __init__(self, family: str, lattice_kind: str, order: int):
        if family not in FAMILIES:
            raise StructureError(f"unknown family {family!r}")
        if lattice_kind not in GENFUN_KINDS:
            raise StructureError(f"unknown lattice kind {lattice_kind!r}")
        if type(order) is not int:
            raise StructureError(f"order must be an int, not {order!r}")
        if order < 1:
            raise StructureError("order must be at least 1")
        self._set(family=family, lattice_kind=lattice_kind, order=order)


def euler_phi(n: int) -> int:
    return sum(1 for m in range(1, n + 1) if gcd(m, n) == 1)


def _x_poly(x_coeff: Q, const: Q) -> MultiPoly:
    return MultiPoly(COBOUNDARY_VARS, {(1, 0): Q(x_coeff), (0, 0): Q(const)})


def _y(power: int, scale: int = 1) -> MultiPoly:
    """scale * Y^power: the alpha or beta of an X-free deformed exponential."""
    return MultiPoly(COBOUNDARY_VARS, {(0, power): scale})


def _final_products(
    family: str, kind: str, order: int, n: int = 0
) -> Tuple[Products, int]:
    """The family series as (weight, series, series) products over one divisor,
    every factor truncated at Z^order; see `series.sum_of_products`.  Type A
    weight keeps only the m | n, as exp(X cg_m) lives on multiples of m;
    n = 0, the default, keeps every m, for a read of every Z^k."""
    if family == "A":
        one = TruncSeries.constant(COBOUNDARY_VARS, 1, order)
        x = MultiPoly.var(COBOUNDARY_VARS, "X")
        f = deformed_exponential(_y(0), _y(1), order)  # F(Z,Y)
        if kind != "weight":
            # Integer and root lattices agree for type A (unimodular configuration).
            return [(1, f.pow_poly(x), one)], 1
        # sum_m phi(m) (exp(X cg_m) - 1), cg_m every m-th term of log F(Z,Y).
        cg = f.log()
        return [
            (euler_phi(m), (cg.filter_every_nth(m) * x).exp() - 1, one)
            for m in range(1, order + 1)
            if not n % m
        ], 1

    def y_factor(a: int) -> TruncSeries:  # F(Y^a Z, Y^2), free of X
        return deformed_exponential(_y(a), _y(2), order)

    # One pair u, v per family: B (F(Z,Y^2), F(YZ,Y^2)), C both F(YZ,Y^2),
    # D both F(Z,Y^2).
    a_u, a_v = {"B": (0, 1), "C": (1, 1), "D": (0, 0)}[family]
    v = y_factor(a_v)
    f2 = deformed_exponential(_y(0, 2), _y(1), order)  # F(2Z,Y)
    if kind == "classical":
        return [(1, f2.pow_poly(_x_poly(Q(1, 2), Q(-1, 2))), v)], 1  # f2^((X-1)/2)

    uv = (v if a_u == a_v else y_factor(a_u)) * v
    head = f2.pow_poly(_x_poly(Q(1, 2), -1))  # f2^(X/2 - 1)
    if kind == "root" and family in ("C", "D"):  # bracket sum, exact halving
        return [(1, head, f2), (1, head, uv)], 2
    if kind == "weight" and family in ("B", "D"):
        # f2^(X/4-1) uv (f2^(X/4) + F(-2Z,Y)^(X/4)), regrouped so that every
        # product has a factor free of X.
        even = f2 * deformed_exponential(_y(0, -2), _y(1), order)  # even in Z
        inverse = f2.pow_poly(MultiPoly.const(COBOUNDARY_VARS, -1))
        quarter = _x_poly(Q(1, 4), 0)  # X/4
        return [(1, head, uv), (1, even.pow_poly(quarter), uv * inverse)], 1
    return [(1, head, uv)], 1


def expand_genfun(req: GenFunRequest) -> TruncSeries:
    """Truncated generating function for (family, lattice kind)."""
    return sum_of_products(*_final_products(req.family, req.lattice_kind, req.order))


def extract_coboundary(
    series: TruncSeries, family: str, n: int
) -> CoboundaryPolynomial:
    """Coboundary polynomial of the rank-n (or n-coordinate, type A) system
    from a family series.

    psi is n! times the Z^n coefficient, read as integer terms.  For type A,
    n counts coordinates (the configuration has rank n-1) and the series
    carries an extra factor of X, which is divided out exactly.
    """
    RootSystemSpec(family, n, "integer")  # refuses what names no system
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
    """Tutte polynomial of the rank-n (or n-coordinate, type A) system, from
    the Z^n term of the family series alone."""
    final = _final_products(req.family, req.lattice_kind, req.order, n)
    z_n = sum_of_products(*final, low=n)
    return tutte_from_series(z_n, req.family, req.lattice_kind, n)
