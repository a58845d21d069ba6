"""Definition-based computation of (arithmetic) Tutte polynomials.

M(x, y) = sum_B m(B) (x-1)^(r(A)-r(B)) (y-1)^(|B|-r(B)) depends on a subset
B only through |B| and the lattice ZB, whose rank is r(B) and whose Smith
invariant factors multiply to m(B).  The engine therefore sums over the
distinct lattices ZB from `lattice.sublattice_census`, a dynamic program
over canonical Hermite normal forms, weighted by how many subsets of each
size generate them.  The tests compare it with a raw per-subset sweep
built on `lattice.subset_stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import comb
from typing import Dict, List, Tuple

from .errors import ExactDivisionError, StructureError
from .lattice import Census, VectorConfig, sublattice_census
from .poly import MultiPoly, Scalar

TUTTE_VARS = ("x", "y")
COBOUNDARY_VARS = ("X", "Y")


@dataclass(frozen=True)
class TuttePolynomial:
    poly: MultiPoly  # over ("x", "y")
    rank: int  # rank of the full configuration
    ambient_rank: int  # rank of the reference lattice
    flavor: str  # "classical" or "arithmetic"

    def __post_init__(self):
        if self.poly.vars != TUTTE_VARS:
            raise StructureError("Tutte polynomial must be over (x, y)")
        if self.flavor not in ("classical", "arithmetic"):
            raise StructureError(f"unknown flavor {self.flavor!r}")

    def evaluate(self, x, y) -> Q:
        return self.poly.evaluate({"x": x, "y": y})


@dataclass(frozen=True)
class CoboundaryPolynomial:
    poly: MultiPoly  # over ("X", "Y")
    rank: int

    def __post_init__(self):
        if self.poly.vars != COBOUNDARY_VARS:
            raise StructureError("coboundary polynomial must be over (X, Y)")

    def evaluate(self, X, Y) -> Q:
        return self.poly.evaluate({"X": X, "Y": Y})


# ----------------------------------------------------------------------
# subset census


def poly_from_rank_sizes(
    counts: Dict[Tuple[int, int], int], full_rank: int
) -> MultiPoly:
    """sum w (x-1)^(full_rank-r) (y-1)^(k-r) over {(r, k): w}, on ints.

    The weights are first summed by the two exponents, then each (y-1)^j
    and (x-1)^i is expanded by binomials.
    """
    rows: Dict[int, Dict[int, int]] = {}  # full_rank - r -> k - r -> weight
    for (r, k), w in counts.items():
        row = rows.setdefault(full_rank - r, {})
        row[k - r] = row.get(k - r, 0) + w
    terms: Dict[Tuple[int, int], int] = {}
    for i, row in rows.items():
        p = [0] * (max(row) + 1)  # sum_j w_j (y-1)^j, lowest degree first
        for j, w in row.items():
            for b in range(j + 1):
                p[b] += w * comb(j, b) if (j - b) % 2 == 0 else -w * comb(j, b)
        for a in range(i + 1):
            binom = comb(i, a) if (i - a) % 2 == 0 else -comb(i, a)
            for b, c in enumerate(p):
                if c:
                    terms[(a, b)] = terms.get((a, b), 0) + binom * c
    return MultiPoly(TUTTE_VARS, terms)


def tutte_from_census(
    census: Census, ambient_rank: int, flavor: str = "arithmetic"
) -> TuttePolynomial:
    """Fold a `sublattice_census` into M(x, y).

    The census is first summed into {(rank, size): total weight}, with
    weight m(B) for the arithmetic polynomial and 1 for the classical one.
    """
    counts: Dict[Tuple[int, int], int] = {}
    full_rank = 0
    for stats, by_size in census:
        weight = stats.multiplicity if flavor == "arithmetic" else 1
        full_rank = max(full_rank, stats.rank)
        for size, c in enumerate(by_size):
            if c:
                key = (stats.rank, size)
                counts[key] = counts.get(key, 0) + weight * c
    return TuttePolynomial(
        poly_from_rank_sizes(counts, full_rank), full_rank, ambient_rank, flavor
    )


def arithmetic_tutte_bruteforce(config: VectorConfig) -> TuttePolynomial:
    """Arithmetic Tutte polynomial by exact summation over all subsets."""
    return tutte_from_census(sublattice_census(config), config.lattice.rank)


def classical_tutte_bruteforce(config: VectorConfig) -> TuttePolynomial:
    """Classical Tutte polynomial: the same census with unit multiplicities."""
    return tutte_from_census(
        sublattice_census(config), config.lattice.rank, flavor="classical"
    )


# ----------------------------------------------------------------------
# coboundary <-> Tutte transforms


def coboundary_from_tutte(t: TuttePolynomial) -> CoboundaryPolynomial:
    """psi(X, Y) = (y-1)^r M(x, y) under x = (X+Y-1)/(Y-1), y = Y.

    Since the x-degree of M is at most r, each monomial x^i y^j maps to the
    polynomial (X+Y-1)^i (Y-1)^(r-i) Y^j and no division is needed.
    """
    r = t.rank
    if t.poly.degree_in("x") > r:
        raise StructureError("x-degree exceeds the stated rank")
    xy1 = MultiPoly(COBOUNDARY_VARS, {(1, 0): 1, (0, 1): 1, (0, 0): -1})  # X+Y-1
    ym1 = MultiPoly(COBOUNDARY_VARS, {(0, 1): 1, (0, 0): -1})  # Y-1
    yv = MultiPoly.var(COBOUNDARY_VARS, "Y")
    result = MultiPoly.zero(COBOUNDARY_VARS)
    for (i, j), c in t.poly.terms.items():
        result = result + xy1**i * ym1 ** (r - i) * yv**j * c
    return CoboundaryPolynomial(poly=result, rank=r)


def tutte_from_coboundary(
    c: CoboundaryPolynomial,
    ambient_rank: int,
    flavor: str = "arithmetic",
) -> TuttePolynomial:
    """Recover M(x, y) = psi((x-1)(y-1), y) / (y-1)^r row by row.

    With psi = sum_i X^i P_i(Y), M = sum_i (x-1)^i P_i(y) (y-1)^(i-r), and
    (y-1)^r divides the whole exactly when (y-1)^(r-i) divides each P_i.
    """
    r = c.rank
    width = c.poly.degree_in("Y") + 1
    rows: Dict[int, List[Scalar]] = {}  # P_i, lowest degree first
    for (i, j), coeff in c.poly.terms.items():
        row = rows.setdefault(i, [0] * width)
        row[j] = coeff.numerator if coeff.denominator == 1 else coeff
    terms: Dict[Tuple[int, int], Scalar] = {}
    for i, p in rows.items():
        for _ in range(r - i):  # synthetic division by y - 1
            for k in range(len(p) - 2, -1, -1):
                p[k] += p[k + 1]
            if p.pop(0):
                raise ExactDivisionError(
                    "coboundary polynomial is not divisible by (y-1)^rank; "
                    "rank mismatch upstream"
                )
        for _ in range(i - r):  # multiplication by y - 1
            p = [b - a for a, b in zip(p + [0], [0] + p)]
        for k in range(i + 1):  # (x-1)^i = sum_k C(i, k) (-1)^(i-k) x^k
            binom = comb(i, k) if (i - k) % 2 == 0 else -comb(i, k)
            for j, a in enumerate(p):
                if a:
                    terms[(k, j)] = terms.get((k, j), 0) + binom * a
    return TuttePolynomial(MultiPoly(TUTTE_VARS, terms), r, ambient_rank, flavor)
