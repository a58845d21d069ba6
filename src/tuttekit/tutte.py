"""Definition-based computation of (arithmetic) Tutte polynomials.

M(x, y) = sum_B m(B) (x-1)^(r(A)-r(B)) (y-1)^(|B|-r(B)) depends on a subset
B only through |B| and the lattice ZB: r(B) is its rank and m(B) its index
in the lattice points of its rational span.  The engine therefore sums over
the (rank, m(B)) classes from `lattice.sublattice_census`, a dynamic program
over canonical Hermite normal forms, weighted by how many subsets of each
size fall in them.  The tests compare it with a raw per-subset sweep
built on the one-Smith-form oracle `subset_stats` of `tests/oracles.py`.

M is read off one row of weights by subset size per rank, from the census
or the graph dictionary.  That and both coboundary transforms are arithmetic
on coefficient rows around one kernel, `_shift_x`: P(x, y) -> P(x + a, y).
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import accumulate, zip_longest
from typing import Dict, List

from .errors import ExactDivisionError, StructureError
from .lattice import Census, VectorConfig, sublattice_census
from .poly import FrozenRecord, MultiPoly, Scalar, compose_affine, exact_int

TUTTE_VARS = ("x", "y")
COBOUNDARY_VARS = ("X", "Y")


class TuttePolynomial(FrozenRecord):
    # M over ("x", "y"), the ranks of the configuration and of its lattice
    __slots__ = _fields = ("poly", "rank", "ambient_rank", "flavor")

    def __init__(self, poly: MultiPoly, rank: int, ambient_rank: int, flavor: str):
        if poly.vars != TUTTE_VARS:
            raise StructureError("Tutte polynomial must be over (x, y)")
        if flavor not in ("classical", "arithmetic"):
            raise StructureError(f"unknown flavor {flavor!r}")
        rank, ambient_rank = exact_int(rank, "rank"), exact_int(ambient_rank, "ambient rank")
        if not 0 <= rank <= ambient_rank:
            raise StructureError(f"rank {rank} outside 0..{ambient_rank}")
        self._set(poly=poly, rank=rank, ambient_rank=ambient_rank, flavor=flavor)

    def evaluate(self, x, y) -> Q:
        return self.poly.evaluate({"x": x, "y": y})


class CoboundaryPolynomial(FrozenRecord):
    __slots__ = _fields = ("poly", "rank")  # poly over ("X", "Y")

    def __init__(self, poly: MultiPoly, rank: int):
        if poly.vars != COBOUNDARY_VARS:
            raise StructureError("coboundary polynomial must be over (X, Y)")
        if exact_int(rank, "rank") < 0:
            raise StructureError(f"rank {rank} is negative")
        self._set(poly=poly, rank=rank)


# ----------------------------------------------------------------------
# subset census


def _times_y_minus_1(p: List[Scalar], times: int) -> List[Scalar]:
    """p(y) (y-1)^times on a coefficient list, lowest degree first."""
    for _ in range(times):
        p = [b - a for a, b in zip(p + [0], [0] + p)]
    return p


def _shift_x(rows: List[List[Scalar]], a: Scalar) -> List[List[Scalar]]:
    """Rows of P(x + a, y) from the rows of P(x, y).

    Horner's rule in x with whole rows as the coefficients, as
    `compose_affine` does on numbers: each step multiplies the partial
    result by x + a and adds the next row.
    """
    out: List[List[Scalar]] = []
    for row in reversed(rows):
        out = [
            [a * lo + hi for lo, hi in zip_longest(low, high, fillvalue=0)]
            for low, high in zip(out + [[]], [row] + out)
        ]
    return out


def poly_from_rank_rows(by_rank: Dict[int, List[int]], full_rank: int) -> MultiPoly:
    """sum w (x-1)^(full_rank-r) (y-1)^(k-r) over the weights w = by_rank[r][k].

    Row full_rank - r of M(x + 1, y) is the weights from size r on composed
    with y - 1; those below size r are 0, as a k-subset has rank at most k.
    The x-shift by -1 then turns the row powers into powers of x - 1.
    """
    rows: List[List[int]] = [[] for _ in range(full_rank + 1)]
    for r, weights in by_rank.items():
        rows[full_rank - r] = compose_affine(weights[r:], -1)
    return MultiPoly.from_rows(TUTTE_VARS, _shift_x(rows, -1))


def tutte_from_census(
    census: Census, ambient_rank: int, flavor: str = "arithmetic"
) -> TuttePolynomial:
    """Fold a `sublattice_census` into M(x, y).

    Each (rank, m) class's row of counts by size, times its weight (m for
    the arithmetic polynomial, 1 for the classical one), is added into one
    row of weights per rank, and `poly_from_rank_rows` reads M off them.
    """
    by_rank: Dict[int, List[int]] = {}
    for stats, by_size in census:
        weight = stats.multiplicity if flavor == "arithmetic" else 1
        acc = by_rank.get(stats.rank) or [0] * len(by_size)
        by_rank[stats.rank] = [a + weight * c for a, c in zip(acc, by_size)]
    full_rank = max(by_rank, default=0)
    return TuttePolynomial(
        poly_from_rank_rows(by_rank, full_rank), full_rank, ambient_rank, flavor
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

    That is x = u + 1 with u = X/(Y-1).  The x-shift by 1 gives the rows
    of M(u + 1, y) = sum_i u^i Q_i(y), and since the x-degree of M is at
    most r, psi = sum_i X^i (Y-1)^(r-i) Q_i(Y) needs no division.
    """
    r = t.rank
    rows = t.poly.rows()
    if len(rows) > r + 1:
        raise StructureError("x-degree exceeds the stated rank")
    psi = [_times_y_minus_1(q, r - i) for i, q in enumerate(_shift_x(rows, 1))]
    return CoboundaryPolynomial(MultiPoly.from_rows(COBOUNDARY_VARS, psi), r)


def tutte_from_coboundary(
    c: CoboundaryPolynomial,
    ambient_rank: int,
    flavor: str = "arithmetic",
) -> TuttePolynomial:
    """Recover M(x, y) = psi((x-1)(y-1), y) / (y-1)^r.

    With psi = sum_i X^i P_i(Y), M = sum_i (x-1)^i P_i(y) (y-1)^(i-r), and
    (y-1)^r divides the whole exactly when (y-1)^(r-i) divides each P_i.
    The rows P_i(y) (y-1)^(i-r) are then shifted by -1 in x.
    """
    r = c.rank
    rows = c.poly.rows()  # P_i, lowest degree first
    for i, p in enumerate(rows):
        q = p[::-1]  # highest degree first: division by y - 1 is a running sum
        for _ in range(r - i):
            *q, rem = accumulate(q) if q else (0,)
            if rem:  # the remainder: the row's value at y = 1
                raise ExactDivisionError(
                    "coboundary polynomial is not divisible by (y-1)^rank; "
                    "rank mismatch upstream"
                )
        rows[i] = _times_y_minus_1(q[::-1], i - r)
    poly = MultiPoly.from_rows(TUTTE_VARS, _shift_x(rows, -1))
    return TuttePolynomial(poly, r, ambient_rank, flavor)
