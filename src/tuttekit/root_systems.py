"""Positive-root configurations of the classical families A, B, C, D.

Each family is built in explicit coordinates together with one of three
reference lattices: the ambient integer lattice, the lattice generated by
the roots, or the lattice generated by the fundamental weights.

Type A with n coordinates is the rank n-1 configuration {e_i - e_j}; its
weight lattice lives in the quotient of Z^n by the all-ones vector, which
is realized concretely as Z^(n-1) with e_n identified with minus the sum
of the other basis images.  The "integer" kind for type A keeps the
standard Z^n construction, which yields the same polynomial as the root
lattice because the configuration is unimodular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import List, Tuple

from .errors import StructureError
from .lattice import LatticeBasis, VectorConfig

FAMILIES = ("A", "B", "C", "D")
LATTICE_KINDS = ("integer", "root", "weight")

Vector = Tuple[Q, ...]


@dataclass(frozen=True)
class RootSystemSpec:
    family: str
    n: int
    lattice_kind: str

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise StructureError(f"unknown family {self.family!r}")
        if self.lattice_kind not in LATTICE_KINDS:
            raise StructureError(f"unknown lattice kind {self.lattice_kind!r}")
        minimum = 2 if self.family == "D" else 1
        if self.n < minimum:
            raise StructureError(f"{self.family} requires n >= {minimum}")

    def __str__(self) -> str:
        return f"{self.family}:{self.n}:{self.lattice_kind}"


def parse_system(text: str) -> RootSystemSpec:
    """Parse a "family:n:lattice" specification string, e.g. "C:2:integer"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise StructureError(f"bad system spec {text!r}, expected family:n:lattice")
    family, n_str, kind = parts
    try:
        n = int(n_str)
    except ValueError:
        raise StructureError(f"bad rank in system spec {text!r}") from None
    return RootSystemSpec(family=family.upper(), n=n, lattice_kind=kind.lower())


def _e(n: int, i: int, scale: int = 1) -> List[Q]:
    v = [Q(0)] * n
    v[i] = Q(scale)
    return v


def _bcd_roots(family: str, n: int) -> List[Vector]:
    """Deterministic root order: e_i - e_j, then e_i + e_j, then e_i or 2e_i."""
    roots: List[Vector] = []
    for i in range(n):
        for j in range(i + 1, n):
            v = _e(n, i)
            v[j] = Q(-1)
            roots.append(tuple(v))
    for i in range(n):
        for j in range(i + 1, n):
            v = _e(n, i)
            v[j] = Q(1)
            roots.append(tuple(v))
    if family == "B":
        roots.extend(tuple(_e(n, i)) for i in range(n))
    elif family == "C":
        roots.extend(tuple(_e(n, i, 2)) for i in range(n))
    return roots


def _even_sum_lattice(n: int) -> LatticeBasis:
    """The index-2 sublattice of Z^n of vectors with even coordinate sum."""
    cols = []
    for i in range(n - 1):
        v = _e(n, i)
        v[i + 1] = Q(-1)
        cols.append(tuple(v))
    cols.append(tuple(_e(n, n - 1, 2)))
    return LatticeBasis(tuple(cols))


def _half_sum_lattice(n: int) -> LatticeBasis:
    """Z^n extended by the half-sum (e_1 + ... + e_n)/2."""
    cols = [tuple(_e(n, i)) for i in range(n - 1)]
    cols.append(tuple(Q(1, 2) for _ in range(n)))
    return LatticeBasis(tuple(cols))


def _type_a_quotient_roots(n: int) -> List[Vector]:
    """Images of e_i - e_j (i < j) in Z^n / (sum of coordinates = 0).

    Coordinates are taken in the basis of the images of e_1 .. e_{n-1},
    with e_n mapping to minus their sum.
    """
    if n < 2:
        return []
    roots: List[Vector] = []
    for i in range(n):
        for j in range(i + 1, n):
            v = [Q(0)] * (n - 1)
            if i < n - 1:
                v[i] += 1
            else:
                v = [x - 1 for x in v]
            if j < n - 1:
                v[j] -= 1
            else:
                v = [x + 1 for x in v]
            roots.append(tuple(v))
    return roots


def _type_a_root_lattice(n: int) -> LatticeBasis:
    """Lattice generated by the type-A roots inside the quotient Z^(n-1)."""
    cols: List[Vector] = []
    for i in range(n - 2):
        v = [Q(0)] * (n - 1)
        v[i], v[i + 1] = Q(1), Q(-1)
        cols.append(tuple(v))
    # Image of e_{n-1} - e_n: e_{n-1} + (e_1 + ... + e_{n-1}).
    last = [Q(1)] * (n - 1)
    last[n - 2] = Q(2)
    cols.append(tuple(last))
    return LatticeBasis(tuple(cols))


def build_config(spec: RootSystemSpec) -> VectorConfig:
    """Vector configuration and reference lattice for a root system spec."""
    family, n, kind = spec.family, spec.n, spec.lattice_kind
    if family == "A":
        if kind == "integer":
            # Standard coordinates in Z^n; unimodular, so this matches the
            # root-lattice polynomial.
            roots = []
            for i in range(n):
                for j in range(i + 1, n):
                    v = _e(n, i)
                    v[j] = Q(-1)
                    roots.append(tuple(v))
            return VectorConfig(
                vectors=tuple(roots), lattice=LatticeBasis.standard(n)
            )
        if n < 2:
            raise StructureError("type A quotient coordinates need n >= 2")
        roots = _type_a_quotient_roots(n)
        if kind == "weight":
            lattice = LatticeBasis.standard(n - 1)
        else:
            lattice = _type_a_root_lattice(n)
        return VectorConfig(vectors=tuple(roots), lattice=lattice)

    roots = _bcd_roots(family, n)
    if family == "B":
        lattices = {
            "integer": LatticeBasis.standard(n),
            "root": LatticeBasis.standard(n),
            "weight": _half_sum_lattice(n),
        }
    elif family == "C":
        lattices = {
            "integer": LatticeBasis.standard(n),
            "root": _even_sum_lattice(n),
            "weight": LatticeBasis.standard(n),
        }
    else:  # D
        lattices = {
            "integer": LatticeBasis.standard(n),
            "root": _even_sum_lattice(n),
            "weight": _half_sum_lattice(n),
        }
    return VectorConfig(vectors=tuple(roots), lattice=lattices[kind])


def root_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n - 1) // 2
    if family in ("B", "C"):
        return n * n
    return n * (n - 1)


def config_rank(family: str, n: int) -> int:
    """Rank of the full positive-root configuration."""
    return n - 1 if family == "A" else n


def cartan_index(family: str, n: int) -> int:
    """Index of the root lattice inside the weight lattice."""
    if family == "A":
        return n
    if family in ("B", "C"):
        return 2
    if n < 3:
        raise StructureError("the type-D Cartan determinant formula needs n >= 3")
    return 4


def lattice_index_check(family: str, n: int) -> int:
    """Compute [weight : root] from the bases and verify the Cartan value."""
    weight = build_config(RootSystemSpec(family, n, "weight")).lattice
    root = build_config(RootSystemSpec(family, n, "root")).lattice
    index = weight.index_of_sublattice(root)
    expected = cartan_index(family, n)
    if index != expected:
        raise StructureError(
            f"lattice index {index} does not match Cartan determinant {expected}"
        )
    return index


def weyl_group_order(family: str, n: int) -> int:
    """Order of the Weyl group; type A is indexed by coordinate count n."""
    import math

    if family == "A":
        return math.factorial(n)
    if family in ("B", "C"):
        return 2**n * math.factorial(n)
    return 2 ** (n - 1) * math.factorial(n)
