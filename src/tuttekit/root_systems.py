"""Positive-root configurations of the classical families A, B, C, D.

Each family is built in explicit coordinates together with one of three
reference lattices: the ambient integer lattice, the lattice generated by
the roots, or the lattice generated by the fundamental weights.  Roots and
lattice bases alike are written in one list of images of e_1..e_n.

Type A with n coordinates is the rank n-1 configuration {e_i - e_j}; its
weight lattice lives in the quotient of Z^n by the all-ones vector, which
is realized concretely as Z^(n-1) with e_n identified with minus the sum
of the other basis images.  The "integer" kind for type A keeps the
standard Z^n construction, which yields the same polynomial as the root
lattice because the configuration is unimodular.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import factorial
from typing import Tuple

from .errors import StructureError
from .lattice import LatticeBasis, VectorConfig
from .poly import FrozenRecord, exact_int

FAMILIES = ("A", "B", "C", "D")
LATTICE_KINDS = ("integer", "root", "weight")

Vector = Tuple[int, ...]


class RootSystemSpec(FrozenRecord):
    """A root system in a lattice; the one place that refuses a non-system."""
    __slots__ = _fields = ("family", "n", "lattice_kind")

    def __init__(self, family: str, n: int, lattice_kind: str):
        if family not in FAMILIES:
            raise StructureError(f"unknown family {family!r}")
        if lattice_kind not in LATTICE_KINDS:
            raise StructureError(f"unknown lattice kind {lattice_kind!r}")
        n = exact_int(n, "rank")
        minimum = 2 if family == "D" else 1
        if n < minimum:
            raise StructureError(f"{family} requires n >= {minimum}")
        if family == "A" and lattice_kind != "integer" and n < 2:
            raise StructureError("type A quotient coordinates need n >= 2")
        self._set(family=family, n=n, lattice_kind=lattice_kind)

    def __str__(self) -> str:
        return f"{self.family}:{self.n}:{self.lattice_kind}"


def parse_system(text: str) -> RootSystemSpec:
    """Parse a "family:n:lattice" specification string, e.g. "C:2:integer"."""
    parts = text.split(":")
    if len(parts) != 3:
        raise StructureError(f"bad system spec {text!r}, expected family:n:lattice")
    family, n_str, kind = parts
    # int() would also take signs, spaces, underscores and non-ASCII digits.
    if not (n_str.isascii() and n_str.isdigit()):
        raise StructureError(f"bad rank in system spec {text!r}")
    return RootSystemSpec(family=family.upper(), n=int(n_str), lattice_kind=kind.lower())


def build_config(spec: RootSystemSpec) -> VectorConfig:
    """Vector configuration and reference lattice for a root system spec.

    Roots and lattice bases are combinations of the images e[0..n-1] of
    e_1..e_n: the standard basis of Z^n, except that type A outside the
    integer lattice works in the quotient by the all-ones vector, realized
    as Z^(n-1) with e_n mapped to minus the sum of the others.  The images
    are int tuples; the only Fraction is the 1/2 of the B/D weight half-sum.
    """
    family, n, kind = spec.family, spec.n, spec.lattice_kind
    quotient = family == "A" and kind != "integer"
    d = n - 1 if quotient else n
    e = [tuple(int(i == k) for i in range(d)) for k in range(d)]
    if quotient:
        e.append((-1,) * d)

    def add(u: Vector, v: Vector, sign: int = 1) -> Vector:
        return tuple(x + sign * y for x, y in zip(u, v))

    # Root order: e_i - e_j, then e_i + e_j, then e_i (B) or 2e_i (C).
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    roots = [add(e[i], e[j], -1) for i, j in pairs]
    if family != "A":
        roots += [add(e[i], e[j]) for i, j in pairs]
    if family == "B":
        roots += e
    elif family == "C":
        roots += [add(v, v) for v in e]

    if kind == "root" and family != "B":
        # Consecutive differences; C and D add 2e_n for the even-sum lattice.
        basis = [add(e[i], e[i + 1], -1) for i in range(n - 1)]
        if family != "A":
            basis.append(add(e[-1], e[-1]))
    elif kind == "weight" and family in ("B", "D"):
        basis = e[:-1] + [(Q(1, 2),) * n]
    else:
        # All of Z^d: the integer kind, B's root and A's and C's weight lattices.
        basis = e[:d]
    return VectorConfig(vectors=tuple(roots), lattice=LatticeBasis(tuple(basis)))


def weyl_group_order(family: str, n: int) -> int:
    """Order of the Weyl group; type A is indexed by coordinate count n."""
    RootSystemSpec(family, n, "integer")  # refuses what names no system
    if family == "A":
        return factorial(n)
    if family in ("B", "C"):
        return 2**n * factorial(n)
    return 2 ** (n - 1) * factorial(n)
