"""Brute-force oracles that the tests check the engines against.

Nothing in the CLI, the engines, `verify`, the demos or the benchmark
reaches these.  `component_stats`, `subset_stats` and
`torsion_exponent_lcm` read one graph or one subset at a time, straight
from the definitions, which is what makes them oracles; `lattice_census`
reads the census fold one lattice at a time.  The rest are second formulas
and counts for identities the engines' results must satisfy.

- `component_stats` gives the six enumeration parameters of one signed
  graph (`SignedGraph`, read into `GraphStats`) through a union-find with
  edge parities, `_ParityUnionFind`.  It is the per-graph oracle of the
  edge fold and the loop rule in `tuttekit.signed_graphs`.
- `subset_stats` gives the rank and multiplicity of one subset of a vector
  configuration from one Smith normal form of `subset_columns`.  It is the
  per-subset oracle of `tuttekit.lattice.sublattice_census`.
- `lattice_census` gives one (stats, counts) pair per lattice ZB of
  `tuttekit.lattice._census_fold`, unpacked from the fold's keys and
  digits: the per-lattice data that `sublattice_census` groups into
  (rank, m) classes.
- `torsion_exponent_lcm` gives the lcm, over every subset, of the largest
  invariant factor of its coordinate matrix, one Smith normal form per
  subset.  It is the oracle of the sampling step of
  `tuttekit.finitefield.tutte_via_interpolation`, which reads it off the
  rank-r lattices alone.
- `prime_case_characteristic_type_A` and `char_coeffs_via_permutations`
  give the characteristic polynomial of type A in its weight lattice, the
  first for prime n >= 3 in closed form, the second as gcds over the cycle
  types (`_partitions`) of the permutations of [n].  They are oracles of
  `tuttekit.invariants.weight_characteristic_type_A`, a divisor sum.
- `necklace_count` (Burnside) and `necklace_count_direct` (rotation orbits
  of the binary strings, one at a time) count the necklaces of n black and
  q - n white beads.  For odd n dividing q, that characteristic at q is n!
  times the count.
- `balanced_census` reads the balanced signed graphs off
  `tuttekit.signed_graphs.master_census`, and `marked_graph_identity_holds`
  checks them against `unsigned_census`: 2^c+ balanced signed graphs per
  marked graph class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, gcd, lcm, prod
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

from tuttekit.errors import StructureError
from tuttekit.genfun import euler_phi
from tuttekit.invariants import CHAR_VARS
from tuttekit.lattice import (
    Census,
    SubsetStats,
    VectorConfig,
    _census_fold,
    _key_multiplicity,
    int_matrix_rank,
    snf_invariant_factors,
)
from tuttekit.poly import MultiPoly
from tuttekit.signed_graphs import master_census, unsigned_census


# ----------------------------------------------------------------------
# one signed graph


@dataclass(frozen=True)
class SignedGraph:
    v: int
    pos_edges: FrozenSet[Tuple[int, int]]
    neg_edges: FrozenSet[Tuple[int, int]]
    loops: FrozenSet[int]

    def __post_init__(self):
        for i, j in list(self.pos_edges) + list(self.neg_edges):
            if not (0 <= i < j < self.v):
                raise StructureError(f"bad edge ({i}, {j}) on {self.v} vertices")
        for i in self.loops:
            if not 0 <= i < self.v:
                raise StructureError(f"bad loop vertex {i}")


@dataclass(frozen=True)
class GraphStats:
    c_plus: int
    c_minus: int
    c_zero: int
    l: int
    e: int
    v: int


class _ParityUnionFind:
    """Union-find with edge parities; tracks per-component balance."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the path to the parent
        self.balanced = [True] * n  # valid at roots

    def _find_with_parity(self, a: int) -> Tuple[int, int]:
        if self.parent[a] == a:
            return a, 0
        root, p = self._find_with_parity(self.parent[a])
        self.parent[a] = root
        self.parity[a] ^= p
        return root, self.parity[a]

    def union(self, a: int, b: int, sign_parity: int) -> None:
        """Join a and b with an edge of the given parity (1 = negative)."""
        ra, pa = self._find_with_parity(a)
        rb, pb = self._find_with_parity(b)
        if ra == rb:
            if (pa ^ pb) != sign_parity:
                self.balanced[ra] = False
            return
        bal = self.balanced[ra] and self.balanced[rb]
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ sign_parity
        self.balanced[ra] = bal

    def mark_unbalanced(self, a: int) -> None:
        ra, _ = self._find_with_parity(a)
        self.balanced[ra] = False

    def components(self) -> Dict[int, Tuple[int, bool]]:
        """root -> (size, balanced)."""
        out: Dict[int, List] = {}
        for a in range(len(self.parent)):
            ra, _ = self._find_with_parity(a)
            if ra not in out:
                out[ra] = [0, self.balanced[ra]]
            out[ra][0] += 1
        return {r: (s, b) for r, (s, b) in out.items()}


def component_stats(g: SignedGraph) -> GraphStats:
    """The six enumeration parameters of a signed graph."""
    uf = _ParityUnionFind(g.v)
    for i, j in g.pos_edges:
        uf.union(i, j, 0)
    for i, j in g.neg_edges:
        uf.union(i, j, 1)
    loop_roots = set()
    for i in g.loops:
        uf.mark_unbalanced(i)
    for i in g.loops:
        loop_roots.add(uf._find_with_parity(i)[0])
    c_plus = c_minus = c_zero = 0
    for root, (_, balanced) in uf.components().items():
        if root in loop_roots:
            c_zero += 1
        elif balanced:
            c_plus += 1
        else:
            c_minus += 1
    return GraphStats(
        c_plus=c_plus,
        c_minus=c_minus,
        c_zero=c_zero,
        l=len(g.loops),
        e=len(g.pos_edges) + len(g.neg_edges),
        v=g.v,
    )


# ----------------------------------------------------------------------
# one subset of a vector configuration


def subset_columns(config: VectorConfig, indices: Sequence[int]) -> List[List[int]]:
    """Lattice-coordinate matrix of a subset: d rows, one column per index."""
    d = config.lattice.rank
    return [[config.coord_matrix[j][i] for j in indices] for i in range(d)]


def subset_stats(config: VectorConfig, subset: Sequence[int]) -> SubsetStats:
    """Rank and multiplicity of a subset of a vector configuration."""
    indices = list(subset)
    for i in indices:
        if not 0 <= i < len(config):
            raise StructureError(f"subset index {i} out of range")
    cols = subset_columns(config, indices)
    mult = prod(snf_invariant_factors(cols))
    return SubsetStats(rank=int_matrix_rank(cols), multiplicity=mult)


def lattice_census(config: VectorConfig) -> Census:
    """One (stats, counts) pair per lattice ZB, B a subset of the configuration.

    Each lattice of `_census_fold` gives its rank, m(B) read off its key,
    and counts[k], the number of k-element subsets B that generate it,
    unpacked from its digits.
    """
    width = len(config) + 1
    digit = (1 << width) - 1
    return [
        (
            SubsetStats(len(rows), _key_multiplicity(rows)),
            [packed >> width * k & digit for k in range(width)],
        )
        for rows, packed in _census_fold(config).items()
    ]


def torsion_exponent_lcm(config: VectorConfig) -> int:
    """lcm over all subsets B of the exponent of the torsion of Lambda / ZB.

    The exponent is the largest invariant factor of B's coordinate matrix,
    and 1 when B has rank 0.
    """
    n = len(config)
    subsets = (b for k in range(n + 1) for b in combinations(range(n), k))
    return lcm(
        *(max(snf_invariant_factors(subset_columns(config, b)), default=1) for b in subsets)
    )


# ----------------------------------------------------------------------
# type A in its weight lattice: closed forms and necklaces


def prime_case_characteristic_type_A(n: int) -> MultiPoly:
    """(q-1)...(q-n+1) + (n-1)(n-1)! for prime n >= 3."""
    if n < 3:
        raise StructureError("formula requires n >= 3")
    qv = MultiPoly.var(CHAR_VARS, "q")
    out = MultiPoly.const(CHAR_VARS, 1)
    for i in range(1, n):
        out = out * (qv - i)
    return out + (n - 1) * factorial(n - 1)


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
        total += euler_phi(m) * comb(q // m, n // m)
    assert total % q == 0
    return total // q


def necklace_count_direct(n: int, q: int) -> int:
    """Enumerate binary strings and count rotation orbits."""
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


def _partitions(n: int, max_part: int = None) -> Iterator[Tuple[int, ...]]:
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for p in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def char_coeffs_via_permutations(n: int) -> MultiPoly:
    """chi of type A (n coordinates, weight lattice) via gcds over cycle types.

    chi(q) = sum over k of (-1)^(n-k) c_k q^(k-1), where c_k totals
    gcd(cycle lengths) over all permutations of [n] with k cycles.
    """
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
        coeffs[(k - 1,)] = sign * ck
    return MultiPoly(CHAR_VARS, coeffs)


# ----------------------------------------------------------------------
# balanced and marked graphs


def balanced_census(v: int) -> Dict[Tuple[int, int], int]:
    """(c_plus, e) -> count of balanced signed graphs on [v]."""
    return {
        (cp, e): count
        for (cp, cm, c0, _, e), count in master_census(v).terms.items()
        if cm == c0 == 0
    }


def marked_graph_identity_holds(v: int) -> bool:
    """Check #marked graphs = 2^c_plus * #balanced signed graphs, per class.

    Marked graphs are simple graphs with vertex signs, so their census is
    the unsigned census scaled by 2^v.
    """
    unsigned = unsigned_census(v).terms
    balanced = balanced_census(v)
    keys = set(unsigned) | set(balanced)
    for c, e in keys:
        marked = unsigned.get((c, e), 0) * 2**v
        if marked != 2**c * balanced.get((c, e), 0):
            return False
    return True
