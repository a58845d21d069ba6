"""Lattices as rational basis matrices; ranks and multiplicities of subsets.

A lattice of rank d inside Q^m is stored as an m x d matrix of exact
rationals whose columns are the basis vectors.  The multiplicity of a
vector subset B is the index of ZB inside span(B) intersected with the
lattice, computed as the product of the Smith normal form invariant
factors of B's integer coordinate matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from math import gcd, lcm
from typing import List, Sequence, Tuple

from .errors import CapacityError, LatticeMembershipError, SpanError, StructureError

Vector = Tuple[Q, ...]

# Vector-count guard of the sublattice census, and so of every caller.
DEFAULT_CAPACITY = 25


def _solve_exact(columns: Sequence[Vector], v: Vector) -> List[Q]:
    """Solve sum_j c_j * columns[j] = v exactly; raise SpanError if unsolvable."""
    m = len(v)
    d = len(columns)
    # Augmented matrix, rows are equations.
    rows = [[columns[j][i] for j in range(d)] + [v[i]] for i in range(m)]
    pivots = []  # (row, col)
    r = 0
    for c in range(d):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        inv = Q(1) / pr[c]
        rows[r] = pr = [x * inv for x in pr]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        pivots.append((r, c))
        r += 1
    # Consistency: rows below rank must have zero rhs.
    for i in range(r, m):
        if rows[i][d] != 0:
            raise SpanError("vector outside the rational span of the basis")
    sol = [Q(0)] * d
    for row, col in pivots:
        sol[col] = rows[row][d]
    return sol


@dataclass(frozen=True)
class LatticeBasis:
    """Full-column-rank rational basis; columns generate the lattice."""

    basis: Tuple[Vector, ...]  # columns

    def __post_init__(self):
        cols = tuple(tuple(Q(x) for x in col) for col in self.basis)
        object.__setattr__(self, "basis", cols)
        if not cols:
            raise StructureError("empty lattice basis")
        m = len(cols[0])
        if any(len(c) != m for c in cols):
            raise StructureError("basis columns of unequal length")
        if _rational_rank([list(c) for c in cols]) != len(cols):
            raise StructureError("basis columns are linearly dependent")

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @staticmethod
    def standard(n: int) -> "LatticeBasis":
        cols = tuple(
            tuple(Q(1) if i == j else Q(0) for i in range(n)) for j in range(n)
        )
        return LatticeBasis(cols)

    def coordinates(self, v: Sequence[Q]) -> Tuple[int, ...]:
        """Integer coordinates of v in this lattice.

        Raises SpanError if v is outside the rational span, and
        LatticeMembershipError if the coordinates are not integral.
        """
        sol = _solve_exact(self.basis, tuple(Q(x) for x in v))
        if any(c.denominator != 1 for c in sol):
            raise LatticeMembershipError(
                f"vector {tuple(v)} is not in the lattice (coords {sol})"
            )
        return tuple(int(c) for c in sol)

    def index_of_sublattice(self, sub: "LatticeBasis") -> int:
        """Index [self : sub] for a finite-index sublattice of the same rank."""
        if sub.rank != self.rank:
            raise StructureError("sublattice of different rank")
        det = _int_det([list(self.coordinates(col)) for col in sub.basis])
        if det == 0:
            raise StructureError("claimed sublattice basis is degenerate")
        return abs(det)


@dataclass(frozen=True)
class VectorConfig:
    """Ordered vectors in an ambient rational space, with a reference lattice."""

    vectors: Tuple[Vector, ...]
    lattice: LatticeBasis
    coord_matrix: Tuple[Tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        vecs = tuple(tuple(Q(x) for x in v) for v in self.vectors)
        object.__setattr__(self, "vectors", vecs)
        for v in vecs:
            if len(v) != self.lattice.ambient_dim:
                raise StructureError("vector dimension differs from ambient")
        # Columns of the coordinate matrix are lattice coordinates of vectors;
        # membership is enforced here once and for all.
        coords = tuple(self.lattice.coordinates(v) for v in vecs)
        object.__setattr__(self, "coord_matrix", coords)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def ambient_dim(self) -> int:
        return self.lattice.ambient_dim

    def subset_columns(self, indices: Sequence[int]) -> List[List[int]]:
        """Lattice-coordinate matrix of a subset: d rows, one column per index."""
        d = self.lattice.rank
        return [[self.coord_matrix[j][i] for j in indices] for i in range(d)]


@dataclass(frozen=True)
class SubsetStats:
    rank: int
    multiplicity: int


# One (stats, counts[k] of k-element generating subsets) pair per lattice ZB.
Census = List[Tuple[SubsetStats, List[int]]]


# ----------------------------------------------------------------------
# exact linear algebra over Z and Q


def _rational_rank(columns: List[List[Q]]) -> int:
    if not columns:
        return 0
    m = len(columns[0])
    rows = [[col[i] for col in columns] for i in range(m)]
    rank = 0
    ncols = len(columns)
    for c in range(ncols):
        pivot = next((i for i in range(rank, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, m):
            if rows[i][c] != 0:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def int_matrix_rank(rows: List[List[int]]) -> int:
    """Rank of an integer matrix via fraction-free elimination."""
    if not rows or not rows[0]:
        return 0
    mat = [list(r) for r in rows]
    m, n = len(mat), len(mat[0])
    rank = 0
    for c in range(n):
        pivot = next((i for i in range(rank, m) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, m):
            if mat[i][c] != 0:
                a, b = pr[c], mat[i][c]
                mat[i] = [a * x - b * y for x, y in zip(mat[i], pr)]
        rank += 1
        if rank == m:
            break
    return rank


def _int_det(rows: List[List[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss elimination)."""
    n = len(rows)
    if n == 0:
        return 1
    mat = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def snf_invariant_factors(rows: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix.

    Exact Euclidean row/column reduction with pivot selection on minimal
    absolute value.  The empty matrix gives [].
    """
    mat = [list(r) for r in rows]
    m = len(mat)
    n = len(mat[0]) if mat else 0
    factors: List[int] = []
    top = 0
    left = 0
    while top < m and left < n:
        # Find the nonzero entry of minimal absolute value in the working block.
        best = None
        for i in range(top, m):
            row = mat[i]
            for j in range(left, n):
                v = row[j]
                if v != 0 and (best is None or abs(v) < abs(best[2])):
                    best = (i, j, v)
        if best is None:
            break
        bi, bj, _ = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[left], row[bj] = row[bj], row[left]
        while True:
            p = mat[top][left]
            dirty = False
            for i in range(top + 1, m):
                if mat[i][left] != 0:
                    q = mat[i][left] // p
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][left] != 0:
                        mat[top], mat[i] = mat[i], mat[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(left + 1, n):
                if mat[top][j] != 0:
                    q = mat[top][j] // p
                    if q:
                        for row in mat:
                            row[j] -= q * row[left]
                    if mat[top][j] != 0:
                        for row in mat:
                            row[left], row[j] = row[j], row[left]
                        dirty = True
                        break
            if not dirty:
                break
        factors.append(abs(mat[top][left]))
        top += 1
        left += 1
    # Enforce the divisibility chain d1 | d2 | ...
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            g = gcd(a, b)
            factors[i], factors[j] = g, a * b // g if g else 0
    return sorted(f for f in factors if f != 0)


def subset_stats(config: VectorConfig, subset: Sequence[int]) -> SubsetStats:
    """Rank and multiplicity of a subset of a vector configuration."""
    indices = list(subset)
    for i in indices:
        if not 0 <= i < len(config):
            raise StructureError(f"subset index {i} out of range")
    cols = config.subset_columns(indices)
    rank = int_matrix_rank(cols)
    mult = 1
    for f in snf_invariant_factors(cols):
        mult *= f
    return SubsetStats(rank=rank, multiplicity=mult)


def _hnf_add(
    rows: Tuple[Tuple[int, ...], ...], v: Sequence[int]
) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row HNF of the lattice generated by `rows` and `v`.

    `rows` is itself a canonical HNF: echelon form, positive pivots, pivot
    columns increasing, entries above each pivot reduced into [0, pivot).
    The pivot columns and pivot values of an echelon basis depend only on
    the lattice, so the reduced form is unique and serves as its key.
    """
    out = [list(r) for r in rows]
    i = 0
    while any(v):
        c = next(j for j, x in enumerate(v) if x)
        while i < len(out) and any(out[i][:c]):
            i += 1
        if i == len(out) or not out[i][c]:
            out.insert(i, list(v))
            break
        # Euclid on the two rows: the row keeps the gcd at c, v gets a 0.
        h = out[i]
        while v[c]:
            q = h[c] // v[c]
            h, v = v, [x - q * y for x, y in zip(h, v)]
        out[i] = h
        i += 1
    for i, row in enumerate(out):
        c = next(j for j, x in enumerate(row) if x)
        if row[c] < 0:
            out[i] = row = [-x for x in row]
        for above in range(i):
            q = out[above][c] // row[c]
            if q:
                out[above] = [x - q * y for x, y in zip(out[above], row)]
    return tuple(tuple(r) for r in out)


def sublattice_census(config: VectorConfig) -> Census:
    """Every distinct sublattice ZB, B a subset of the configuration.

    Returns one (stats, counts) pair per lattice: its rank and multiplicity,
    and counts[k], the number of k-element subsets B that generate it.
    The vectors are folded in one at a time over a map from canonical HNF
    to counts, so the work grows with the number of distinct lattices, not
    with 2^|A|; one Smith normal form per final lattice gives m(B).
    Refuses more than DEFAULT_CAPACITY vectors.
    """
    n = len(config)
    if n > DEFAULT_CAPACITY:
        raise CapacityError(
            f"{n} vectors exceeds the census capacity guard of {DEFAULT_CAPACITY}"
        )
    states = {(): [1] + [0] * n}
    for v in config.coord_matrix:
        grown = {key: counts[:] for key, counts in states.items()}
        for key, counts in states.items():
            target = grown.setdefault(_hnf_add(key, v), [0] * (n + 1))
            for k in range(n):
                target[k + 1] += counts[k]
        states = grown
    census = []
    for rows, counts in states.items():
        mult = 1
        for f in snf_invariant_factors(rows):
            mult *= f
        census.append((SubsetStats(rank=len(rows), multiplicity=mult), counts))
    return census


def multiplicity_lcm(config: VectorConfig) -> int:
    """lcm of m(B) over all subsets B (the census's vector guard applies)."""
    return lcm(*(stats.multiplicity for stats, _ in sublattice_census(config)))
