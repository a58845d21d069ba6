"""Lattices as rational basis matrices; ranks and multiplicities of subsets.

A lattice of rank d inside Q^m is stored as an m x d matrix of ints and
Fractions, as given, whose columns are the basis vectors.  One fraction-free
elimination on ints at construction gives an integer left inverse over one
denominator, so the lattice coordinates of a vector are an int
matrix-vector product and a divisibility test.  The multiplicity of a
vector subset B is the index of ZB inside span(B) intersected with the
lattice: for a single subset, the product of the Smith normal form
invariant factors of B's integer coordinate matrix.

`sublattice_census` folds the vectors in one at a time over the distinct
lattices ZB, each keyed by its canonical Hermite normal form, with its
subset counts by size packed into one int as base-2^(n+1) digits.  A vector
that is already a member of a state's lattice gets that key object itself
back and is counted by index, with no hash.  The multiplicity of each
final lattice is read off its key, as the index in Z^k of the lattice
spanned by the columns of its k echelon rows, and the census returns one
entry per (rank, m(B)) class: 51 for the 770 lattices of the `census` benchmark.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import gcd, lcm, prod
from operator import mul
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from .errors import CapacityError, LatticeMembershipError, SpanError, StructureError
from .poly import FrozenRecord, _narrow

Vector = Tuple[Union[int, Q], ...]

# Vector-count guard of the sublattice census, and so of every caller.
DEFAULT_CAPACITY = 25


def _dot(row: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, row, v))


def _over_one_denominator(rows: Sequence[Sequence[Q]]) -> Tuple[List[List[int]], int]:
    """Integer numerators of rational rows over their least common denominator.

    Each entry is read through `poly._narrow`, so a float or numpy int raises
    StructureError.
    """
    rows = [[_narrow(x, "lattice entry") for x in row] for row in rows]
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class LatticeBasis(FrozenRecord):
    """Full-column-rank rational basis; columns generate the lattice.

    The basis is written as an int matrix over one denominator, and one
    fraction-free Gauss-Jordan pass over [basis | I] gives int row
    operations T with T basis = [D; 0], D diagonal: each row update
    cross-multiplies by the pivot and divides the row by its gcd, so no
    Fraction is built.  The top rows of T, divided by their pivots and put
    over one denominator, are a left inverse of the basis, so the
    coordinates of v are an int matrix-vector product; the rows below span
    the left null space, so v is in the rational span exactly when they all
    annihilate it.  A square basis has no such rows.
    """

    __slots__ = ("basis", "_inverse", "_denominator", "_cokernel")
    _fields = ("basis",)  # columns; the rest is derived from them

    def __init__(self, basis: Sequence[Vector]):
        cols = tuple(map(tuple, basis))
        if not cols:
            raise StructureError("empty lattice basis")
        m = len(cols[0])
        if any(len(c) != m for c in cols):
            raise StructureError("basis columns of unequal length")
        d = len(cols)
        # basis = scaled / scale, so scale times a left inverse of the int
        # matrix `scaled` is one of the basis.
        scaled, scale = _over_one_denominator(cols)
        rows = [
            [col[i] for col in scaled] + [int(i == k) for k in range(m)]
            for i in range(m)
        ]
        for c in range(d):
            # Every column has a pivot, so column c's lands in row c.
            pivot = next((i for i in range(c, m) if rows[i][c]), None)
            if pivot is None:
                raise StructureError("basis columns are linearly dependent")
            rows[c], rows[pivot] = rows[pivot], rows[c]
            pr = rows[c]
            p = pr[c]
            for i in range(m):
                f = rows[i][c]
                if i != c and f:
                    row = [p * a - f * b for a, b in zip(rows[i], pr)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row]
        # Row c of the right half over the pivot rows[c][c] is row c of a left
        # inverse of `scaled`: put the d rows over the pivots' lcm, in lowest
        # terms.
        den = lcm(*(rows[c][c] for c in range(d)))
        inverse = [
            [x * (scale * den // rows[c][c]) for x in rows[c][d:]] for c in range(d)
        ]
        g = gcd(den, *(x for row in inverse for x in row))
        inverse = tuple(tuple(x // g for x in row) for row in inverse)
        cokernel = tuple(tuple(row[d:]) for row in rows[d:])
        self._set(basis=cols, _inverse=inverse, _denominator=den // g, _cokernel=cokernel)

    @property
    def ambient_dim(self) -> int:
        return len(self.basis[0])

    @property
    def rank(self) -> int:
        return len(self.basis)

    @staticmethod
    def standard(n: int) -> "LatticeBasis":
        return LatticeBasis(tuple(tuple(int(i == j) for i in range(n)) for j in range(n)))

    def coordinates(self, v: Sequence[Q]) -> Tuple[int, ...]:
        """Integer coordinates of v in this lattice.

        Raises StructureError if v has the wrong length, SpanError if it is
        outside the rational span, and LatticeMembershipError if the
        coordinates are not integral.
        """
        if len(v) != self.ambient_dim:
            raise StructureError("vector dimension differs from ambient")
        (w,), den = _over_one_denominator([v])
        if any(_dot(row, w) for row in self._cokernel):
            raise SpanError("vector outside the rational span of the basis")
        scale = self._denominator * den
        sums = [_dot(row, w) for row in self._inverse]
        if any(s % scale for s in sums):
            sol = [Q(s, scale) for s in sums]
            raise LatticeMembershipError(
                f"vector {tuple(v)} is not in the lattice (coords {sol})"
            )
        return tuple(s // scale for s in sums)

    def index_of_sublattice(self, sub: "LatticeBasis") -> int:
        """Index [self : sub] for a finite-index sublattice of the same rank."""
        if sub.rank != self.rank:
            raise StructureError("sublattice of different rank")
        # |det| of the square coordinate matrix: its invariant factors' product.
        return prod(snf_invariant_factors([self.coordinates(c) for c in sub.basis]))


class VectorConfig(FrozenRecord):
    """Ordered vectors in an ambient rational space, with a reference lattice."""

    __slots__ = _fields = ("vectors", "lattice", "coord_matrix")

    def __init__(self, vectors: Sequence[Vector], lattice: LatticeBasis):
        vecs = tuple(map(tuple, vectors))
        # Columns of the coordinate matrix are lattice coordinates of vectors;
        # length and membership are enforced here once and for all.
        coords = tuple(lattice.coordinates(v) for v in vecs)
        self._set(vectors=vecs, lattice=lattice, coord_matrix=coords)

    def __reduce__(self):
        return VectorConfig, (self.vectors, self.lattice)

    def __len__(self) -> int:
        return len(self.vectors)


class SubsetStats(NamedTuple):
    rank: int
    multiplicity: int


# One (stats, counts[k] of k-element subsets B) pair per (rank, m(B)) class.
Census = List[Tuple[SubsetStats, List[int]]]


# ----------------------------------------------------------------------
# exact linear algebra over Z and Q


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


def _hnf_add(
    rows: Tuple[Tuple[int, ...], ...], v: Sequence[int]
) -> Tuple[Tuple[int, ...], ...]:
    """Canonical row HNF of the lattice generated by `rows` and `v`.

    `rows` is itself a canonical HNF: echelon form, positive pivots, pivot
    columns increasing, entries above each pivot reduced into [0, pivot).
    The pivot columns and pivot values of an echelon basis depend only on
    the lattice, so the reduced form is unique and serves as its key.

    One walk down the rows finds each row's pivot and reduces v there while
    the pivot divides it, which changes no row.  It has two exits.  A
    member, where v reaches 0, gets `rows` itself back.  An insert, where v
    leads at a column with no pivot, puts v there, its lead made positive
    and reduced at the pivots below; a row above changes only if v reduces
    its entry in that column, and is then reduced again at the pivots below,
    and every other row keeps its tuple.  Where a pivot does not divide v's
    entry, a merge step runs Euclid on that row and v.  The row is taken
    out, which leaves a canonical HNF; the vector holding the gcd goes in by
    the insert; and the rest, 0 up to that column, walks again.  Each walk
    leads at a later column, so there are at most d of them.
    """
    while True:
        c = 0  # v and every row from i on are 0 before column c
        for i, row in enumerate(rows):
            while not (row[c] or v[c]):
                c += 1
            p, x = row[c], v[c]
            if not p or x % p:
                break
            if x:
                q = x // p
                v = [a - q * b for a, b in zip(v, row)]
            c += 1
        else:
            i = len(rows)
            if not any(v):
                return rows
            while not v[c]:
                c += 1
        lead = c
        h = v
        merge = i < len(rows) and rows[i][lead]
        if merge:
            # Euclid on the row and v: h gets the gcd at lead, v a 0.
            h = rows[i]
            while v[lead]:
                q = h[lead] // v[lead]
                h, v = v, [x - q * y for x, y in zip(h, v)]
            rows = rows[:i] + rows[i + 1 :]
        if h[lead] < 0:
            h = [-x for x in h]
        below = rows[i:]
        pivots = []
        for row in below:
            c += 1
            while not row[c]:
                c += 1
            pivots.append(c)
            q = h[c] // row[c]
            if q:
                h = [a - q * b for a, b in zip(h, row)]
        top = []
        p = h[lead]
        for a in rows[:i]:
            q = a[lead] // p
            if q:
                a = [x - q * y for x, y in zip(a, h)]
                for row, c in zip(below, pivots):
                    q = a[c] // row[c]
                    if q:
                        a = [x - q * y for x, y in zip(a, row)]
                a = tuple(a)
            top.append(a)
        rows = (*top, tuple(h), *below)
        if not (merge and any(v)):
            return rows


def _key_multiplicity(rows: Sequence[Sequence[int]]) -> int:
    """m(B) read off the canonical HNF key of ZB.

    For a key of k rows, m(B) is the gcd of its k x k minors, which is the
    index in Z^k of the lattice its columns span.  The pivot columns alone
    span a sublattice of index the pivot product, so m(B) divides that
    product: a product of 1 settles it, and so does a square key, whose
    only minor it is.  Otherwise the columns are triangularized by Euclid
    from the last row up, and m(B) is the product of the diagonal.
    """
    pivot_product = 1
    c = 0
    for row in rows:
        while not row[c]:
            c += 1
        pivot_product *= row[c]
        c += 1
    if pivot_product == 1 or len(rows) == len(rows[0]):
        return pivot_product
    cols = list(zip(*rows))
    index = 1
    for _ in rows:
        # The columns are 0 below the current last row; Euclid on that entry
        # leaves one column h holding the gcd, and the others, now ending in
        # 0, lose it.
        h = None
        rest = []
        for col in cols:
            if col[-1]:
                if h is None:
                    h = col
                    continue
                while col[-1]:
                    q = h[-1] // col[-1]
                    h, col = col, [a - q * b for a, b in zip(h, col)]
            rest.append(col[:-1])
        index *= abs(h[-1])
        cols = rest
    return index


def _census_fold(config: VectorConfig) -> Dict[Tuple[Tuple[int, ...], ...], int]:
    """{canonical HNF key of ZB: its packed subset counts}, over every subset B.

    The vectors are folded in one at a time, so the work grows with the
    number of distinct lattices, not with 2^|A|.  counts[k] is digit k of
    base 2^(n+1), so folding in a vector adds the counts shifted one digit
    up; no digit carries, as counts[k] <= C(n, k) < 2^(n+1).  Keys and counts
    are parallel lists with one {key: index} map, so a member, whose key
    `_hnf_add` returns itself, is counted with no hash.  Refuses more than
    DEFAULT_CAPACITY vectors.
    """
    n = len(config)
    if n > DEFAULT_CAPACITY:
        raise CapacityError(
            f"{n} vectors exceeds the census capacity guard of {DEFAULT_CAPACITY}"
        )
    width = n + 1
    keys: List[Tuple[Tuple[int, ...], ...]] = [()]
    counts = [1]
    index = {(): 0}
    for v in config.coord_matrix:
        for j, (key, c) in enumerate(zip(keys, counts.copy())):
            t = _hnf_add(key, v)
            c <<= width
            if t is key:
                counts[j] += c
            elif (at := index.setdefault(t, len(keys))) < len(keys):
                counts[at] += c
            else:
                keys.append(t)
                counts.append(c)
    return dict(zip(keys, counts))


def sublattice_census(config: VectorConfig) -> Census:
    """Every (rank, m(B)) class of the subsets B of the configuration.

    M(x, y) reads B only through |B|, r(B) and m(B), so the lattices of
    `_census_fold` are grouped by rank and m(B), read once off each key.
    Their packed counts are added as ints and unpacked once per class into
    counts[k], its number of k-element subsets.  No digit carries: each
    k-subset generates one lattice, so counts[k] <= C(n, k) < 2^(n+1).
    """
    width = len(config) + 1
    digit = (1 << width) - 1
    classes: Dict[Tuple[int, int], int] = {}
    for rows, packed in _census_fold(config).items():
        rank_m = len(rows), _key_multiplicity(rows)
        classes[rank_m] = classes.get(rank_m, 0) + packed
    return [
        (SubsetStats(*rank_m), [packed >> width * k & digit for k in range(width)])
        for rank_m, packed in classes.items()
    ]


def multiplicity_lcm(config: VectorConfig) -> int:
    """lcm of m(B) over the census's (rank, m) classes (its guard applies)."""
    return lcm(*(stats.multiplicity for stats, _ in sublattice_census(config)))
