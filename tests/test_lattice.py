from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_refused, configs, int_matrices
from oracles import subset_stats
from tuttekit.errors import (
    CapacityError,
    LatticeMembershipError,
    SpanError,
    StructureError,
)
from tuttekit.lattice import (
    DEFAULT_CAPACITY,
    LatticeBasis,
    VectorConfig,
    int_matrix_rank,
    multiplicity_lcm,
    snf_invariant_factors,
)


def V(*coords):
    return tuple(Q(c) for c in coords)


class TestSmithNormalForm:
    def test_diagonal_example(self):
        assert snf_invariant_factors([[2, 0], [0, 3]]) == [1, 6]

    def test_textbook_example(self):
        assert snf_invariant_factors([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [
            2,
            2,
            156,
        ]

    def test_empty_and_zero(self):
        assert snf_invariant_factors([]) == []
        assert snf_invariant_factors([[0, 0], [0, 0]]) == []

    def test_single_vector_multiplicity(self):
        assert snf_invariant_factors([[2], [0]]) == [2]
        assert snf_invariant_factors([[1], [1]]) == [1]

    @given(int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_divisibility_chain(self, m):
        factors = snf_invariant_factors(m)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert len(factors) == int_matrix_rank(m)

    @given(int_matrices(max_dim=3, max_entry=5))
    @settings(max_examples=40, deadline=None)
    def test_row_operations_preserve_factors(self, m):
        if len(m) < 2:
            return
        factors = snf_invariant_factors(m)
        # Add the first row to the second (a unimodular operation).
        m2 = [row[:] for row in m]
        m2[1] = [a + b for a, b in zip(m2[1], m2[0])]
        assert snf_invariant_factors(m2) == factors
        # Swap two rows.
        m3 = [row[:] for row in m]
        m3[0], m3[1] = m3[1], m3[0]
        assert snf_invariant_factors(m3) == factors


class TestLatticeBasis:
    def test_entries_kept_as_given(self):
        assert LatticeBasis.standard(2).basis == ((1, 0), (0, 1))
        assert {type(x) for col in LatticeBasis.standard(3).basis for x in col} == {int}
        half = LatticeBasis(((1, 0), (Q(1, 2), 1)))
        assert [type(x) for x in half.basis[1]] == [Q, int]

    def test_standard_coordinates(self):
        lat = LatticeBasis.standard(3)
        assert lat.coordinates(V(1, -2, 5)) == (1, -2, 5)

    def test_non_integer_coordinates_rejected(self):
        lat = LatticeBasis((V(2, 0), V(0, 1)))
        with pytest.raises(LatticeMembershipError):
            lat.coordinates(V(1, 0))

    def test_outside_span_rejected(self):
        lat = LatticeBasis((V(1, 0, 0),))
        with pytest.raises(SpanError):
            lat.coordinates(V(0, 1, 0))

    def test_sublattice_index(self):
        ambient = LatticeBasis.standard(2)
        even_sum = LatticeBasis((V(1, -1), V(0, 2)))
        assert ambient.index_of_sublattice(even_sum) == 2

    def test_half_integer_basis(self):
        half = LatticeBasis((V(1, 0), V(Q(1, 2), Q(1, 2))))
        assert half.coordinates(V(Q(1, 2), Q(1, 2))) == (0, 1)
        assert half.coordinates(V(1, 1)) == (0, 2)


class TestVectorConfig:
    def test_coordinate_matrix_in_sublattice(self):
        even = LatticeBasis((V(1, -1), V(0, 2)))
        cfg = VectorConfig(vectors=(V(1, 1), V(2, 0)), lattice=even)
        assert cfg.coord_matrix == ((1, 1), (2, 1))

    def test_subset_stats_multiplicity(self):
        cfg = VectorConfig(
            vectors=(V(2, 0), V(0, 2), V(1, 1)),
            lattice=LatticeBasis.standard(2),
        )
        assert subset_stats(cfg, [0]).multiplicity == 2
        assert subset_stats(cfg, [0, 1]).multiplicity == 4
        assert subset_stats(cfg, [2]).multiplicity == 1
        assert subset_stats(cfg, []).rank == 0

    def test_multiplicity_lcm(self):
        cfg = VectorConfig(
            vectors=(V(2, 0), V(0, 3)), lattice=LatticeBasis.standard(2)
        )
        assert multiplicity_lcm(cfg) == 6

    def test_multiplicity_lcm_capacity_guard(self):
        # The guard is the census's: DEFAULT_CAPACITY vectors pass, one more fails.
        vecs = tuple(V(1, 0) for _ in range(DEFAULT_CAPACITY + 1))
        plane = LatticeBasis.standard(2)
        assert multiplicity_lcm(VectorConfig(vectors=vecs[1:], lattice=plane)) == 1
        cfg = VectorConfig(vectors=vecs, lattice=plane)
        with pytest.raises(CapacityError):
            multiplicity_lcm(cfg)


# ----------------------------------------------------------------------
# coordinates against the per-vector Fraction solve they replaced


def oracle_solve(columns, v):
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


def oracle_coordinates(lattice, v):
    sol = oracle_solve(lattice.basis, tuple(Q(x) for x in v))
    if any(c.denominator != 1 for c in sol):
        raise LatticeMembershipError(
            f"vector {tuple(v)} is not in the lattice (coords {sol})"
        )
    return tuple(int(c) for c in sol)


def outcome(coordinates, *args):
    """The coordinates, or the error type and message they raise."""
    try:
        return coordinates(*args)
    except (SpanError, LatticeMembershipError) as exc:
        return type(exc), str(exc)


@st.composite
def bases_and_vectors(draw):
    """A random full-rank rational basis of Q^d inside Q^m, and a vector there.

    The vector is half the time an integer or half-integer combination of the
    columns and half the time any rational vector, so every outcome occurs.
    """
    m = draw(st.integers(1, 4))
    d = draw(st.integers(1, m))
    entries = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2, 3]))
    basis = draw(st.lists(st.tuples(*[entries] * m), min_size=d, max_size=d))
    try:
        lattice = LatticeBasis(tuple(basis))
    except StructureError:
        assume(False)
    if draw(st.booleans()):
        halves = st.builds(Q, st.integers(-4, 4), st.sampled_from([1, 2]))
        coeffs = draw(st.lists(halves, min_size=d, max_size=d))
        v = tuple(sum(c * col[i] for c, col in zip(coeffs, basis)) for i in range(m))
    else:
        v = draw(st.tuples(*[entries] * m))
    return lattice, v


class TestCoordinatesAgainstOracle:
    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_configs(self, config):
        for v in config.vectors:
            assert config.lattice.coordinates(v) == oracle_coordinates(config.lattice, v)

    @given(bases_and_vectors())
    @settings(max_examples=300, deadline=None)
    def test_random_bases(self, case):
        lattice, v = case
        assert outcome(lattice.coordinates, v) == outcome(oracle_coordinates, lattice, v)

    def test_triangular_half_integer_basis(self):
        lattice = LatticeBasis(
            (V(2, 0, 0), V(Q(1, 2), 1, 0), V(Q(-1, 2), Q(1, 2), 3))
        )
        for v in (V(Q(5, 2), 1, 0), V(0, Q(1, 2), 3), V(1, 0, 0), V(0, 0, 1)):
            assert outcome(lattice.coordinates, v) == outcome(oracle_coordinates, lattice, v)
        assert lattice.coordinates(V(Q(-1, 2), Q(1, 2), 3)) == (0, 0, 1)
        assert lattice.coordinates(V(Q(5, 2), 1, 0)) == (1, 1, 0)
        with pytest.raises(LatticeMembershipError):
            lattice.coordinates(V(1, 0, 0))

    def test_one_column_in_three_dimensions(self):
        line = LatticeBasis((V(2, Q(1, 2), -1),))
        assert line.coordinates(V(-6, Q(-3, 2), 3)) == (-3,)
        assert line.coordinates(V(0, 0, 0)) == (0,)
        with pytest.raises(LatticeMembershipError) as not_member:
            line.coordinates(V(1, Q(1, 4), Q(-1, 2)))
        assert str(not_member.value) == str(
            outcome(oracle_coordinates, line, V(1, Q(1, 4), Q(-1, 2)))[1]
        )
        for off_line in (V(2, Q(1, 2), 0), V(0, 0, 1), V(1, 1, 1)):
            with pytest.raises(SpanError):
                line.coordinates(off_line)


def combination(columns, coeffs):
    """sum coeffs[j] * columns[j], one entry per ambient coordinate."""
    m = len(columns[0])
    return tuple(sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(m))


class TestIntegerElimination:
    @given(configs(), st.lists(st.integers(-50, 50), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_coordinates_of_integer_combinations(self, config, coeffs):
        basis = config.lattice.basis
        c = tuple(coeffs[: len(basis)])
        assert config.lattice.coordinates(combination(basis, c)) == c
        with pytest.raises(LatticeMembershipError):
            config.lattice.coordinates(tuple(Q(x, 2) for x in basis[0]))

    @given(configs(), st.lists(st.integers(-50, 50), min_size=2, max_size=2))
    @settings(max_examples=80, deadline=None)
    def test_outside_a_rank_deficient_span(self, config, coeffs):
        # The last basis column is outside the span of the others.
        basis = config.lattice.basis
        smaller = LatticeBasis(basis[:-1])
        c = tuple(coeffs[: len(basis) - 1])
        inside = combination(basis[:-1], c)
        assert smaller.coordinates(inside) == c
        with pytest.raises(SpanError):
            smaller.coordinates(tuple(a + b for a, b in zip(inside, basis[-1])))


REFUSALS = {
    "empty basis": (lambda: LatticeBasis(()), StructureError, "empty lattice basis"),
    "ragged basis": (
        lambda: LatticeBasis((V(1, 0), V(1))),
        StructureError,
        "basis columns of unequal length",
    ),
    "index of a lower rank": (
        lambda: LatticeBasis.standard(2).index_of_sublattice(LatticeBasis.standard(1)),
        StructureError,
        "sublattice of different rank",
    ),
    # `coordinates` checks the length, so a basis of another space is
    # refused rather than read off its first entries.
    "index in another space": (
        lambda: LatticeBasis.standard(2).index_of_sublattice(
            LatticeBasis((V(1, 0, 0), V(1, 0, 1)))
        ),
        StructureError,
        "vector dimension differs from ambient",
    ),
    "index of a rank-3 lattice in Q^4": (
        lambda: LatticeBasis.standard(3).index_of_sublattice(
            LatticeBasis((V(2, 0, 0, 0), V(0, 2, 0, 0), V(0, 0, 2, 0)))
        ),
        StructureError,
        "vector dimension differs from ambient",
    ),
    "coordinates of a longer vector": (
        lambda: LatticeBasis.standard(3).coordinates(V(0, 0, 2, 5)),
        StructureError,
        "vector dimension differs from ambient",
    ),
    "coordinates of a shorter vector": (
        lambda: LatticeBasis.standard(3).coordinates(V(1, 2)),
        StructureError,
        "vector dimension differs from ambient",
    ),
    "vector of another space": (
        lambda: VectorConfig((V(1, 0),), LatticeBasis.standard(3)),
        StructureError,
        "vector dimension differs from ambient",
    ),
    # Entries are ints or Fractions, kept as given; a float is refused.
    "float basis entry": (
        lambda: LatticeBasis(((0.5, 0), V(0, 1))),
        StructureError,
        "lattice entries must be ints or Fractions",
    ),
    "float vector entry": (
        lambda: VectorConfig(((1, 0.5),), LatticeBasis.standard(2)),
        StructureError,
        "lattice entries must be ints or Fractions",
    ),
    # A fixed-width int could wrap in the elimination.
    "numpy int entry": (
        lambda: VectorConfig(((np.int64(1), 0),), LatticeBasis.standard(2)),
        StructureError,
        "lattice entries must be ints or Fractions",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])
