from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import int_matrices
from tuttekit.errors import CapacityError, LatticeMembershipError, SpanError
from tuttekit.lattice import (
    DEFAULT_CAPACITY,
    LatticeBasis,
    VectorConfig,
    int_matrix_rank,
    multiplicity_lcm,
    snf_invariant_factors,
    subset_stats,
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
