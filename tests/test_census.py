"""The lattice-state census against a raw per-subset sweep.

`sweep` is the oracle: one `subset_stats` call (one Smith normal form) for
each of the 2^|A| subsets, summed straight from the definition of M(x, y).
"""

from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import configs
from tuttekit.lattice import (
    VectorConfig,
    multiplicity_lcm,
    sublattice_census,
    subset_stats,
)
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.tutte import (
    TUTTE_VARS,
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
)

XM1 = MultiPoly(TUTTE_VARS, {(1, 0): 1, (0, 0): -1})
YM1 = MultiPoly(TUTTE_VARS, {(0, 1): 1, (0, 0): -1})


def sweep(config):
    """(arithmetic M, classical T, lcm of m(B)) from every subset in turn."""
    n = len(config)
    subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
    stats = [(subset_stats(config, b), len(b)) for b in subsets]
    full_rank = stats[-1][0].rank
    grouped = {}  # (rank, size) -> [sum of m(B), number of subsets]
    for s, size in stats:
        entry = grouped.setdefault((s.rank, size), [0, 0])
        entry[0] += s.multiplicity
        entry[1] += 1
    arithmetic = MultiPoly.zero(TUTTE_VARS)
    classical = MultiPoly.zero(TUTTE_VARS)
    for (rank, size), (mult_sum, count) in grouped.items():
        term = XM1 ** (full_rank - rank) * YM1 ** (size - rank)
        arithmetic = arithmetic + term * mult_sum
        classical = classical + term * count
    return arithmetic, classical, lcm(*(s.multiplicity for s, _ in stats))


class TestAgainstSweep:
    @given(configs())
    @settings(max_examples=80, deadline=None)
    def test_random_configurations(self, config):
        arithmetic, classical, lcm_all = sweep(config)
        assert arithmetic_tutte_bruteforce(config).poly == arithmetic
        assert classical_tutte_bruteforce(config).poly == classical
        assert multiplicity_lcm(config) == lcm_all

    @pytest.mark.parametrize(
        "family,n,kind",
        [
            (family, n, kind)
            for family, ns in (
                ("A", (2, 3, 4)), ("B", (2, 3)), ("C", (2, 3)), ("D", (3, 4))
            )
            for n in ns
            for kind in ("integer", "root", "weight")
        ],
    )
    def test_root_systems_up_to_12_vectors(self, family, n, kind):
        config = build_config(RootSystemSpec(family, n, kind))
        arithmetic, classical, lcm_all = sweep(config)
        assert arithmetic_tutte_bruteforce(config).poly == arithmetic
        assert classical_tutte_bruteforce(config).poly == classical
        assert multiplicity_lcm(config) == lcm_all


class TestCensus:
    @given(configs())
    @settings(max_examples=40, deadline=None)
    def test_every_subset_counted_once(self, config):
        census = sublattice_census(config)
        n = len(config)
        for k in range(n + 1):
            assert sum(counts[k] for _, counts in census) == comb(n, k)

    def test_states_of_c2_integer(self):
        # {0}, the four lines through the roots, the lattice of even
        # coordinate sum (index 2) and 2Z^2 (index 4) from {2e1, 2e2}.
        census = sublattice_census(build_config(RootSystemSpec("C", 2, "integer")))
        assert sorted((s.rank, s.multiplicity) for s, _ in census) == [
            (0, 1), (1, 1), (1, 1), (1, 2), (1, 2), (2, 2), (2, 4)
        ]


class TestSymmetries:
    @given(configs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_permuting_and_negating_keep_m(self, config, data):
        n = len(config)
        order = data.draw(st.permutations(range(n)))
        flip = data.draw(st.integers(0, n - 1))
        vectors = [config.vectors[i] for i in order]
        vectors[flip] = tuple(-x for x in vectors[flip])
        moved = VectorConfig(vectors=tuple(vectors), lattice=config.lattice)
        assert (
            arithmetic_tutte_bruteforce(moved).poly
            == arithmetic_tutte_bruteforce(config).poly
        )
        assert (
            classical_tutte_bruteforce(moved).poly
            == classical_tutte_bruteforce(config).poly
        )
