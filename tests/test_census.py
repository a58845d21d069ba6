"""The lattice-state census against a raw per-subset sweep.

`sweep` is the oracle: one `subset_stats` call (one Smith normal form) for
each of the 2^|A| subsets, summed straight from the definition of M(x, y).
`oracle_hnf_add` and `oracle_census` are the census kernel as it was before
its counts were packed into one int per state and its insert learned to
leave member vectors and the rows above the first change alone.
"""

from fractions import Fraction as Q
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import configs
from tuttekit.lattice import (
    DEFAULT_CAPACITY,
    LatticeBasis,
    SubsetStats,
    VectorConfig,
    _hnf_add,
    multiplicity_lcm,
    snf_invariant_factors,
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


# ----------------------------------------------------------------------
# the census kernel against the list-count fold it replaced


def oracle_hnf_add(rows, v):
    """Canonical row HNF of <rows, v>: copy every row, merge v, re-reduce all."""
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


def oracle_census(config):
    """The census with one list of n + 1 counts per state, built by the oracle."""
    n = len(config)
    states = {(): [1] + [0] * n}
    for v in config.coord_matrix:
        grown = {key: counts[:] for key, counts in states.items()}
        for key, counts in states.items():
            target = grown.setdefault(oracle_hnf_add(key, v), [0] * (n + 1))
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


def table(census):
    return sorted((s.rank, s.multiplicity, list(counts)) for s, counts in census)


def int_vectors(d, bound=6):
    return st.tuples(*[st.integers(-bound, bound)] * d)


@st.composite
def keys_and_vectors(draw):
    """(canonical key folded by the oracle from random vectors, a new vector)."""
    d = draw(st.integers(1, 4))
    key = ()
    for v in draw(st.lists(int_vectors(d), max_size=5)):
        key = oracle_hnf_add(key, v)
    return key, draw(int_vectors(d))


class TestKernel:
    @given(keys_and_vectors())
    @settings(max_examples=300, deadline=None)
    def test_insert_matches_the_oracle(self, case):
        key, v = case
        assert _hnf_add(key, v) == oracle_hnf_add(key, v)

    @given(keys_and_vectors(), st.lists(st.integers(-3, 3), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_member_returns_the_key_itself(self, case, coefficients):
        key, v = case
        d = len(v)
        member = [sum(c * row[j] for c, row in zip(coefficients, key)) for j in range(d)]
        assert _hnf_add(key, member) is key
        grown = _hnf_add(key, v)
        assert _hnf_add(grown, v) is grown

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_census_matches_the_list_count_fold(self, config):
        assert table(sublattice_census(config)) == table(oracle_census(config))

    def test_capacity_edge_one_vector(self):
        vecs = tuple((Q(1), Q(0)) for _ in range(DEFAULT_CAPACITY))
        config = VectorConfig(vectors=vecs, lattice=LatticeBasis.standard(2))
        n = DEFAULT_CAPACITY
        assert table(sublattice_census(config)) == [
            (0, 1, [1] + [0] * n),
            (1, 1, [0] + [comb(n, k) for k in range(1, n + 1)]),
        ]

    def test_capacity_edge_many_lattices(self):
        # C5 in Z^5: 25 vectors, 999 lattices; the largest digit is C(25, 12).
        config = build_config(RootSystemSpec("C", 5, "integer"))
        census = sublattice_census(config)
        assert len(config) == DEFAULT_CAPACITY and len(census) == 999
        for k in range(DEFAULT_CAPACITY + 1):
            assert sum(counts[k] for _, counts in census) == comb(DEFAULT_CAPACITY, k)
        assert table(census) == table(oracle_census(config))
