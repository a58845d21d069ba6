"""The lattice-state census against a raw per-subset sweep.

`sweep` is the oracle: one `subset_stats` call (one Smith normal form) for
each of the 2^|A| subsets, summed straight from the definition of M(x, y).
`oracle_hnf_add`, `oracle_fold` and `oracle_census` are the census kernel
as it was before its counts were packed into one int per state and its
insert learned to leave member vectors and the rows above the first change
alone.
"""

from fractions import Fraction as Q
from hashlib import sha256
from math import comb, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import configs
from oracles import lattice_census, subset_stats
from tuttekit import lattice
from tuttekit.errors import StructureError
from tuttekit.lattice import (
    DEFAULT_CAPACITY,
    LatticeBasis,
    SubsetStats,
    VectorConfig,
    _census_fold,
    _hnf_add,
    _key_multiplicity,
    multiplicity_lcm,
    snf_invariant_factors,
    sublattice_census,
)
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config, parse_system
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
        census = lattice_census(build_config(RootSystemSpec("C", 2, "integer")))
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


def oracle_fold(config):
    """{key: list of n + 1 counts} per state, folded by the oracle."""
    n = len(config)
    states = {(): [1] + [0] * n}
    for v in config.coord_matrix:
        grown = {key: counts[:] for key, counts in states.items()}
        for key, counts in states.items():
            target = grown.setdefault(oracle_hnf_add(key, v), [0] * (n + 1))
            for k in range(n):
                target[k + 1] += counts[k]
        states = grown
    return states


def oracle_census(config):
    """The census with one list of n + 1 counts per state, built by the oracle."""
    census = []
    for rows, counts in oracle_fold(config).items():
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
def keys_and_vectors(draw, max_d=4, max_vectors=5):
    """(canonical key folded by the oracle from random vectors, a new vector)."""
    d = draw(st.integers(1, max_d))
    key = ()
    for v in draw(st.lists(int_vectors(d), max_size=max_vectors)):
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
        assert table(lattice_census(config)) == table(oracle_census(config))

    def test_capacity_edge_one_vector(self):
        vecs = tuple((Q(1), Q(0)) for _ in range(DEFAULT_CAPACITY))
        config = VectorConfig(vectors=vecs, lattice=LatticeBasis.standard(2))
        n = DEFAULT_CAPACITY
        assert table(sublattice_census(config)) == [
            (0, 1, [1] + [0] * n),
            (1, 1, [0] + [comb(n, k) for k in range(1, n + 1)]),
        ]

    def test_capacity_edge_many_lattices(self):
        # C5 in Z^5: 25 vectors, 999 lattices; the largest digit, 5,188,390,
        # is near the bound C(25, 12) = 5,200,300.
        config = build_config(RootSystemSpec("C", 5, "integer"))
        census = lattice_census(config)
        assert len(config) == DEFAULT_CAPACITY and len(census) == 999
        for k in range(DEFAULT_CAPACITY + 1):
            assert sum(counts[k] for _, counts in census) == comb(DEFAULT_CAPACITY, k)
        assert table(census) == table(oracle_census(config))


class TestKernelExits:
    """Fixed cases of `_hnf_add`'s two exits and its merge step, and deeper keys.

    A member gets the key itself back; an insert puts v in at a new pivot
    column; a merge step runs Euclid on a row and v, inserts the gcd row and
    walks the rest again, which ends as a member, an insert or a merge.
    """

    @pytest.mark.parametrize(
        "key,v,result",
        [
            # insert above every row, with a negative lead
            (((0, 2, 1), (0, 0, 3)), (-1, 5, 7), ((1, 1, 2), (0, 2, 1), (0, 0, 3))),
            # insert between rows: the row above is reduced, and again below
            (((1, 3, 5), (0, 0, 2)), (0, 1, 4), ((1, 0, 1), (0, 1, 0), (0, 0, 2))),
            # insert below every row
            (((1, 2, 0),), (0, 0, -3), ((1, 2, 0), (0, 0, 3))),
            # merge: the pivot 2 does not divide 3
            (((2, 1),), (3, 0), ((1, 2), (0, 3))),
            # merge, then insert what Euclid leaves of v
            (((2, 0, 0),), (1, 0, 1), ((1, 0, 1), (0, 0, 2))),
            # merge, then the rest is a member
            (((2, 0), (0, 2)), (1, 1), ((1, 1), (0, 2))),
            # merge, then merge again: dropping the rest loses (0, 1)
            (((2, 0), (0, 3)), (1, 1), ((1, 0), (0, 1))),
        ],
    )
    def test_fixed_case(self, key, v, result):
        grown = _hnf_add(key, v)
        assert grown == result == oracle_hnf_add(key, v)
        # Every row that did not change keeps its tuple.
        assert all(any(row is old for old in key) for row in grown if row in key)

    def test_member_returns_the_key_itself(self):
        key = ((1, 0, 1), (0, 0, 2))
        assert _hnf_add(key, (3, 0, 5)) is key == oracle_hnf_add(key, (3, 0, 5))

    @given(keys_and_vectors(max_d=6, max_vectors=7))
    @settings(max_examples=300, deadline=None)
    def test_deep_insert_matches_the_oracle(self, case):
        key, v = case
        assert _hnf_add(key, v) == oracle_hnf_add(key, v)

    @given(
        keys_and_vectors(max_d=6, max_vectors=7),
        st.lists(st.integers(-3, 3), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_deep_member_returns_the_key_itself(self, case, coefficients):
        key, v = case
        d = len(v)
        member = [sum(c * row[j] for c, row in zip(coefficients, key)) for j in range(d)]
        assert _hnf_add(key, member) is key
        grown = _hnf_add(key, v)
        assert _hnf_add(grown, v) is grown


def unpacked_fold(config):
    """`_census_fold` with each packed count unpacked into a list of n + 1."""
    width = len(config) + 1
    digit = (1 << width) - 1
    return {
        key: [packed >> width * k & digit for k in range(width)]
        for key, packed in _census_fold(config).items()
    }


class TestFold:
    """The fold's keys themselves, which the finite-field engine reads."""

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_keys_and_counts_match_the_oracle_fold(self, config):
        fold, oracle = unpacked_fold(config), oracle_fold(config)
        assert list(fold.items()) == list(oracle.items())

    @pytest.mark.parametrize("name", ["A:6:weight", "C:4:root"])
    def test_root_system_keys_match_the_oracle_fold(self, name):
        config = build_config(parse_system(name))
        fold, oracle = unpacked_fold(config), oracle_fold(config)
        assert list(fold.items()) == list(oracle.items())

    def test_past_the_guard_matches_the_oracle_fold(self, monkeypatch):
        # D6 weight: 30 vectors, 2,781 lattices, past the 25-vector guard.
        config = build_config(parse_system("D:6:weight"))
        monkeypatch.setattr(lattice, "DEFAULT_CAPACITY", len(config))
        fold, oracle = unpacked_fold(config), oracle_fold(config)
        assert len(config) == 30 and len(fold) == 2781
        assert list(fold.items()) == list(oracle.items())


def regrouped(census):
    """`table` of a per-lattice census summed into one row per (rank, m)."""
    classes = {}
    for s, counts in census:
        row = classes.get((s.rank, s.multiplicity), [0] * len(counts))
        classes[s.rank, s.multiplicity] = [a + c for a, c in zip(row, counts)]
    return sorted((rank, m, row) for (rank, m), row in classes.items())


def class_census(config):
    """`sublattice_census`, checked to be the regrouped per-lattice census."""
    census = sublattice_census(config)
    pairs = [(s.rank, s.multiplicity) for s, _ in census]
    assert len(set(pairs)) == len(pairs)
    assert table(census) == regrouped(lattice_census(config))
    return census


class TestClasses:
    """One census entry per (rank, m) class: the per-lattice census regrouped."""

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_random_configurations(self, config):
        class_census(config)

    def test_capacity_edge_many_lattices(self):
        # C5 in Z^5: 25 vectors, 999 lattices in 20 classes.  The largest
        # digit, 13-subsets of rank 5 and m = 2, is near the bound C(25, 12).
        config = build_config(parse_system("C:5:integer"))
        census = class_census(config)
        assert len(census) == 20 and len(lattice_census(config)) == 999
        assert max(c for _, counts in census for c in counts) == 5188390
        for k in range(DEFAULT_CAPACITY + 1):
            assert sum(counts[k] for _, counts in census) == comb(DEFAULT_CAPACITY, k)

    def test_past_the_guard(self, monkeypatch):
        # D6 weight: 30 vectors, 2,781 lattices, past the 25-vector guard.
        monkeypatch.setattr(lattice, "DEFAULT_CAPACITY", 30)
        config = build_config(parse_system("D:6:weight"))
        assert len(config) == 30 and len(class_census(config)) == 15

    @pytest.mark.parametrize(
        "name,lattices,classes",
        [
            ("B:4:integer", 164, 9),
            ("C:4:root", 164, 11),
            ("A:6:weight", 203, 9),
            ("D:4:weight", 75, 8),
            ("C:4:weight", 164, 14),
        ],
    )
    def test_census_workload_systems(self, name, lattices, classes):
        # The five systems of the `census` benchmark: 770 lattices, 51 classes.
        config = build_config(parse_system(name))
        assert len(lattice_census(config)) == lattices
        assert len(class_census(config)) == classes


class TestKeyMultiplicity:
    """m(B) off the echelon key against the product of its Smith factors."""

    @given(keys_and_vectors())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_smith_form(self, case):
        key, _ = case
        assert _key_multiplicity(key) == prod(snf_invariant_factors(key))

    @pytest.mark.parametrize(
        "key,m",
        [
            ((), 1),  # rank 0
            (((2, 0), (0, 3)), 6),  # full rank: the pivot product
            (((1, 5, 0), (0, 0, 1)), 1),  # pivot product 1
            (((2, 1),), 1),  # pivot product 2, minors 2 and 1
            (((2, 0, 4), (0, 2, 6)), 4),  # minors 4, 12 and -8
            (((2, 1, 0), (0, 3, 3)), 3),  # minors 6, 6 and 3
        ],
    )
    def test_edge_keys(self, key, m):
        assert _key_multiplicity(key) == m == prod(snf_invariant_factors(key))


# ----------------------------------------------------------------------
# every census the capacity guard admits for n <= 8, pinned by hash

# sha256 of repr(table(census)) for each A/B/C/D system with n <= 8 that
# build_config accepts and that has at most DEFAULT_CAPACITY vectors,
# recorded before the census kernel was rewritten.
CENSUS_SHA256 = {
    "A:1:integer": "3a8b33f385ae2e6d36c1bb06ec827f327b3298a654639926406d2d90d7e8475f",
    "A:2:integer": "7dea05ac13a327066b0918ecc28759f6ac94b414d4834c4ade53d741e14a5ac4",
    "A:2:root": "7dea05ac13a327066b0918ecc28759f6ac94b414d4834c4ade53d741e14a5ac4",
    "A:2:weight": "e7be630f77759758372b7882ecd3e48b942613cb6395565bce4578dfa776b56c",
    "A:3:integer": "d0e4768fe8bfb52e5c487264bc9d7f084670a5b4cb9934f1e87cfba193bc664f",
    "A:3:root": "d0e4768fe8bfb52e5c487264bc9d7f084670a5b4cb9934f1e87cfba193bc664f",
    "A:3:weight": "33dd327136e0d5f4b192586d581428a012afb8bff5e50cb7ab914a06f113f21b",
    "A:4:integer": "1d71cb9649d2835a5f65fc11db92f4ad51f4468d15f7b2f98b40cbfc8a2897ce",
    "A:4:root": "1d71cb9649d2835a5f65fc11db92f4ad51f4468d15f7b2f98b40cbfc8a2897ce",
    "A:4:weight": "881875a5ddf737c2e5987dc12a0d37e7228150d8a336c38c1b497c6eec64840d",
    "A:5:integer": "dce42ff79f3ff2de4b8d623a764add4e6fc81237e56e07a582684c6d17aec2d5",
    "A:5:root": "dce42ff79f3ff2de4b8d623a764add4e6fc81237e56e07a582684c6d17aec2d5",
    "A:5:weight": "52f5dba5f2837a1bf8758fd52cdd6b0d003f2ddc122f546ac3be73e3291e4163",
    "A:6:integer": "a7292e21ecfade5346fc90b85a4e7cfef69a45f4e52398e0c665dee35ea9cc72",
    "A:6:root": "a7292e21ecfade5346fc90b85a4e7cfef69a45f4e52398e0c665dee35ea9cc72",
    "A:6:weight": "03aa8c7dee60843a0cd29e78c401f67960aa6e66139b57ee2510b9264c4f9d42",
    "A:7:integer": "0607d71d6b52b36a15e1d95b35ef88a336f9f5a990ed5a36f311bd0383f68dcc",
    "A:7:root": "0607d71d6b52b36a15e1d95b35ef88a336f9f5a990ed5a36f311bd0383f68dcc",
    "A:7:weight": "6b6168f805e5fd3c4e8cd9f2eed4ee0838820005df9813f584c6a9e217005419",
    "B:1:integer": "7dea05ac13a327066b0918ecc28759f6ac94b414d4834c4ade53d741e14a5ac4",
    "B:1:root": "7dea05ac13a327066b0918ecc28759f6ac94b414d4834c4ade53d741e14a5ac4",
    "B:1:weight": "e7be630f77759758372b7882ecd3e48b942613cb6395565bce4578dfa776b56c",
    "B:2:integer": "1ca7ba92625207bcaf5dd40d7c6f051c91bc852f7d1b978926dc7fbf3e6ac829",
    "B:2:root": "1ca7ba92625207bcaf5dd40d7c6f051c91bc852f7d1b978926dc7fbf3e6ac829",
    "B:2:weight": "13d8fd197c328c563ecae3bb164533b7131acefa42590db040f0391b25fd340c",
    "B:3:integer": "d55a9272c2cd807218a003ffc4bee0be83f249cfd6630f3025dc5585b3927e0a",
    "B:3:root": "d55a9272c2cd807218a003ffc4bee0be83f249cfd6630f3025dc5585b3927e0a",
    "B:3:weight": "492a53b23abc02e367d295558213db24668e3c116ebc0bffd93b0e7a1fa50a6a",
    "B:4:integer": "a7c5fd3c807fb404b725c2ca6263817b5af2a298b68316baa5e9162b0d3ae20d",
    "B:4:root": "a7c5fd3c807fb404b725c2ca6263817b5af2a298b68316baa5e9162b0d3ae20d",
    "B:4:weight": "858d430578c8ea397a7a623873352f933adb074e158b1766caebeadc674396dd",
    "B:5:integer": "9b658b1291ae5838927bc06e38fb31642491b9e6007e1bf437f2388420ec565a",
    "B:5:root": "9b658b1291ae5838927bc06e38fb31642491b9e6007e1bf437f2388420ec565a",
    "B:5:weight": "bf086b080befd95fe12be2f5dd4098e71bb50087de49fb12f2da4f73aac6ed63",
    "C:1:integer": "e7be630f77759758372b7882ecd3e48b942613cb6395565bce4578dfa776b56c",
    "C:1:root": "7dea05ac13a327066b0918ecc28759f6ac94b414d4834c4ade53d741e14a5ac4",
    "C:1:weight": "e7be630f77759758372b7882ecd3e48b942613cb6395565bce4578dfa776b56c",
    "C:2:integer": "13d8fd197c328c563ecae3bb164533b7131acefa42590db040f0391b25fd340c",
    "C:2:root": "1ca7ba92625207bcaf5dd40d7c6f051c91bc852f7d1b978926dc7fbf3e6ac829",
    "C:2:weight": "13d8fd197c328c563ecae3bb164533b7131acefa42590db040f0391b25fd340c",
    "C:3:integer": "63a2ab03259f066defd864afe50cf76b0f564cd6c119fd917561f0fb0d5d9f82",
    "C:3:root": "338de3ab4c95b10d52cfbbdd2e06c373babd2b9ef47376745aa6eeb4e3f91f1b",
    "C:3:weight": "63a2ab03259f066defd864afe50cf76b0f564cd6c119fd917561f0fb0d5d9f82",
    "C:4:integer": "31a54ccee0ab7860e6c4603650b2ea1745b276424180ac05b4151daa74f5f378",
    "C:4:root": "a1146f1702d5367bb8d969ca5c44df64b4f49d6a1e9252c256e9855591d92c70",
    "C:4:weight": "31a54ccee0ab7860e6c4603650b2ea1745b276424180ac05b4151daa74f5f378",
    "C:5:integer": "78a878dfa13cb8f9e4e15b8f22993c6f7c68b08e309520f240e0f90699b5e629",
    "C:5:root": "88101649a13e737d5f8ef214f652e51b2fd9a83726c925815286d0057730b31e",
    "C:5:weight": "78a878dfa13cb8f9e4e15b8f22993c6f7c68b08e309520f240e0f90699b5e629",
    "D:2:integer": "5086cdcf0fefe8663fd3a53118286ed47c2edbf6a99130769f47744319ceeb93",
    "D:2:root": "cd7177796ac8da3f59e1de8a012105b94fda1147446a8408aca32ea71f0e2112",
    "D:2:weight": "ca00d85534377252dc4c5e68f218b966b79e6767a51990ec7b7bf0a79dc76059",
    "D:3:integer": "cd9049d1074e866b10f48f0ed4832e2812a0b56fa79dcbfa9f966c3650239e45",
    "D:3:root": "1d71cb9649d2835a5f65fc11db92f4ad51f4468d15f7b2f98b40cbfc8a2897ce",
    "D:3:weight": "881875a5ddf737c2e5987dc12a0d37e7228150d8a336c38c1b497c6eec64840d",
    "D:4:integer": "81a379ff72818b6a0dee0bda324a3f93ebd86d6f2d93f8679d196cf7b2cb852b",
    "D:4:root": "6a91feeed6eb586ba38484efc29ab74825f9d8cf09588e51cd0f43717d4ab9c5",
    "D:4:weight": "0b59a992aaf43d1196547933930085acdfb13fefad608cfdcacd62ade3f783a7",
    "D:5:integer": "01af87723bce9a9fd77038d9a5eacfd3740eec0ec220854fd5ce4386cfce8180",
    "D:5:root": "21e77dea200c7c36f6d315c03a83563b7ea575105e2cd283d6d85aef77475fe4",
    "D:5:weight": "08e74d096dfbe281a6bd2e3f790970a32e7f7ca2d5875213a4efa302ff5e000c",
}


def census_pin_specs():
    for family in "ABCD":
        for n in range(1, 9):
            for kind in ("integer", "root", "weight"):
                try:
                    config = build_config(RootSystemSpec(family, n, kind))
                except StructureError:
                    continue
                if len(config) <= DEFAULT_CAPACITY:
                    yield f"{family}:{n}:{kind}"


def test_census_pins_cover_every_admitted_system():
    assert list(census_pin_specs()) == list(CENSUS_SHA256)
    assert len(CENSUS_SHA256) == 61


@pytest.mark.parametrize("name", list(CENSUS_SHA256))
def test_census_matches_its_pin(name):
    config = build_config(parse_system(name))
    digest = sha256(repr(table(lattice_census(config))).encode()).hexdigest()
    assert digest == CENSUS_SHA256[name]
