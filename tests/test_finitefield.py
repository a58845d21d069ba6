"""Finite-group point counts and interpolation.

`power_table_profile` is the torus enumerator the group count replaced,
its counting kept verbatim as an oracle: over F_p^* it tests
prod t_i^(c_i) = 1 directly, so it shares no counting code with
`_group_histogram`.  It returns {incidence count: number of points}.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import Dict

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_refused, configs, line_configs
from oracles import subset_stats, torsion_exponent_lcm
from tuttekit import finitefield, lattice
from tuttekit.errors import AdmissibilityError, CapacityError, StructureError
from tuttekit.finitefield import (
    DEFAULT_POINT_CAP,
    _enumerate_profile,
    _interpolate,
    _group_histogram,
    _line_sum,
    group_identity_holds,
    is_prime,
    tutte_via_interpolation,
    verify_finite_field_identity,
)
from tuttekit.genfun import GenFunRequest, expand_genfun, extract_coboundary
from tuttekit.lattice import LatticeBasis, VectorConfig, multiplicity_lcm
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.tutte import (
    COBOUNDARY_VARS,
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
    coboundary_from_tutte,
)

_CHUNK_THRESHOLD = 1 << 22
SRC = str(Path(__file__).resolve().parents[1] / "src")


def power_table_profile(
    config: VectorConfig, p: int, point_cap: int = DEFAULT_POINT_CAP
) -> Dict[int, int]:
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    q = p - 1
    d = config.lattice.rank
    if q**d > point_cap:
        raise CapacityError(f"(p-1)^d = {q**d} exceeds point cap {point_cap}")

    if len(config) == 0 or d == 0:
        return {0: q**d}

    # Per-vector power tables: table[i][v-1] = v^(c_i mod q) mod p.
    values = np.arange(1, p, dtype=np.int64)
    tables = []
    for coords in config.coord_matrix:
        axis_tables = [
            np.array([pow(int(v), c % q, p) for v in values], dtype=np.int64)
            for c in coords
        ]
        tables.append(axis_tables)

    counts = np.zeros(q**d, dtype=np.int16)
    for axis_tables in tables:
        # Product over the trailing d-1 axes, then chunk over the first axis
        # to bound peak memory.
        tail = axis_tables[-1]
        for t in reversed(axis_tables[1:-1]):
            tail = (t[:, None] * tail[None, :]).reshape(-1) % p
        if d == 1:
            counts += (axis_tables[0] == 1).astype(np.int16)
            continue
        head = axis_tables[0]
        block = q ** (d - 1)
        if q**d <= _CHUNK_THRESHOLD:
            full = (head[:, None] * tail[None, :]).reshape(-1) % p
            counts += (full == 1).astype(np.int16)
        else:
            for i in range(q):
                chunk = head[i] * tail % p
                counts[i * block : (i + 1) * block] += (chunk == 1).astype(np.int16)

    hist_counts = np.bincount(counts)
    return {h: int(c) for h, c in enumerate(hist_counts) if c}


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports tuttekit from src/."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )


def interpolation_points(config):
    """((r-1)E)^d, the size of the largest group interpolation counts over."""
    r = subset_stats(config, range(len(config))).rank
    return (max(r - 1, 0) * torsion_exponent_lcm(config)) ** config.lattice.rank


def counted_groups(monkeypatch):
    """The list of every q that `_group_histogram` is called with, from now on."""
    seen = []
    count = finitefield._group_histogram

    def spy(config, q):
        seen.append(q)
        return count(config, q)

    monkeypatch.setattr(finitefield, "_group_histogram", spy)
    return seen


def cfg(family, n, kind):
    return build_config(RootSystemSpec(family, n, kind))


class TestPrimes:
    def test_is_prime(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


class TestTorusProfile:
    def test_histogram_total_is_torus_size(self):
        c = cfg("C", 2, "integer")
        assert sum(_enumerate_profile(c, 5).values()) == 4**2

    def test_inadmissible_prime_refused(self):
        c = cfg("C", 2, "integer")  # multiplicity lcm 4
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        with pytest.raises(AdmissibilityError):
            verify_finite_field_identity(c, 7, psi)  # 4 does not divide 6

    def test_claimed_divisor_must_be_a_multiple_of_the_lcm(self, monkeypatch):
        # Only B = {(4, 0)} has m(B) = 4; every other subset has m(B) = 1,
        # so sampling subsets would almost never see the 4.
        vectors = ((4, 0),) + ((1, 0),) * 19
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        assert multiplicity_lcm(c) == 4
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))

        def refuse(*_):
            raise AssertionError("counted at an inadmissible prime")

        monkeypatch.setattr(finitefield, "_group_histogram", refuse)
        with pytest.raises(AdmissibilityError):
            verify_finite_field_identity(c, 3, psi)  # q = 2 is not a multiple of 4

    def test_composite_field_size_refused(self):
        with pytest.raises(AdmissibilityError, match="^9 is not prime$"):
            _enumerate_profile(cfg("C", 2, "integer"), 9)

    def test_identity_checks_primality_before_the_census(self, monkeypatch):
        # (3) in Z has L = 3, which divides 9 - 1 = 8 only if 9 were prime.
        c = VectorConfig(vectors=((3,),), lattice=LatticeBasis.standard(1))
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        censuses = []
        census = lattice.sublattice_census

        def spy(config):
            censuses.append(config)
            return census(config)

        monkeypatch.setattr(lattice, "sublattice_census", spy)
        with pytest.raises(AdmissibilityError, match="^9 is not prime$"):
            verify_finite_field_identity(c, 9, psi)
        assert censuses == []

    @pytest.mark.parametrize("q", [0, -2])
    def test_group_order_below_1_refused(self, q):
        c = cfg("C", 2, "integer")
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        with pytest.raises(AdmissibilityError, match=f"^q = {q} is not a group order"):
            group_identity_holds(c, q, psi)

    def test_psi_of_rank_past_the_lattice_rank_refused(self, monkeypatch):
        # q^(d - r) would be a float below 1: at q = 2 this psi of B3 gave
        # {1: 1.0, 2: 0.5, 4: 0.5}.  A psi of rank d still counts.
        c = cfg("B", 2, "integer")
        assert group_identity_holds(c, 2, coboundary_from_tutte(arithmetic_tutte_bruteforce(c)))
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(cfg("B", 3, "integer")))

        def refuse(*_):
            raise AssertionError("counted past the rank check")

        monkeypatch.setattr(finitefield, "_group_histogram", refuse)
        assert_refused(
            lambda: group_identity_holds(c, 2, psi),
            StructureError,
            "psi has rank 3, past the lattice rank 2",
        )

    def test_point_cap(self, monkeypatch):
        c = cfg("B", 3, "integer")
        monkeypatch.setattr(finitefield, "DEFAULT_POINT_CAP", 10)
        with pytest.raises(CapacityError):
            _enumerate_profile(c, 11)


class TestIdentity:
    @pytest.mark.parametrize(
        "family,n,kind,primes",
        [
            ("C", 2, "integer", (5, 13)),
            ("C", 2, "root", (3, 5)),
            ("B", 2, "weight", (5, 13)),
            ("A", 3, "root", (5, 7)),
            ("D", 3, "weight", (5, 13)),
        ],
    )
    def test_two_admissible_primes(self, family, n, kind, primes):
        c = cfg(family, n, kind)
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        for p in primes:
            assert verify_finite_field_identity(c, p, psi)

    def test_wrong_polynomial_detected(self):
        c = cfg("C", 2, "integer")
        wrong = coboundary_from_tutte(arithmetic_tutte_bruteforce(cfg("B", 2, "integer")))
        assert not verify_finite_field_identity(c, 5, wrong)


class TestClassicalMode:
    # A subset B vanishes at q^(d-r(B)) |Hom(T_B, Z/q)| points of (Z/q)^d,
    # T_B of order m(B): the classical count q^(d-r(B)) for every B when q
    # is prime to the multiplicity lcm L.
    @pytest.mark.parametrize("q", [2, 4, 6])
    def test_type_a_any_q(self, q):
        c = cfg("A", 3, "integer")
        psi = coboundary_from_tutte(classical_tutte_bruteforce(c))
        assert group_identity_holds(c, q, psi)

    def test_classical_equals_arithmetic_when_unimodular(self):
        c = cfg("A", 3, "integer")
        classical = classical_tutte_bruteforce(c)
        arithmetic = arithmetic_tutte_bruteforce(c)
        assert classical.poly == arithmetic.poly

    # Holds at q prime to L, and not at q sharing a factor with it: q = 3
    # is one where q + 1 is not prime.
    @pytest.mark.parametrize(
        "family,n,kind,lcm,holds,fails",
        [
            ("C", 2, "integer", 4, (3, 5), (2, 4, 6)),
            ("A", 5, "weight", 5, (6, 12), (5, 10)),
        ],
    )
    def test_holds_exactly_at_q_prime_to_the_lcm(self, family, n, kind, lcm, holds, fails):
        c = cfg(family, n, kind)
        assert multiplicity_lcm(c) == lcm
        psi = coboundary_from_tutte(classical_tutte_bruteforce(c))
        for q in holds:
            assert group_identity_holds(c, q, psi), q
        for q in fails:
            assert not group_identity_holds(c, q, psi), q


class TestInterpolation:
    @pytest.mark.parametrize(
        "family,n,kind",
        [("C", 2, "integer"), ("B", 3, "weight"), ("A", 4, "weight"), ("D", 3, "root")],
    )
    def test_matches_bruteforce(self, family, n, kind):
        c = cfg(family, n, kind)
        assert (
            tutte_via_interpolation(c).poly == arithmetic_tutte_bruteforce(c).poly
        )

    def test_reaches_a7_root(self):
        c = cfg("A", 7, "root")  # 21 vectors, past the old 20-vector lcm guard
        assert tutte_via_interpolation(c).poly == arithmetic_tutte_bruteforce(c).poly

    def test_samples_multiples_of_the_lcm(self, monkeypatch):
        # C2 integer: L = 4 but E = 2, r = 2.  The X^2 and X^1 rows are
        # known, so rE = 4 is not counted.
        seen = counted_groups(monkeypatch)
        tutte_via_interpolation(cfg("C", 2, "integer"))
        assert seen == [2]

    def test_one_fold_and_smith_forms_of_rank_r_keys_only(self, monkeypatch):
        # One census fold gives the keys, hence r and E; only the rank-r
        # keys get a Smith normal form, and no multiplicity is read off a
        # key.
        systems = [cfg("C", 3, "integer"), cfg("A", 4, "weight")]
        expected = [arithmetic_tutte_bruteforce(c).poly for c in systems]
        fold, snf = lattice._census_fold, lattice.snf_invariant_factors
        folds, smith_forms = [], []

        def fold_spy(config):
            folds.append(config)
            return fold(config)

        def snf_spy(rows):
            smith_forms.append(rows)
            return snf(rows)

        def refuse(*_):
            raise AssertionError("multiplicity read off a key")

        for module in (lattice, finitefield):
            monkeypatch.setattr(module, "_census_fold", fold_spy)
            monkeypatch.setattr(module, "snf_invariant_factors", snf_spy)
        monkeypatch.setattr(lattice, "_key_multiplicity", refuse)
        for c, poly in zip(systems, expected):
            del folds[:], smith_forms[:]
            assert tutte_via_interpolation(c).poly == poly
            assert folds == [c]
            r = c.lattice.rank  # both span their lattice
            assert sorted(smith_forms) == sorted(k for k in fold(c) if len(k) == r)

    def test_point_cap_checked_before_counting(self, monkeypatch):
        c = cfg("C", 2, "integer")  # largest group (Z/2)^2
        monkeypatch.setattr(finitefield, "DEFAULT_POINT_CAP", 4)
        tutte_via_interpolation(c)

        def refuse(*_):
            raise AssertionError("counted past the point cap")

        monkeypatch.setattr(finitefield, "_group_histogram", refuse)
        monkeypatch.setattr(finitefield, "DEFAULT_POINT_CAP", 3)
        with pytest.raises(CapacityError):
            tutte_via_interpolation(c)

    def test_histogram_not_a_multiple_of_the_scale_is_refused(self, monkeypatch):
        # 2 e1 and e2 in Z^3: E = 2, r = 2 and d - r = 1, so the one count,
        # at q = 2, must be a multiple of 2.
        vectors = ((2, 0, 0), (0, 1, 0))
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(3))
        assert tutte_via_interpolation(c).poly == arithmetic_tutte_bruteforce(c).poly
        count = finitefield._group_histogram

        def perturbed(config, q):
            histogram = count(config, q)
            histogram[0] = histogram.get(0, 0) + 1
            return histogram

        monkeypatch.setattr(finitefield, "_group_histogram", perturbed)
        with pytest.raises(AdmissibilityError, match="not integral"):
            tutte_via_interpolation(c)

    @pytest.mark.parametrize(
        "vectors",
        [((0, 0), (1, 2)), ((2, 0), (0, 0), (1, 3), (0, 0))],
        ids=["one zero vector", "two zero vectors"],
    )
    def test_zero_vectors(self, vectors):
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        assert tutte_via_interpolation(c) == arithmetic_tutte_bruteforce(c)

    @pytest.mark.parametrize(
        "vectors", [((0, 0), (0, 0)), ()], ids=["only zero vectors", "empty"]
    )
    def test_rank_0_counts_nothing(self, vectors, monkeypatch):
        # r = 0: psi = Y^z is the known term alone.
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        expected = arithmetic_tutte_bruteforce(c)
        seen = counted_groups(monkeypatch)
        assert tutte_via_interpolation(c) == expected
        assert seen == []

    @pytest.mark.parametrize(
        "vectors,d",
        [(((2, 4), (-1, -2), (0, 0), (3, 6), (1, 2)), 2), (((4,), (6,), (0,)), 1)],
        ids=["one line in Z^2", "Z^1"],
    )
    def test_rank_1_counts_nothing(self, vectors, d, monkeypatch):
        # r = 1: the X^1 and X^0 rows are both read off the one line.
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(d))
        expected = arithmetic_tutte_bruteforce(c)
        seen = counted_groups(monkeypatch)
        assert tutte_via_interpolation(c) == expected
        assert seen == []

    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    def test_reaches_c5(self, kind):
        # (rL)^5 = 160^5 or 80^5 points is past the cap; ((r-1)E)^5 = 8^5 is
        # not.
        c = cfg("C", 5, kind)
        assert tutte_via_interpolation(c).poly == arithmetic_tutte_bruteforce(c).poly

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=7),
        st.integers(1, 12),
    )
    @settings(max_examples=200, deadline=None)
    def test_interpolate_round_trips_integer_polynomials(self, coefficients, step):
        ys = [
            sum(c * (k * step) ** i for i, c in enumerate(coefficients))
            for k in range(1, len(coefficients) + 1)
        ]
        assert _interpolate(step, ys) == coefficients

    def test_interpolate_refuses_a_non_integral_polynomial(self):
        # (X - 2) / 2 through (2, 0) and (4, 1); its values are ints.
        with pytest.raises(AdmissibilityError, match="not integral"):
            _interpolate(2, [0, 1])
        # X (X - 1) / 2 is integer-valued on every node, not integral.
        with pytest.raises(AdmissibilityError, match="not integral"):
            _interpolate(1, [0, 1, 3])


class TestTorsionExponent:
    """The engine samples at multiples of E, the lcm of the torsion exponents
    of the rank-r lattices; E is the lcm over every subset."""

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_engine_exponent_is_the_lcm_over_all_subsets(self, config):
        exponent = torsion_exponent_lcm(config)
        r = subset_stats(config, range(len(config))).rank
        d = config.lattice.rank
        assume((max(r, 2) * exponent) ** d <= 100_000)
        assert multiplicity_lcm(config) % exponent == 0
        with pytest.MonkeyPatch.context() as patch:
            seen = counted_groups(patch)
            tutte_via_interpolation(config)
        assert seen == [k * exponent for k in range(1, r)]
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(config))
        assert group_identity_holds(config, exponent, psi)
        assert group_identity_holds(config, 2 * exponent, psi)

    def test_c2_integer(self):
        # E = 2 but L = 4: the identity holds at every even q, and at q = 3
        # the subsets whose torsion is Z/2 vanish on too few points.
        c = cfg("C", 2, "integer")
        assert (torsion_exponent_lcm(c), multiplicity_lcm(c)) == (2, 4)
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(c))
        assert group_identity_holds(c, 2, psi)
        assert group_identity_holds(c, 6, psi)
        assert not group_identity_holds(c, 3, psi)


def assert_leading_term(psi, r, z):
    """psi has X-degree r, and its X^r coefficient is exactly Y^z."""
    rows = psi.poly.rows()
    assert len(rows) == r + 1
    assert rows[r] == [0] * z + [1]


class TestLeadingTerm:
    """The X^r Y^z term that interpolation adds back without counting it,
    read off engines that do not rely on it."""

    @given(configs(), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_bruteforce(self, config, extra_zeros):
        zero = (0,) * len(config.vectors[0])
        vectors = config.vectors + (zero,) * extra_zeros
        c = VectorConfig(vectors=vectors, lattice=config.lattice)
        z = sum(not any(v) for v in c.vectors)
        r = subset_stats(c, range(len(c))).rank
        assert_leading_term(coboundary_from_tutte(arithmetic_tutte_bruteforce(c)), r, z)

    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_genfun_up_to_n_6(self, family, kind):
        series = expand_genfun(GenFunRequest(family, kind, 6))
        low = 2 if family == "D" or (family == "A" and kind != "integer") else 1
        for n in range(low, 7):
            c = cfg(family, n, kind)
            r = subset_stats(c, range(len(c))).rank
            assert_leading_term(extract_coboundary(series, family, n), r, 0)


def line_row(config):
    """The X^(r-1) row the engine reads off the lines: Y^z times `_line_sum`."""
    z = sum(not any(row) for row in config.coord_matrix)
    return [0] * z + _line_sum(config)


class TestLineRow:
    """The X^(r-1) row that interpolation adds back without counting it,
    read off engines that do not rely on it."""

    @given(line_configs())
    @settings(max_examples=100, deadline=None)
    def test_bruteforce(self, config):
        r = subset_stats(config, range(len(config))).rank
        assume(r >= 1)
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(config))
        assert psi.poly.rows()[r - 1] == line_row(config)

    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_genfun_up_to_n_6(self, family, kind):
        series = expand_genfun(GenFunRequest(family, kind, 6))
        # A:1:integer has no vectors, so r = 0 and no X^(r-1) row.
        low = 1 if family in "BC" else 2
        for n in range(low, 7):
            c = cfg(family, n, kind)
            r = subset_stats(c, range(len(c))).rank
            psi = extract_coboundary(series, family, n)
            assert psi.poly.rows()[r - 1] == line_row(c)


class TestRandomConfigurations:
    @given(configs(), st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]))
    @settings(max_examples=60, deadline=None)
    def test_group_count_matches_power_tables(self, config, p):
        expected = power_table_profile(config, p)
        assert _group_histogram(config, p - 1) == expected

    @pytest.mark.parametrize("p", [127, 131, 257])
    def test_moduli_past_the_uint8_range(self, p):
        # Moduli around 2^7 and 2^8: last-axis rows of 16, 17 and 32 bytes,
        # with 2, 6 and 0 padding bits.
        c = cfg("B", 2, "integer")
        assert _group_histogram(c, p - 1) == power_table_profile(c, p)

    @pytest.mark.parametrize("p", [2, 3, 7, 13, 101])
    def test_rank_1_counted_without_stepping(self, p):
        vectors = ((1,), (2,), (-3,), (0,), (6,), (4,))
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(1))
        assert _group_histogram(c, p - 1) == power_table_profile(c, p)

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_interpolation_matches_bruteforce(self, config):
        assume(interpolation_points(config) <= 100_000)
        assert (
            tutte_via_interpolation(config).poly
            == arithmetic_tutte_bruteforce(config).poly
        )

    @given(configs(), st.sampled_from([4, 6]))
    @settings(max_examples=60, deadline=None)
    def test_identity_at_composite_multiples_of_the_lcm(self, config, k):
        q = k * multiplicity_lcm(config)
        d = config.lattice.rank
        assume(q**d <= 100_000)
        psi = coboundary_from_tutte(arithmetic_tutte_bruteforce(config))
        histogram = MultiPoly(
            COBOUNDARY_VARS,
            {(0, h): c for h, c in _group_histogram(config, q).items()},
        )
        at_q = psi.poly.substitute({"X": MultiPoly.const(COBOUNDARY_VARS, q)})
        assert not is_prime(q)
        assert histogram == at_q * q ** (d - psi.rank)

    @given(configs())
    @settings(max_examples=60, deadline=None)
    def test_arithmetic_is_classical_exactly_when_the_lcm_is_1(self, config):
        # M - T = sum_B (m(B) - 1)(x-1)^(r-r(B))(y-1)^(|B|-r(B)) is positive
        # at x = y = 2 as soon as one m(B) exceeds 1.
        same = (
            arithmetic_tutte_bruteforce(config).poly
            == classical_tutte_bruteforce(config).poly
        )
        assert same == (multiplicity_lcm(config) == 1)


class TestCountEdgeCases:
    def test_more_rows_than_a_byte_counts(self):
        vectors = ((1, 2),) * 300 + ((3, 5),) * 10
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        assert _group_histogram(c, 6) == power_table_profile(c, 7)

    @pytest.mark.parametrize("p", [2, 5, 11, 13])
    def test_zero_rows_and_negative_coefficients(self, p):
        vectors = (
            (0, 0, 0), (-1, 2, 0), (3, -4, -5), (0, 0, 0), (-2, -2, 7), (0, -3, 0),
        )
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(3))
        assert _group_histogram(c, p - 1) == power_table_profile(c, p)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_trivial_group(self, d):
        # q = 1: every vector vanishes at the one point.
        vectors = ((1,) * d, (0,) * d, (-2,) + (3,) * (d - 1))
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(d))
        assert _group_histogram(c, 1) == power_table_profile(c, 2) == {3: 1}


class TestPurePython:
    def test_importing_tuttekit_loads_no_numpy(self):
        done = run_python(
            "import sys, tuttekit, tuttekit.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'"
        )
        assert done.returncode == 0, done.stderr

    def test_rank_1_builds_only_residue_0(self):
        # Rows for every residue of one axis would take q^2/8 bytes, 125 GB
        # at q = 10^6.  The child's address space is capped at 1 GiB, so such
        # a count fails with MemoryError instead of exhausting the host.
        done = run_python(
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from tuttekit.finitefield import _group_histogram\n"
            "from tuttekit.lattice import LatticeBasis, VectorConfig\n"
            "c = VectorConfig(vectors=((2,), (3,), (0,)), "
            "lattice=LatticeBasis.standard(1))\n"
            "print(_group_histogram(c, 10**6))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == repr({1: 10**6 - 2, 2: 1, 3: 1}) + "\n"

    def test_live_memory_does_not_grow_with_distinct_rows(self):
        # 25 rows with 25 distinct last coefficients: each needs its own
        # table of axis 1, q^2/8 bytes.  Keeping them all would take 25 times
        # that; only the current row's table may stay alive.
        q = 2000
        vectors = tuple((1, k) for k in range(25))
        c = VectorConfig(vectors=vectors, lattice=LatticeBasis.standard(2))
        tracemalloc.start()
        try:
            histogram = _group_histogram(c, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # As counted by the numpy counter this one replaced.
        assert histogram == {
            0: 3950409, 1: 49376, 2: 132, 3: 48, 4: 4, 5: 20, 6: 6, 7: 2,
            12: 1, 13: 1, 25: 1,
        }
        # Eight masks of q^2/8 bytes; the count itself peaks near 4.5.
        assert peak < 8 * q**2 // 8
