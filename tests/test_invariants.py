from fractions import Fraction as Q
from functools import lru_cache
from math import factorial

import pytest

from conftest import assert_refused
from oracles import (
    char_coeffs_via_permutations,
    necklace_count,
    necklace_count_direct,
    prime_case_characteristic_type_A,
)
from tuttekit.errors import StructureError
from tuttekit.invariants import (
    closed_form_characteristic,
    derive_all,
    weight_characteristic_type_A,
)
from tuttekit.genfun import GenFunRequest, expand_genfun, tutte_from_series
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config, weyl_group_order
from tuttekit.tables import parse_poly_terms
from tuttekit.tutte import TUTTE_VARS, TuttePolynomial, arithmetic_tutte_bruteforce


def tutte(family, n, kind):
    return arithmetic_tutte_bruteforce(build_config(RootSystemSpec(family, n, kind)))


class TestWorkedExample:
    def test_c2_integer(self):
        rep = derive_all(tutte("C", 2, "integer"))
        assert rep.ehrhart == parse_poly_terms("14t^2+6t+1", ("t",))
        assert rep.volume == 14
        assert rep.lattice_points == 21
        assert rep.interior_points == 9
        assert rep.toric_regions == 8
        assert rep.dm_dimension == 14
        assert rep.dpv_dimension == 21

    def test_c2_root(self):
        rep = derive_all(tutte("C", 2, "root"))
        assert rep.ehrhart == parse_poly_terms("7t^2+4t+1", ("t",))
        assert rep.lattice_points == 12
        assert rep.interior_points == 4

    def test_a4_weight_volume_is_cube(self):
        rep = derive_all(tutte("A", 4, "weight"))
        assert rep.ehrhart == parse_poly_terms("1+6t+18t^2+64t^3", ("t",))
        assert rep.volume == 64  # n^(n-1) for n = 4

    def test_ehrhart_at_zero_is_one(self):
        for family, n, kind in [("A", 3, "root"), ("B", 2, "weight"), ("D", 3, "integer")]:
            e = derive_all(tutte(family, n, kind)).ehrhart
            assert e.evaluate({"t": 0}) == 1


def substitute_characteristic(t):
    """Oracle: chi(q) = (-1)^r q^(d-r) M(1-q, 0) by generic substitution."""
    r, d = t.rank, t.ambient_rank
    one_minus_q = MultiPoly(("q",), {(0,): 1, (1,): -1})
    chi = t.poly.substitute({"x": one_minus_q, "y": MultiPoly.zero(("q",))})
    chi = chi * MultiPoly(("q",), {(d - r,): 1})
    return -chi if r % 2 else chi


def fraction_x_marginal(t, y_value):
    """{x-exponent: coefficient} of M(x, y_value), over Fractions."""
    out = {}
    for (i, j), c in t.poly.terms.items():
        out[i] = out.get(i, Q(0)) + c * y_value**j
    return out


def power_ehrhart(t):
    """Oracle: E(t) = sum_i c_i (t+1)^i t^(r-i) by MultiPoly powers."""
    t_plus_1 = MultiPoly(("t",), {(0,): 1, (1,): 1})
    result = MultiPoly.zero(("t",))
    for i, c in fraction_x_marginal(t, 1).items():
        result = result + t_plus_1**i * MultiPoly(("t",), {(t.rank - i,): c})
    return result


def power_poincare(t):
    """Oracle: q^d M((2q+1)/q, 0) = sum_i c_i (2q+1)^i q^(d-i) by powers."""
    two_q_plus_1 = MultiPoly(("q",), {(0,): 1, (1,): 2})
    result = MultiPoly.zero(("q",))
    for i, c in fraction_x_marginal(t, 0).items():
        result = result + two_q_plus_1**i * MultiPoly(("q",), {(t.ambient_rank - i,): c})
    return result


@lru_cache(maxsize=None)
def table_rows(lattice):
    """The Tutte polynomials of `tuttekit table --lattice LATTICE --max-n 10`."""
    rows = []
    for family in "ABCD":
        series = expand_genfun(GenFunRequest(family, lattice, 10))
        for n in range(2, 11):
            rows.append(((family, n), tutte_from_series(series, family, lattice, n)))
    return rows


class TestCharacteristicAgainstSubstitution:
    @pytest.mark.parametrize("lattice", ["integer", "root", "weight"])
    def test_every_row_of_the_table_to_rank_ten(self, lattice):
        for row, t in table_rows(lattice):
            assert derive_all(t).characteristic == substitute_characteristic(t), row

    def test_bruteforce_rows(self):
        for family, n, kind in [("A", 1, "integer"), ("C", 3, "root"), ("D", 4, "weight")]:
            t = tutte(family, n, kind)
            assert derive_all(t).characteristic == substitute_characteristic(t)


class TestSpecializationsAgainstPowers:
    @pytest.mark.parametrize("lattice", ["integer", "root", "weight"])
    def test_every_row_of_the_table_to_rank_ten(self, lattice):
        for row, t in table_rows(lattice):
            rep = derive_all(t)
            assert rep.characteristic == substitute_characteristic(t), row
            assert rep.ehrhart == power_ehrhart(t), row
            assert rep.poincare == power_poincare(t), row
            sign = -1 if t.rank % 2 else 1
            counts = (
                rep.volume,
                rep.lattice_points,
                rep.interior_points,
                rep.toric_regions,
                rep.dm_dimension,
                rep.dpv_dimension,
            )
            assert all(type(v) is int for v in counts), row
            assert counts == (
                t.evaluate(1, 1),
                rep.ehrhart.evaluate({"t": 1}),
                sign * rep.ehrhart.evaluate({"t": -1}),
                abs(t.evaluate(1, 0)),
                t.evaluate(1, 1),
                t.evaluate(2, 1),
            ), row

    def test_bruteforce_rows(self):
        for family, n, kind in [("A", 1, "integer"), ("C", 3, "root"), ("D", 4, "weight")]:
            t = tutte(family, n, kind)
            rep = derive_all(t)
            assert rep.ehrhart == power_ehrhart(t)
            assert rep.poincare == power_poincare(t)


class TestClosedForms:
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_integer_lattice_products(self, family, n):
        chi = derive_all(tutte(family, n, "integer")).characteristic
        assert chi == closed_form_characteristic(family, n)

    def test_type_a_is_falling_factorial(self):
        assert closed_form_characteristic("A", 4) == parse_poly_terms(
            "q^4-6q^3+11q^2-6q", ("q",)
        )

    def test_b_and_c_products_verified_against_point_counts(self):
        # Fixed against complement counts over finite fields (see also the
        # finite-field identity tests): B3 at q=10 has 336 points off the
        # hypertori and C3 at q=16 has 1680.
        b3 = closed_form_characteristic("B", 3)
        c3 = closed_form_characteristic("C", 3)
        assert b3.evaluate({"q": 10}) == 336
        assert c3.evaluate({"q": 16}) == 1680

    def test_unsupported_pairs_rejected(self):
        with pytest.raises(StructureError):
            closed_form_characteristic("B", 3, "weight")
        with pytest.raises(StructureError):
            closed_form_characteristic("A", 3, "root")


class TestWeightTypeA:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_divisor_sum_matches_bruteforce(self, n):
        chi = derive_all(tutte("A", n, "weight")).characteristic
        assert chi == weight_characteristic_type_A(n)

    def test_closed_form_dispatch(self):
        assert closed_form_characteristic("A", 3, "weight") == parse_poly_terms(
            "q^2-3q+6", ("q",)
        )
        assert closed_form_characteristic("A", 2, "weight") == parse_poly_terms(
            "q-2", ("q",)
        )

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_prime_case_formula(self, n):
        assert weight_characteristic_type_A(n) == prime_case_characteristic_type_A(n)

    def test_divisor_sum_clears_to_integers(self):
        for n in range(1, 9):
            assert weight_characteristic_type_A(n).has_integer_coefficients()


class TestNecklaces:
    @pytest.mark.parametrize(
        "n,q,count", [(3, 6, 4), (3, 9, 10), (1, 5, 1), (1, 11, 1)]
    )
    def test_known_counts(self, n, q, count):
        assert necklace_count(n, q) == count

    @pytest.mark.parametrize("n,q", [(3, 6), (3, 9), (5, 10), (7, 14), (4, 10)])
    def test_burnside_matches_direct_enumeration(self, n, q):
        assert necklace_count(n, q) == necklace_count_direct(n, q)

    @pytest.mark.parametrize("n,q", [(3, 6), (3, 9), (5, 10), (7, 14)])
    def test_characteristic_connection(self, n, q):
        # For odd n dividing q, chi^W(q) / n! counts necklaces.
        chi = weight_characteristic_type_A(n)
        assert chi.evaluate({"q": q}) == factorial(n) * necklace_count(n, q)


class TestPermutationCoefficients:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_reconstructs_divisor_sum(self, n):
        assert char_coeffs_via_permutations(n) == weight_characteristic_type_A(n)

    def test_n3_coefficients(self):
        # c3 = 1 (identity), c2 = 3 (transpositions), c1 = 6 (two 3-cycles
        # of gcd 3): chi = q^2 - 3q + 6.
        assert char_coeffs_via_permutations(3) == parse_poly_terms(
            "q^2-3q+6", ("q",)
        )


class TestWeylGroup:
    @pytest.mark.parametrize(
        "family,n", [("A", 4), ("B", 4), ("C", 4), ("D", 4), ("B", 2), ("D", 3)]
    )
    def test_weight_lattice_chi_at_zero(self, family, n):
        chi = derive_all(tutte(family, n, "weight")).characteristic
        assert abs(chi.evaluate({"q": 0})) == weyl_group_order(family, n)


REFUSALS = {
    "half-integer volume": (
        lambda: derive_all(
            TuttePolynomial(MultiPoly(TUTTE_VARS, {(1, 0): Q(1, 2)}), 1, 1, "arithmetic")
        ),
        StructureError,
        "volume is not an integer: 1/2",
    ),
    "type D below rank 2": (
        lambda: closed_form_characteristic("D", 1),
        StructureError,
        "D requires n >= 2",
    ),
    "unknown family": (
        lambda: closed_form_characteristic("E", 3),
        StructureError,
        "unknown family 'E'",
    ),
    "weight type A at n = 0": (
        lambda: weight_characteristic_type_A(0),
        StructureError,
        "A requires n >= 1",
    ),
    # The products read these as 1, q and 1.
    **{
        f"{family} at n = 0": (
            lambda family=family: closed_form_characteristic(family, 0),
            StructureError,
            f"{family} requires n >= 1",
        )
        for family in "ABC"
    },
    "prime case below 3": (
        lambda: prime_case_characteristic_type_A(2),
        StructureError,
        "formula requires n >= 3",
    ),
    "more beads than places": (
        lambda: necklace_count(3, 2),
        StructureError,
        "need 0 <= n <= q",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])


def test_the_empty_necklace():
    assert necklace_count(0, 0) == necklace_count_direct(0, 0) == 1
