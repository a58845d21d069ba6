import pytest

from tuttekit.errors import ExactDivisionError, StructureError
from tuttekit.genfun import (
    GenFunRequest,
    euler_phi,
    expand_genfun,
    extract_coboundary,
    extract_polynomial,
    tutte_from_series,
    typeA_weight_series,
)
from tuttekit.invariants import (
    characteristic_polynomial,
    closed_form_characteristic,
    weight_characteristic_type_A,
)
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.series import TruncSeries
from tuttekit.tables import parse_poly_terms
from tuttekit.tutte import (
    COBOUNDARY_VARS,
    TUTTE_VARS,
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
)

ORDER = 6


def genfun_tutte(family, kind, n):
    return extract_polynomial(GenFunRequest(family, kind, ORDER), n)


class TestTypeAWeight:
    def test_two_coordinates(self):
        assert genfun_tutte("A", "weight", 2).poly == parse_poly_terms(
            "1+x", TUTTE_VARS
        )

    def test_three_coordinates(self):
        assert genfun_tutte("A", "weight", 3).poly == parse_poly_terms(
            "4+x+x^2+3 y", TUTTE_VARS
        )

    def test_four_coordinates(self):
        assert genfun_tutte("A", "weight", 4).poly == parse_poly_terms(
            "15+5 x+3 x^2+x^3+20 y+4 x y+12 y^2+4 y^3", TUTTE_VARS
        )

    def test_totient(self):
        assert [euler_phi(k) for k in range(1, 9)] == [1, 1, 2, 2, 4, 2, 6, 4]

    def test_series_order_guard(self):
        with pytest.raises(StructureError):
            typeA_weight_series(0)


class TestFixedRows:
    def test_b3_weight(self):
        expected = parse_poly_terms(
            "24+17x+6x^2+x^3+38y+10xy+33y^2+3xy^2+22y^3+12y^4+6y^5+2y^6",
            TUTTE_VARS,
        )
        assert genfun_tutte("B", "weight", 3).poly == expected

    def test_d2_weight(self):
        assert genfun_tutte("D", "weight", 2).poly == parse_poly_terms(
            "1+2x+x^2", TUTTE_VARS
        )


class TestAgainstBruteForce:
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    def test_rank_three_agreement(self, family, kind):
        spec = RootSystemSpec(family, 3, kind)
        bf = arithmetic_tutte_bruteforce(build_config(spec))
        gf = genfun_tutte(family, kind, 3)
        assert gf.poly == bf.poly
        assert gf.rank == bf.rank
        assert gf.ambient_rank == bf.ambient_rank

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_classical_kind_matches_classical_bruteforce(self, family):
        spec = RootSystemSpec(family, 3, "integer")
        bf = classical_tutte_bruteforce(build_config(spec))
        gf = extract_polynomial(GenFunRequest(family, "classical", ORDER), 3)
        assert gf.poly == bf.poly
        assert gf.flavor == "classical"


class TestClosedFormsToRankTwelve:
    """The genfun characteristic polynomials against the closed forms, one
    expansion per family at order 20 (ranks up to 20)."""

    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    def test_integer_lattice(self, family):
        series = expand_genfun(GenFunRequest(family, "integer", 20))
        for n in range(2 if family in "AD" else 1, 21):
            chi = characteristic_polynomial(tutte_from_series(series, family, "integer", n))
            assert chi == closed_form_characteristic(family, n), n

    def test_type_a_weight_lattice(self):
        series = expand_genfun(GenFunRequest("A", "weight", 20))
        for n in range(2, 21):
            t = tutte_from_series(series, "A", "weight", n)
            assert characteristic_polynomial(t) == weight_characteristic_type_A(n), n


class TestClassicalSeries:
    def test_b_and_c_series_coincide(self):
        b = expand_genfun(GenFunRequest("B", "classical", ORDER))
        c = expand_genfun(GenFunRequest("C", "classical", ORDER))
        assert b == c


class TestExtraction:
    def test_integer_and_root_agree_for_type_a(self):
        assert (
            genfun_tutte("A", "integer", 4).poly == genfun_tutte("A", "root", 4).poly
        )

    def test_type_a_division_by_x_must_be_exact(self):
        # A Z^1 coefficient 1 + X has a term of X-degree 0.
        one = MultiPoly.const(COBOUNDARY_VARS, 1)
        x = MultiPoly.var(COBOUNDARY_VARS, "X")
        series = TruncSeries((one, one + x))
        with pytest.raises(ExactDivisionError, match="non-exact polynomial division"):
            extract_coboundary(series, "A", 1)
        assert extract_coboundary(TruncSeries((one, x * 3)), "A", 1).poly == one * 3

    def test_order_bound_enforced(self):
        series = expand_genfun(GenFunRequest("B", "integer", 3))
        with pytest.raises(StructureError):
            extract_coboundary(series, "B", 4)

    def test_bad_requests_rejected(self):
        with pytest.raises(StructureError):
            GenFunRequest("E", "integer", 6)
        with pytest.raises(StructureError):
            GenFunRequest("B", "dual", 6)
        with pytest.raises(StructureError):
            GenFunRequest("B", "integer", 0)
