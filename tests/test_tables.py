import pytest

from conftest import assert_refused
from tuttekit import tables
from tuttekit.errors import StructureError
from tuttekit.genfun import GenFunRequest, extract_polynomial
from tuttekit.invariants import derive_all
from tuttekit.tables import (
    C2_INTEGER_EHRHART_CORRECTED,
    C2_INTEGER_EHRHART_PRINTED,
    all_rows,
    fixture,
    parse_poly_terms,
)


class TestParser:
    def test_plain_sum(self):
        p = parse_poly_terms("3+4 x+x^2+4 y+2 y^2", ("x", "y"))
        assert p.terms[(0, 0)] == 3
        assert p.terms[(2, 0)] == 1
        assert p.terms[(0, 2)] == 2

    def test_braced_and_unbraced_exponents(self):
        p = parse_poly_terms("20 y^10+50 x y^{10}", ("x", "y"))
        assert p.terms[(0, 10)] == 20
        assert p.terms[(1, 10)] == 50

    def test_missing_spaces(self):
        p = parse_poly_terms("7830y^3+180x y^8", ("x", "y"))
        assert p.terms[(0, 3)] == 7830
        assert p.terms[(1, 8)] == 180

    def test_negative_terms(self):
        p = parse_poly_terms("-48+32 q-9 q^2+q^3", ("q",))
        assert p.terms[(0,)] == -48
        assert p.terms[(2,)] == -9

    def test_leading_bare_minus(self):
        p = parse_poly_terms("-q+3", ("q",))
        assert p.terms[(1,)] == -1

    def test_unknown_variable_rejected(self):
        with pytest.raises(StructureError):
            parse_poly_terms("3z", ("x", "y"))


class TestFixtureData:
    def test_all_sixteen_rows_present(self):
        rows = all_rows()
        assert len(rows) == 16
        assert rows[0] == "A2" and rows[-1] == "D5"

    def test_b5_is_flagged_partial(self):
        fx = fixture("weight-tutte", "B5")
        assert fx.partial
        # The dangling "+30" must not become a constant term.
        assert fx.poly.terms[(0, 0)] == 1680

    def test_unknown_row_rejected(self):
        with pytest.raises(StructureError):
            fixture("weight-tutte", "E8")

    def test_unknown_kind_rejected(self):
        with pytest.raises(StructureError, match="^no 'poincare' fixture for row 'B3'$"):
            fixture("poincare", "B3")

    def test_per_kind_names_look_up_the_same_fixture(self):
        for name, kind in (
            ("weight_tutte_fixture", "weight-tutte"),
            ("characteristic_fixture", "characteristic"),
            ("ehrhart_fixture", "ehrhart"),
        ):
            assert getattr(tables, name)("C4") == fixture(kind, "C4")

    def test_duplicate_rows_agree(self):
        # B2 and C2 print the same polynomial, as do D3 and A4.
        assert fixture("weight-tutte", "B2").poly == fixture("weight-tutte", "C2").poly
        assert fixture("weight-tutte", "D3").poly == fixture("weight-tutte", "A4").poly


class TestAgainstGenfun:
    @pytest.mark.parametrize("row", all_rows())
    def test_weight_tutte_rows(self, row):
        fx = fixture("weight-tutte", row)
        computed = extract_polynomial(GenFunRequest(fx.family, "weight", 8), fx.n)
        assert fx.matches(computed.poly)

    @pytest.mark.parametrize("row", all_rows())
    def test_characteristic_and_ehrhart_rows(self, row):
        fx = fixture("weight-tutte", row)
        computed = extract_polynomial(GenFunRequest(fx.family, "weight", 8), fx.n)
        rep = derive_all(computed)
        assert rep.characteristic == fixture("characteristic", row).poly
        assert rep.ehrhart == fixture("ehrhart", row).poly


class TestRecordedTypo:
    def test_printed_and_corrected_differ(self):
        printed = parse_poly_terms(C2_INTEGER_EHRHART_PRINTED, ("t",))
        corrected = parse_poly_terms(C2_INTEGER_EHRHART_CORRECTED, ("t",))
        assert printed != corrected
        # The printed string double-counts t^2 and has no linear term.
        assert printed.terms[(2,)] == 20
        assert corrected.terms == {(2,): 14, (1,): 6, (0,): 1}


REFUSALS = {
    "no terms": (
        lambda: parse_poly_terms(" + ", ("x", "y")),
        StructureError,
        "no terms in ' + '",
    ),
    "unparseable term": (
        lambda: parse_poly_terms("1 + 3 x!", ("x", "y")),
        StructureError,
        "unparseable term '3 x!'",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])
