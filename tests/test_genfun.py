from fractions import Fraction as Q
from functools import lru_cache
from math import comb, factorial

import numpy as np
import pytest

from conftest import assert_refused
from oracles import classical_tutte
from tuttekit.errors import ExactDivisionError, StructureError
from tuttekit.genfun import (
    GENFUN_KINDS,
    GenFunRequest,
    _final_products,
    _x_poly,
    euler_phi,
    expand_genfun,
    extract_coboundary,
    extract_polynomial,
    tutte_from_series,
)
from tuttekit.invariants import (
    closed_form_characteristic,
    derive_all,
    weight_characteristic_type_A,
)
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.series import TruncSeries, sum_of_products
from tuttekit.tables import parse_poly_terms
from tuttekit.tutte import (
    COBOUNDARY_VARS,
    TUTTE_VARS,
    arithmetic_tutte_bruteforce,
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
            GenFunRequest("A", "weight", 0)

    @pytest.mark.parametrize("order", [True, 2.0, "3", np.int64(3)], ids=repr)
    def test_order_must_be_an_int(self, order):
        message = f"order must be an int, not {order!r}"
        assert_refused(lambda: GenFunRequest("B", "integer", order), StructureError, message)


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
        bf = classical_tutte(build_config(spec))
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
            chi = derive_all(tutte_from_series(series, family, "integer", n)).characteristic
            assert chi == closed_form_characteristic(family, n), n

    def test_type_a_weight_lattice(self):
        series = expand_genfun(GenFunRequest("A", "weight", 20))
        for n in range(2, 21):
            t = tutte_from_series(series, "A", "weight", n)
            assert derive_all(t).characteristic == weight_characteristic_type_A(n), n


# ----------------------------------------------------------------------
# Oracle: expand_genfun as it was before the series powers moved to Miller's
# recurrence and the products were regrouped, kept verbatim apart from the
# power exp(e log f) and the deformed exponentials, built from MultiPoly products,
# with the type-A weight series as the whole-series totient sum it was.


def oracle_pow(f: TruncSeries, e: MultiPoly) -> TruncSeries:
    return (f.log() * e).exp()


def oracle_factors(order):
    vs = COBOUNDARY_VARS

    def shape(scale, beta_power=1, alpha_y_power=0):
        # F(alpha Z, beta): alpha^n beta^C(n,2) / n! at Z^n.
        alpha = MultiPoly.var(vs, "Y", alpha_y_power) * scale
        beta = MultiPoly.var(vs, "Y", beta_power)
        return TruncSeries(
            [alpha**n * beta ** comb(n, 2) * Q(1, factorial(n)) for n in range(order + 1)]
        )

    return {
        "F_Z_Y": shape(1),
        "F_2Z_Y": shape(2),
        "F_m2Z_Y": shape(-2),
        "F_Z_Y2": shape(1, beta_power=2),
        "F_YZ_Y2": shape(1, beta_power=2, alpha_y_power=1),
    }


def oracle_typeA_weight_series(order: int) -> TruncSeries:
    cg = oracle_factors(order)["F_Z_Y"].log()
    x = MultiPoly.var(COBOUNDARY_VARS, "X")
    total = TruncSeries.constant(COBOUNDARY_VARS, 0, order)
    for n in range(1, order + 1):
        cg_n = cg.filter_every_nth(n)
        total = total + ((cg_n * x).exp() - 1) * euler_phi(n)
    return total


def oracle_expand_genfun(req: GenFunRequest) -> TruncSeries:
    family, kind, order = req.family, req.lattice_kind, req.order
    if family == "A":
        if kind == "weight":
            return oracle_typeA_weight_series(order)
        # Integer and root lattices agree for type A (unimodular configuration).
        f = oracle_factors(order)["F_Z_Y"]
        x = MultiPoly.var(COBOUNDARY_VARS, "X")
        return oracle_pow(f, x)

    f = oracle_factors(order)
    f2 = f["F_2Z_Y"]
    if kind == "classical":
        head = oracle_pow(f2, _x_poly(Q(1, 2), Q(-1, 2)))  # (X-1)/2
        if family in ("B", "C"):
            return head * f["F_YZ_Y2"]
        return head * f["F_Z_Y2"]

    half_exp = _x_poly(Q(1, 2), -1)  # X/2 - 1
    quarter_exp = _x_poly(Q(1, 4), -1)  # X/4 - 1
    quarter = _x_poly(Q(1, 4), 0)  # X/4

    if kind == "integer" or (kind == "root" and family == "B") or (
        kind == "weight" and family == "C"
    ):
        head = oracle_pow(f2, half_exp)
        if family == "B":
            return head * f["F_Z_Y2"] * f["F_YZ_Y2"]
        if family == "C":
            return head * f["F_YZ_Y2"] * f["F_YZ_Y2"]
        return head * f["F_Z_Y2"] * f["F_Z_Y2"]

    if kind == "root":  # C or D: bracket sum with an exact halving
        head = oracle_pow(f2, half_exp)
        square = f["F_YZ_Y2"] if family == "C" else f["F_Z_Y2"]
        bracket = f2 + square * square
        return (head * bracket) * Q(1, 2)

    # weight lattice, B or D
    head = oracle_pow(f2, quarter_exp)
    middle = f["F_Z_Y2"] * (f["F_YZ_Y2"] if family == "B" else f["F_Z_Y2"])
    bracket = oracle_pow(f2, quarter) + oracle_pow(f["F_m2Z_Y"], quarter)
    return head * middle * bracket


@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("kind", GENFUN_KINDS)
def test_series_match_the_unregrouped_oracle(family, kind):
    req = GenFunRequest(family, kind, 12)
    assert expand_genfun(req) == oracle_expand_genfun(req)


@lru_cache(maxsize=None)
def expanded(family, kind, order):
    return expand_genfun(GenFunRequest(family, kind, order))


@pytest.mark.parametrize("n", range(1, 13))
@pytest.mark.parametrize("family", ["A", "B", "C", "D"])
@pytest.mark.parametrize("kind", GENFUN_KINDS)
def test_zn_read_alone_matches_the_expansion(family, kind, n):
    zero = MultiPoly.zero(COBOUNDARY_VARS)
    for order in (n, n + 3):
        series = expanded(family, kind, order)
        tail = [zero] * n + [series.coefficient(k) for k in range(n, order + 1)]
        alone = sum_of_products(*_final_products(family, kind, order), low=n)
        assert alone == TruncSeries(tail)
        req = GenFunRequest(family, kind, order)
        if (family, n) == ("D", 1):  # no system: both reads refuse it
            for read in (
                lambda: extract_polynomial(req, n),
                lambda: tutte_from_series(series, family, kind, n),
            ):
                assert_refused(read, StructureError, "D requires n >= 2")
            continue
        assert extract_polynomial(req, n) == tutte_from_series(series, family, kind, n)


# D1 was read as M = -1 + x in every kind, which no arithmetic Tutte
# polynomial is, and A0 failed on an inexact division by X.
@pytest.mark.parametrize(
    "family, n, message", [("D", 1, "D requires n >= 2"), ("A", 0, "A requires n >= 1")]
)
@pytest.mark.parametrize("kind", GENFUN_KINDS)
def test_reads_refuse_what_names_no_system(family, n, message, kind):
    req = GenFunRequest(family, kind, 3)
    assert_refused(lambda: extract_polynomial(req, n), StructureError, message)
    series = expanded(family, kind, 3)
    assert_refused(lambda: extract_coboundary(series, family, n), StructureError, message)


def test_type_a_weight_zn_read_lists_only_the_divisors_of_n():
    # exp(X cg_m) lives on multiples of m, so the Z^n read needs only m | n.
    series = expanded("A", "weight", 20)
    for n in range(1, 21):
        products, _ = _final_products("A", "weight", n, n)
        assert len(products) == sum(1 for m in range(1, n + 1) if n % m == 0)
        req = GenFunRequest("A", "weight", n)
        assert extract_polynomial(req, n) == tutte_from_series(series, "A", "weight", n)


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

    def test_psi_must_be_integral(self):
        # 1! times the Z^1 coefficient X/2 is not an integer polynomial.
        one = MultiPoly.const(COBOUNDARY_VARS, 1)
        series = TruncSeries((one, MultiPoly.var(COBOUNDARY_VARS, "X") * Q(1, 2)))
        with pytest.raises(ExactDivisionError, match="not integral"):
            extract_coboundary(series, "B", 1)
        with pytest.raises(ExactDivisionError, match="not integral"):
            tutte_from_series(series, "B", "integer", 1)

    def test_order_bound_enforced(self):
        series = expand_genfun(GenFunRequest("B", "integer", 3))
        with pytest.raises(StructureError):
            extract_coboundary(series, "B", 4)
        with pytest.raises(StructureError, match="exceeds series order"):
            extract_polynomial(GenFunRequest("B", "integer", 3), 4)

    def test_bad_requests_rejected(self):
        with pytest.raises(StructureError):
            GenFunRequest("E", "integer", 6)
        with pytest.raises(StructureError):
            GenFunRequest("B", "dual", 6)
        with pytest.raises(StructureError):
            GenFunRequest("B", "integer", 0)
