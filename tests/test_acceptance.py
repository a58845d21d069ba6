"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact; no tolerances anywhere.  Runtime budgets are
asserted loosely (the printed line records the measured time).
"""

import time
from math import factorial

from oracles import (
    char_coeffs_via_permutations,
    marked_graph_identity_holds,
    necklace_count,
    necklace_count_direct,
    prime_case_characteristic_type_A,
)
from tuttekit.finitefield import (
    _enumerate_profile,
    group_identity_holds,
    is_prime,
    verify_finite_field_identity,
)
from tuttekit.genfun import GenFunRequest, extract_polynomial
from tuttekit.invariants import (
    closed_form_characteristic,
    derive_all,
    weight_characteristic_type_A,
)
from tuttekit.lattice import multiplicity_lcm, snf_invariant_factors
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config, weyl_group_order
from tuttekit.series import deformed_exponential
from tuttekit.signed_graphs import (
    master_census,
    master_genfun_theorem,
    unsigned_census,
    unsigned_genfun_theorem,
)
from tuttekit.tables import (
    C2_INTEGER_EHRHART_CORRECTED,
    C2_INTEGER_TUTTE,
    C2_ROOT_EHRHART,
    all_rows,
    fixture,
    parse_poly_terms,
)
from tuttekit.tutte import (
    COBOUNDARY_VARS,
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
    coboundary_from_tutte,
)
from tuttekit.verify import ENGINES

ALL_SYSTEMS_N4 = [
    (family, n, kind)
    for family in "ABCD"
    for n in range(2 if family in ("A", "D") else 1, 5)
    for kind in ("integer", "root", "weight")
]


def report(number, description, started, budget):
    elapsed = time.time() - started
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.1f}s]")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def test_criterion_1_worked_example():
    t0 = time.time()
    c2 = build_config(RootSystemSpec("C", 2, "integer"))
    m = arithmetic_tutte_bruteforce(c2)
    assert m.poly == parse_poly_terms(C2_INTEGER_TUTTE, ("x", "y"))
    c2r = build_config(RootSystemSpec("C", 2, "root"))
    mr = arithmetic_tutte_bruteforce(c2r)
    assert mr.poly == parse_poly_terms("x^2+y^2+2x+2y+1", ("x", "y"))
    rep = derive_all(m)
    assert rep.ehrhart == parse_poly_terms(C2_INTEGER_EHRHART_CORRECTED, ("t",))
    assert (rep.lattice_points, rep.interior_points) == (21, 9)
    rep_r = derive_all(mr)
    assert rep_r.ehrhart == parse_poly_terms(C2_ROOT_EHRHART, ("t",))
    assert (rep_r.lattice_points, rep_r.interior_points) == (12, 4)
    report(1, "C2 worked example", t0, 1)


def test_criterion_2_weight_table():
    t0 = time.time()
    for row in all_rows():
        fx = fixture("weight-tutte", row)
        computed = extract_polynomial(GenFunRequest(fx.family, "weight", 8), fx.n)
        assert fx.matches(computed.poly), row
    report(2, "weight-lattice Tutte table rows", t0, 30)


def test_criterion_3_char_ehrhart_table():
    t0 = time.time()
    for row in all_rows():
        fx = fixture("weight-tutte", row)
        computed = extract_polynomial(GenFunRequest(fx.family, "weight", 8), fx.n)
        rep = derive_all(computed)
        assert rep.characteristic == fixture("characteristic", row).poly, row
        assert rep.ehrhart == fixture("ehrhart", row).poly, row
        chi_0 = rep.characteristic.evaluate({"q": 0})
        assert abs(chi_0) == weyl_group_order(fx.family, fx.n), row
    a4 = extract_polynomial(GenFunRequest("A", "weight", 8), 4)
    assert derive_all(a4).volume == 64
    report(3, "characteristic/Ehrhart table rows", t0, 5)


def test_criterion_4_four_way_agreement():
    t0 = time.time()
    for family, n, kind in ALL_SYSTEMS_N4:
        spec = RootSystemSpec(family, n, kind)
        bf, gf, gd = (ENGINES[m](spec) for m in ("bruteforce", "genfun", "graphs"))
        assert gf.poly == bf.poly, (family, n, kind, "genfun")
        assert gd.poly == bf.poly, (family, n, kind, "graphs")
        config = build_config(spec)
        psi = coboundary_from_tutte(bf)
        divisor = multiplicity_lcm(config)
        prime_tori = 0
        for q in (divisor, 2 * divisor):
            if is_prime(q + 1):  # (Z/q)^d is the torus (F_{q+1}^*)^d
                assert verify_finite_field_identity(config, q + 1, psi), (family, n, kind, q)
                prime_tori += 1
            else:
                assert group_identity_holds(config, q, psi), (family, n, kind, q)
        assert prime_tori, (family, n, kind, "no prime torus at q = L or 2L")
    report(4, "four-way oracle agreement, n <= 4", t0, 60)


def test_criterion_5_signed_graph_theorems():
    t0 = time.time()
    thm = master_genfun_theorem(6)
    for v in range(7):
        assert master_census(v) == thm.coefficient(v) * factorial(v), v
    unsigned_thm = unsigned_genfun_theorem(8)
    for v in range(9):
        assert unsigned_census(v) == unsigned_thm.coefficient(v) * factorial(v), v
    for v in range(1, 5):
        assert marked_graph_identity_holds(v), v
    report(5, "signed-graph census theorems", t0, 900)


def test_criterion_6_characteristic_closed_forms():
    t0 = time.time()
    for family in "ABCD":
        for n in range(2 if family in ("A", "D") else 1, 5):
            t = arithmetic_tutte_bruteforce(build_config(RootSystemSpec(family, n, "integer")))
            chi = derive_all(t).characteristic
            assert chi == closed_form_characteristic(family, n), (family, n)
    for n in range(2, 7):
        gf = extract_polynomial(GenFunRequest("A", "weight", 8), n)
        assert derive_all(gf).characteristic == weight_characteristic_type_A(n), n
    for n in (3, 5):
        assert weight_characteristic_type_A(n) == prime_case_characteristic_type_A(n)
    report(6, "characteristic closed forms", t0, 60)


def test_criterion_7_necklaces():
    t0 = time.time()
    for n, q in [(3, 6), (3, 9), (5, 10), (7, 14)]:
        count = necklace_count(n, q)
        assert count == necklace_count_direct(n, q), (n, q)
        chi = weight_characteristic_type_A(n)
        assert chi.evaluate({"q": q}) == factorial(n) * count, (n, q)
    # Prime case at n = 3: chi(q) = (q-1)(q-2) + 4.
    chi3 = weight_characteristic_type_A(3)
    qv = parse_poly_terms("q", ("q",))
    assert chi3 == (qv - 1) * (qv - 2) + 4
    report(7, "necklace correspondence", t0, 60)


def test_criterion_8_gcd_permutation_coefficients():
    t0 = time.time()
    for n in range(1, 8):
        assert char_coeffs_via_permutations(n) == weight_characteristic_type_A(n), n
    report(8, "gcd-permutation coefficients", t0, 60)


def test_criterion_9_property_suite():
    t0 = time.time()
    # psi(X, 1) = X^r on a spread of computed polynomials.
    for family, n, kind in [
        ("A", 4, "weight"),
        ("B", 3, "integer"),
        ("C", 3, "root"),
        ("D", 4, "weight"),
    ]:
        t = arithmetic_tutte_bruteforce(build_config(RootSystemSpec(family, n, kind)))
        psi = coboundary_from_tutte(t)
        collapsed = {}
        for (i, j), c in psi.poly.terms.items():
            collapsed[i] = collapsed.get(i, 0) + c
        assert {i: c for i, c in collapsed.items() if c} == {t.rank: 1}
    # exp/log round trip on a nontrivial series.
    y = MultiPoly.var(COBOUNDARY_VARS, "Y")
    f = deformed_exponential(y * 2, y, 7)  # F(2Z, Y)
    assert f.log().exp() == f
    # SNF invariance under unimodular row/column operations.
    m = [[4, 6, 2], [2, 8, 10], [0, 4, 2]]
    base = snf_invariant_factors(m)
    m2 = [m[1], m[0], m[2]]
    m3 = [[a + b for a, b in zip(m[0], m[1])], m[1], m[2]]
    assert snf_invariant_factors(m2) == base == snf_invariant_factors(m3)
    # classical = arithmetic when every multiplicity is 1 (type A).
    cfg = build_config(RootSystemSpec("A", 4, "integer"))
    assert (
        classical_tutte_bruteforce(cfg).poly == arithmetic_tutte_bruteforce(cfg).poly
    )
    # histogram totals (p-1)^d.
    for family, n, kind, p in [("C", 2, "integer", 5), ("B", 2, "weight", 5)]:
        config = build_config(RootSystemSpec(family, n, kind))
        histogram = _enumerate_profile(config, p)
        assert sum(histogram.values()) == (p - 1) ** config.lattice.rank
    report(9, "structural property suite", t0, 60)
