from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import assert_refused
from oracles import classical_tutte
from tuttekit.errors import CapacityError, ExactDivisionError, StructureError
from tuttekit.lattice import LatticeBasis, VectorConfig
from tuttekit.poly import MultiPoly
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.tables import parse_poly_terms
from tuttekit.tutte import (
    COBOUNDARY_VARS,
    TUTTE_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    arithmetic_tutte_bruteforce,
    coboundary_from_tutte,
    poly_from_rank_rows,
    tutte_from_coboundary,
)


def tutte(family, n, kind):
    return arithmetic_tutte_bruteforce(build_config(RootSystemSpec(family, n, kind)))


class TestWorkedExample:
    def test_c2_integer_lattice(self):
        t = tutte("C", 2, "integer")
        assert t.poly == parse_poly_terms("x^2+2y^2+4x+4y+3", TUTTE_VARS)
        assert t.rank == 2

    def test_c2_root_lattice(self):
        t = tutte("C", 2, "root")
        assert t.poly == parse_poly_terms("x^2+y^2+2x+2y+1", TUTTE_VARS)

    def test_b2_weight_lattice(self):
        t = tutte("B", 2, "weight")
        assert t.poly == parse_poly_terms("3+4x+x^2+4y+2y^2", TUTTE_VARS)


class TestClassicalVersusArithmetic:
    def test_unimodular_configuration_agrees(self):
        # Type A in the integer lattice has all multiplicities 1.
        cfg = build_config(RootSystemSpec("A", 4, "integer"))
        assert (
            arithmetic_tutte_bruteforce(cfg).poly
            == classical_tutte(cfg).poly
        )

    def test_multiplicities_change_the_polynomial(self):
        cfg = build_config(RootSystemSpec("C", 2, "integer"))
        assert (
            arithmetic_tutte_bruteforce(cfg).poly
            != classical_tutte(cfg).poly
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_classical_cannot_distinguish_b_and_c(self, n):
        b = classical_tutte(build_config(RootSystemSpec("B", n, "integer")))
        c = classical_tutte(build_config(RootSystemSpec("C", n, "integer")))
        assert b.poly == c.poly

    def test_classical_evaluation_counts_bases(self):
        # T(1,1) counts bases: every pair among the 4 vectors of C2 is
        # linearly independent, so there are C(4, 2) = 6 bases.
        cfg = build_config(RootSystemSpec("C", 2, "integer"))
        assert classical_tutte(cfg).poly.evaluate({"x": 1, "y": 1}) == 6


class TestCapacityGuard:
    def test_too_many_vectors(self):
        vecs = tuple((Q(1), Q(0)) for _ in range(26))
        cfg = VectorConfig(vectors=vecs, lattice=LatticeBasis.standard(2))
        with pytest.raises(CapacityError):
            arithmetic_tutte_bruteforce(cfg)


class TestCoboundaryTransforms:
    @pytest.mark.parametrize(
        "family,n,kind",
        [("A", 3, "weight"), ("B", 2, "integer"), ("C", 3, "root"), ("D", 3, "weight")],
    )
    def test_round_trip(self, family, n, kind):
        t = tutte(family, n, kind)
        psi = coboundary_from_tutte(t)
        back = tutte_from_coboundary(psi, ambient_rank=t.ambient_rank)
        assert back.poly == t.poly
        assert back.rank == t.rank

    @pytest.mark.parametrize(
        "family,n,kind",
        [("A", 4, "root"), ("B", 3, "weight"), ("C", 2, "integer"), ("D", 2, "root")],
    )
    def test_psi_at_y_equals_one_is_x_to_rank(self, family, n, kind):
        t = tutte(family, n, kind)
        psi = coboundary_from_tutte(t)
        collapsed = {}
        for (i, j), c in psi.poly.terms.items():
            collapsed[i] = collapsed.get(i, 0) + c
        collapsed = {i: c for i, c in collapsed.items() if c}
        assert collapsed == {t.rank: 1}

    def test_coboundary_of_c2(self):
        # psi(q, Y) at q=4 equals the finite-torus histogram generating sum.
        t = tutte("C", 2, "root")
        psi = coboundary_from_tutte(t)
        assert psi.poly.evaluate({"X": 1, "Y": 1}) == 1  # psi(1,1) = 1^r


def power_coboundary_from_tutte(t):
    """Oracle: psi as a sum of MultiPoly powers (X+Y-1)^i (Y-1)^(r-i) Y^j c."""
    r = t.rank
    if t.poly.degree_in("x") > r:
        raise StructureError("x-degree exceeds the stated rank")
    xy1 = MultiPoly(COBOUNDARY_VARS, {(1, 0): 1, (0, 1): 1, (0, 0): -1})  # X+Y-1
    ym1 = MultiPoly(COBOUNDARY_VARS, {(0, 1): 1, (0, 0): -1})  # Y-1
    yv = MultiPoly.var(COBOUNDARY_VARS, "Y")
    result = MultiPoly.zero(COBOUNDARY_VARS)
    for (i, j), c in t.poly.terms.items():
        result = result + xy1**i * ym1 ** (r - i) * yv**j * c
    return CoboundaryPolynomial(poly=result, rank=r)


def substitute_and_divide(c, ambient_rank, flavor="arithmetic"):
    """Oracle: the transform by substitution and grlex long division."""
    xm1ym1 = MultiPoly(TUTTE_VARS, {(1, 1): 1, (1, 0): -1, (0, 1): -1, (0, 0): 1})
    ym1 = MultiPoly(TUTTE_VARS, {(0, 1): 1, (0, 0): -1})
    substituted = c.poly.substitute({"X": xm1ym1, "Y": MultiPoly.var(TUTTE_VARS, "y")})
    try:
        quotient = substituted.divide_exact(ym1**c.rank)
    except ExactDivisionError as exc:
        raise ExactDivisionError(
            "coboundary polynomial is not divisible by (y-1)^rank; "
            "rank mismatch upstream"
        ) from exc
    return TuttePolynomial(quotient, c.rank, ambient_rank, flavor)


small_ints = st.integers(min_value=-20, max_value=20)


@st.composite
def tutte_polys(draw):
    """A random integer M(x, y) of x-degree at most its rank r."""
    r = draw(st.integers(min_value=0, max_value=5))
    cell = st.tuples(st.integers(0, r), st.integers(0, 6))
    m = draw(st.dictionaries(cell, st.integers(-30, 30), max_size=12))
    return TuttePolynomial(MultiPoly(TUTTE_VARS, m), r, r, "arithmetic")


class TestTutteToCoboundaryOracle:
    @given(tutte_polys())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_power_sums(self, t):
        assert coboundary_from_tutte(t) == power_coboundary_from_tutte(t)

    @given(tutte_polys(), st.integers(1, 2), st.integers(0, 6), small_ints.filter(bool))
    @settings(max_examples=30, deadline=None)
    def test_x_degree_past_the_rank_is_refused(self, t, excess, j, c):
        poly = t.poly + MultiPoly(TUTTE_VARS, {(t.rank + excess, j): c})
        t = TuttePolynomial(poly, t.rank, t.rank, "arithmetic")
        for transform in (coboundary_from_tutte, power_coboundary_from_tutte):
            with pytest.raises(StructureError, match="x-degree exceeds the stated rank"):
                transform(t)


@st.composite
def tutte_with_rows(draw):
    """A random integer M(x, y) of x-degree <= r, and extra psi rows of X-degree > r."""
    r = draw(st.integers(min_value=0, max_value=4))
    cell = st.tuples(st.integers(0, r), st.integers(0, 5))
    m = draw(st.dictionaries(cell, small_ints, max_size=10))
    high = st.tuples(st.integers(r + 1, r + 3), st.integers(0, 5))
    rows = draw(st.dictionaries(high, small_ints, max_size=4))
    return TuttePolynomial(MultiPoly(TUTTE_VARS, m), r, r, "arithmetic"), rows


class TestCoboundaryToTutteOracle:
    @given(tutte_with_rows())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_substitute_and_divide(self, case):
        t, rows = case
        psi = coboundary_from_tutte(t)
        back = tutte_from_coboundary(psi, ambient_rank=t.ambient_rank)
        assert back == t
        assert back == substitute_and_divide(psi, t.ambient_rank)
        wide = CoboundaryPolynomial(psi.poly + MultiPoly(COBOUNDARY_VARS, rows), t.rank)
        # The ambient rank plays no part in the transform; it must reach the rank.
        ambient = max(3, t.rank)
        assert tutte_from_coboundary(wide, ambient, "classical") == substitute_and_divide(
            wide, ambient, "classical"
        )

    @given(tutte_with_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_divisible_psi_raises(self, case, data):
        t, _ = case
        assume(t.rank > 0)
        # (Y-1)^(r-i) never divides P_i(Y) + c*Y^j for i < r and c != 0.
        i = data.draw(st.integers(0, t.rank - 1))
        j = data.draw(st.integers(0, 5))
        c = data.draw(small_ints.filter(bool))
        psi = coboundary_from_tutte(t).poly + MultiPoly(COBOUNDARY_VARS, {(i, j): c})
        bad = CoboundaryPolynomial(psi, t.rank)
        with pytest.raises(ExactDivisionError) as new:
            tutte_from_coboundary(bad, ambient_rank=t.rank)
        with pytest.raises(ExactDivisionError) as old:
            substitute_and_divide(bad, t.rank)
        assert str(new.value) == str(old.value)


def fraction_rank_size_poly(counts, full_rank):
    """Oracle: the rank/size sum by MultiPoly products over Fractions."""
    xm1 = MultiPoly(TUTTE_VARS, {(1, 0): 1, (0, 0): -1})
    ym1 = MultiPoly(TUTTE_VARS, {(0, 1): 1, (0, 0): -1})
    total = MultiPoly.zero(TUTTE_VARS)
    for (r, k), w in counts.items():
        total = total + xm1 ** (full_rank - r) * ym1 ** (k - r) * w
    return total


@st.composite
def rank_rows(draw):
    """A random full rank R and rows {r: weights by size k}, r <= R.

    Only valid cells are drawn: the weights below size r are 0, and r <= k <= r + 6.
    """
    full_rank = draw(st.integers(min_value=0, max_value=5))
    ranks = st.lists(st.integers(0, full_rank), unique=True, max_size=full_rank + 1)
    return {
        r: [0] * r + draw(st.lists(small_ints, max_size=7)) for r in draw(ranks)
    }, full_rank


class TestRankSizeExpansion:
    @given(rank_rows())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_fraction_products(self, case):
        by_rank, full_rank = case
        counts = {
            (r, k): w for r, row in by_rank.items() for k, w in enumerate(row) if w
        }
        assert poly_from_rank_rows(by_rank, full_rank) == fraction_rank_size_poly(
            counts, full_rank
        )


class TestEvaluations:
    @pytest.mark.parametrize(
        "family,n,kind",
        [("A", 3, "weight"), ("B", 2, "root"), ("C", 2, "weight"), ("D", 3, "integer")],
    )
    def test_corner_evaluations_are_nonnegative_integers(self, family, n, kind):
        t = tutte(family, n, kind)
        for x, y in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            v = t.poly.evaluate({"x": x, "y": y})
            assert v.denominator == 1 and v >= 0


REFUSALS = {
    "Tutte over (X, Y)": (
        lambda: TuttePolynomial(MultiPoly.var(COBOUNDARY_VARS, "X"), 1, 1, "arithmetic"),
        StructureError,
        "Tutte polynomial must be over (x, y)",
    ),
    "unknown flavor": (
        lambda: TuttePolynomial(MultiPoly.var(TUTTE_VARS, "x"), 1, 1, "tropical"),
        StructureError,
        "unknown flavor 'tropical'",
    ),
    "coboundary over (x, y)": (
        lambda: CoboundaryPolynomial(MultiPoly.var(TUTTE_VARS, "x"), 1),
        StructureError,
        "coboundary polynomial must be over (X, Y)",
    ),
    # derive_all read this record's chi as 8q^-1-6+q.
    "Tutte rank past the ambient rank": (
        lambda: TuttePolynomial(MultiPoly.var(TUTTE_VARS, "x"), 2, 1, "arithmetic"),
        StructureError,
        "rank 2 outside 0..1",
    ),
    # derive_all read this record's Ehrhart polynomial as t^-1.
    "negative Tutte rank": (
        lambda: TuttePolynomial(MultiPoly.var(TUTTE_VARS, "x"), -1, 1, "arithmetic"),
        StructureError,
        "rank -1 outside 0..1",
    ),
    "negative coboundary rank": (
        lambda: CoboundaryPolynomial(MultiPoly.var(COBOUNDARY_VARS, "X"), -1),
        StructureError,
        "rank -1 is negative",
    ),
    # derive_all read this record's chi as -q+q^2.0, with a float exponent.
    "float Tutte rank": (
        lambda: TuttePolynomial(MultiPoly.var(TUTTE_VARS, "x"), 1.0, 2, "arithmetic"),
        StructureError,
        "rank must be an int, not 1.0",
    ),
    "bool ambient rank": (
        lambda: TuttePolynomial(MultiPoly.var(TUTTE_VARS, "x"), 1, True, "arithmetic"),
        StructureError,
        "ambient rank must be an int, not True",
    ),
    # tutte_from_coboundary raised a bare TypeError on this record.
    "float coboundary rank": (
        lambda: CoboundaryPolynomial(MultiPoly.var(COBOUNDARY_VARS, "X"), 1.0),
        StructureError,
        "rank must be an int, not 1.0",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])


def test_record_ranks_at_their_bounds():
    one = MultiPoly.const(TUTTE_VARS, 1)
    assert TuttePolynomial(one, 0, 0, "arithmetic").rank == 0
    assert TuttePolynomial(one, 2, 2, "classical").ambient_rank == 2
    assert CoboundaryPolynomial(MultiPoly.const(COBOUNDARY_VARS, 1), 0).rank == 0
