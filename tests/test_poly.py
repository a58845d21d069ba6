from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import VARS_XY, assert_refused, fractions, nonzero_polys, polys
from tuttekit.errors import ExactDivisionError, StructureError
from tuttekit.poly import MultiPoly, compose_affine


def P(terms):
    return MultiPoly(VARS_XY, terms)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        assert P({(1, 0): Q(0), (0, 0): Q(3)}) == MultiPoly.const(VARS_XY, 3)

    def test_const_and_var(self):
        x = MultiPoly.var(VARS_XY, "x")
        assert x.terms == {(1, 0): 1} and type(x.terms[(1, 0)]) is int
        assert MultiPoly.zero(VARS_XY).is_zero()

    def test_unknown_var_rejected(self):
        with pytest.raises(StructureError):
            MultiPoly.var(VARS_XY, "z")


class TestArithmetic:
    def test_binomial_square(self):
        x = MultiPoly.var(VARS_XY, "x")
        y = MultiPoly.var(VARS_XY, "y")
        assert (x + y) ** 2 == x**2 + x * y * 2 + y**2

    def test_pow_matches_repeated_multiplication(self):
        p = P({(1, 0): Q(2), (0, 1): Q(-1), (0, 0): Q(3)})
        direct = MultiPoly.const(VARS_XY, 1)
        for k in range(7):
            assert p**k == direct
            direct = direct * p

    def test_scalar_ops(self):
        p = P({(1, 1): Q(2)})
        assert p * 3 == P({(1, 1): Q(6)})
        assert p - p == MultiPoly.zero(VARS_XY)

    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)


def assert_canonical(p):
    """What the public constructor would store: nonzero coefficients under
    int tuples of the right length, each an int when integral and a
    Fraction with denominator > 1 otherwise."""
    for exps, c in p.terms.items():
        assert c != 0
        assert type(c) is int or (type(c) is Q and c.denominator > 1)
        assert type(exps) is tuple and len(exps) == len(p.vars)
        assert all(type(e) is int for e in exps)
    rebuilt = MultiPoly(p.vars, dict(p.terms))
    assert rebuilt == p and rebuilt.terms == p.terms
    assert p.has_integer_coefficients() == rebuilt.has_integer_coefficients()


scalars = st.one_of(st.integers(min_value=-5, max_value=5), fractions())


class TestRingOperationsStayCanonical:
    @given(polys(), polys(), scalars, st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_results_match_the_public_constructor(self, a, b, s, k):
        for p in (a + b, a - b, a - a, -a, a * b, a * s, s * a, a + s, s - a, a**k):
            assert_canonical(p)

    def test_results_landing_on_integers_are_ints(self):
        half = P({(1, 0): Q(1, 2), (0, 0): Q(-3, 2)})
        x = MultiPoly.var(VARS_XY, "x")
        thirds = half * Q(4, 3)
        for p in (half * 2, 2 * half, half + half, half - (half - x), thirds * Q(3, 2)):
            assert_canonical(p)
            assert all(type(c) is int for c in p.terms.values()), p
        assert (half * 2).terms == {(1, 0): 1, (0, 0): -3}
        assert (half + half).terms == {(1, 0): 1, (0, 0): -3}
        assert MultiPoly.const(VARS_XY, Q(6, 3)).terms == {(0, 0): 2}

    def test_cancelling_terms_are_dropped(self):
        x = MultiPoly.var(VARS_XY, "x")
        y = MultiPoly.var(VARS_XY, "y")
        assert ((x + y) * (x - y)).terms == {(2, 0): Q(1), (0, 2): Q(-1)}
        assert (x * 0).terms == {} and (x + (-x)).terms == {}


class TestDivision:
    @given(polys(), nonzero_polys())
    @settings(max_examples=60, deadline=None)
    def test_divide_exact_inverts_multiplication(self, a, b):
        assert (a * b).divide_exact(b) == a

    def test_int_division_stays_on_ints(self):
        x = MultiPoly.var(VARS_XY, "x")
        y = MultiPoly.var(VARS_XY, "y")
        a, b = x * 3 - y + 2, x * 2 + y * y * 5 - 7
        quotient = (a * b).divide_exact(b)
        assert quotient == a
        assert_canonical(quotient)
        assert all(type(c) is int for c in quotient.terms.values())
        halves = (a * b).divide_exact(b * 2)  # exact in Q[x, y], not over Z
        assert_canonical(halves)
        assert halves.terms == {(1, 0): Q(3, 2), (0, 1): Q(-1, 2), (0, 0): 1}
        assert not any(isinstance(c, float) for c in halves.terms.values())

    def test_inexact_division_raises(self):
        x = MultiPoly.var(VARS_XY, "x")
        with pytest.raises(ExactDivisionError):
            (x + 1).divide_exact(x)


class TestSubstituteEvaluate:
    def test_substitute_polynomial(self):
        x = MultiPoly.var(VARS_XY, "x")
        y = MultiPoly.var(VARS_XY, "y")
        p = x**2 + y
        sub = p.substitute({"x": y + 1})
        assert sub == y**2 + y * 3 + 1

    def test_evaluate(self):
        p = P({(2, 0): Q(1), (0, 1): Q(2), (0, 0): Q(3)})
        assert p.evaluate({"x": 2, "y": Q(1, 2)}) == 8

    @given(polys(), polys())
    @settings(max_examples=40, deadline=None)
    def test_substitution_commutes_with_evaluation(self, p, q):
        val = {"x": Q(2), "y": Q(-3)}
        sub = p.substitute({"x": q})
        lhs = sub.evaluate(val)
        rhs = p.evaluate({"x": q.evaluate(val), "y": val["y"]})
        assert lhs == rhs


class TestComposeAffine:
    @given(
        st.lists(st.integers(-30, 30) | fractions(), max_size=8),
        st.integers(-4, 4) | fractions(),
        st.integers(-4, 4) | fractions(),
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_substitution(self, coeffs, a, b):
        def in_v(cs):
            return MultiPoly(("v",), {(k,): c for k, c in enumerate(cs)})

        composed = compose_affine(coeffs, a, b)
        assert len(composed) == len(coeffs)
        assert in_v(composed) == in_v(coeffs).substitute({"v": in_v([a, b])})

    def test_int_coefficients_stay_ints(self):
        out = compose_affine([3, 0, 1], 1, -1)  # 3 + (1-v)^2
        assert out == [4, -2, 1] and all(type(c) is int for c in out)

    def test_binomial_row(self):
        assert compose_affine([0, 0, 0, 1], -1) == [-1, 3, -3, 1]  # (v-1)^3


class TestSerialization:
    def test_canonical_encoding_shape(self):
        p = P({(2, 0): Q(1), (0, 0): Q(3), (0, 1): Q(4)})
        d = p.to_json_dict()
        assert d["vars"] == ["x", "y"]
        assert [t["coeff"] for t in d["terms"]] == ["3", "4", "1"]

    @given(polys(coeffs=st.integers(min_value=-20, max_value=20).map(Q)))
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip(self, p):
        assert MultiPoly.from_json_dict(p.to_json_dict()) == p

    def test_rational_coefficients_are_refused(self):
        p = P({(0, 0): Q(1, 2)})
        with pytest.raises(StructureError):
            p.to_json_dict()


class TestRows:
    def test_ragged_rows(self):
        p = P({(0, 1): 4, (0, 0): 3, (2, 2): -1})
        assert p.rows() == [[3, 4], [], [0, 0, -1]]
        assert MultiPoly.zero(VARS_XY).rows() == []

    @given(polys())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, p):
        rows = p.rows()
        assert all(row[-1] for row in rows if row)
        assert MultiPoly.from_rows(VARS_XY, rows) == p
        assert_canonical(MultiPoly.from_rows(VARS_XY, rows))

    def test_from_rows_drops_zeros_and_narrows(self):
        q = MultiPoly.from_rows(VARS_XY, [[0, Q(4, 2)], [], [0, 0]])
        assert q.terms == {(0, 1): 2} and type(q.terms[(0, 1)]) is int

    def test_two_variables_only(self):
        with pytest.raises(StructureError):
            MultiPoly.const(("q",), 1).rows()
        with pytest.raises(StructureError):
            MultiPoly.from_rows(("q",), [[1]])


class TestPrinting:
    def test_signs_and_unit_coefficients(self):
        # The ascending order itself is pinned in tests/test_cli.py.
        p = P({(1, 1): -1, (0, 0): -1})
        assert str(p) == "-1-xy"
        assert repr(p) == "MultiPoly(('x', 'y'), -1-xy)"


class TestQueries:
    def test_degrees(self):
        p = P({(2, 3): Q(1), (4, 0): Q(1)})
        assert p.degree_in("x") == 4
        assert p.degree_in("y") == 3

    def test_integer_coefficient_check(self):
        assert P({(1, 0): Q(4, 2)}).has_integer_coefficients()
        assert not P({(1, 0): Q(1, 2)}).has_integer_coefficients()


X = MultiPoly.var(VARS_XY, "x")
Q_ONLY = MultiPoly.var(("q",), "q")

REFUSALS = {
    "assignment": (lambda: setattr(X, "terms", {}), AttributeError, "MultiPoly is immutable"),
    "sum over other variables": (
        lambda: X + Q_ONLY,
        StructureError,
        "variable lists differ: ('x', 'y') vs ('q',)",
    ),
    "negative power": (lambda: X**-1, StructureError, "negative polynomial power"),
    "bindings over two lists": (
        lambda: (X * MultiPoly.var(VARS_XY, "y")).substitute(
            {"x": Q_ONLY, "y": MultiPoly.var(("t",), "t")}
        ),
        StructureError,
        "bindings use inconsistent variable lists",
    ),
    "division by zero": (
        lambda: X.divide_exact(MultiPoly.zero(VARS_XY)),
        ExactDivisionError,
        "division by zero polynomial",
    ),
    "unbound variable": (
        lambda: X.evaluate({"x": 1}),
        StructureError,
        "no value for variable 'y'",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])


def test_truth_is_being_nonzero():
    assert X and not MultiPoly.zero(VARS_XY)
