import re
from fractions import Fraction as Q
from math import comb, factorial
from typing import Iterable, List, Sequence, Union
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_refused, fractions, polys
from tuttekit.errors import CapacityError, PrecisionError, StructureError
from tuttekit.poly import MultiPoly, Scalar
from tuttekit.series import TruncSeries, deformed_exponential, sum_of_products
from tuttekit.signed_graphs import MASTER_VARS

XY = ("X", "Y")


def y_mono(power: int, scale: Scalar = 1) -> MultiPoly:
    """scale * Y^power over (X, Y): alpha and beta of the genfun factors."""
    return MultiPoly.var(XY, "Y", power) * scale


def series_from_polys(poly_list):
    return TruncSeries(tuple(poly_list))


class TestBasics:
    def test_constant_and_one(self):
        s = TruncSeries.constant(XY, 5, 3)
        assert s.coefficient(0) == MultiPoly.const(XY, 5)
        assert s.coefficient(2).is_zero()
        assert s.order == 3

    def test_mul_is_cauchy_product(self):
        one = MultiPoly.const(XY, 1)
        # (1 + z)^2 = 1 + 2z + z^2
        s = TruncSeries((one, one, MultiPoly.zero(XY)))
        sq = s * s
        assert sq.coefficient(1) == MultiPoly.const(XY, 2)
        assert sq.coefficient(2) == one


class TestExpLog:
    def test_exp_of_z(self):
        z = TruncSeries(
            (MultiPoly.zero(XY), MultiPoly.const(XY, 1))
            + tuple(MultiPoly.zero(XY) for _ in range(5))
        )
        e = z.exp()
        for k in range(e.order + 1):
            assert e.coefficient(k) == MultiPoly.const(XY, Q(1, factorial(k)))

    def test_exp_requires_zero_constant_term(self):
        s = TruncSeries.constant(XY, 1, 4)
        with pytest.raises(PrecisionError):
            s.exp()

    @given(
        st.lists(
            polys(XY, max_exp=2, max_terms=3),
            min_size=3,
            max_size=5,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_log_exp_round_trip(self, tail):
        coeffs = [MultiPoly.zero(XY)] + tail
        s = TruncSeries(tuple(coeffs))
        assert s.exp().log() == s

    @given(
        st.lists(
            polys(XY, max_exp=2, max_terms=3),
            min_size=3,
            max_size=5,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_exp_log_round_trip(self, tail):
        coeffs = [MultiPoly.const(XY, 1)] + tail
        s = TruncSeries(tuple(coeffs))
        assert s.log().exp() == s


class TestDeformedExponential:
    def test_coefficients_match_definition(self):
        # F(aZ, Y): coefficient of Z^n is a^n Y^C(n,2) / n!
        f = deformed_exponential(y_mono(0, 2), y_mono(1), 6)
        for n in range(7):
            expected = MultiPoly(
                XY, {(0, comb(n, 2)): Q(2**n, factorial(n))}
            )
            assert f.coefficient(n) == expected

    def test_beta_power_and_alpha_y(self):
        # F(YZ, Y^2): coefficient of Z^n is Y^n (Y^2)^C(n,2) / n!
        f = deformed_exponential(y_mono(1), y_mono(2), 5)
        for n in range(6):
            expected = MultiPoly(XY, {(0, n + 2 * comb(n, 2)): Q(1, factorial(n))})
            assert f.coefficient(n) == expected

    @pytest.mark.parametrize(
        "scale, beta_power, alpha_y_power",
        [(1, 1, 0), (2, 1, 0), (-2, 1, 0), (1, 2, 0), (1, 2, 1), (Q(1, 3), 3, 2)],
    )
    def test_factor_shapes_match_definition(self, scale, beta_power, alpha_y_power):
        # The first five are the shapes of genfun._factors.  The Z^n
        # coefficient is scale^n / n! * Y^(alpha_y_power n + beta_power C(n,2)).
        f = deformed_exponential(y_mono(alpha_y_power, scale), y_mono(beta_power), 12)
        for n in range(13):
            y = alpha_y_power * n + beta_power * comb(n, 2)
            expected = MultiPoly(XY, {(0, y): Q(scale) ** n / factorial(n)})
            assert f.coefficient(n) == expected

    @pytest.mark.parametrize("scale", [1, 2, -2])
    @pytest.mark.parametrize("beta_power", [1, 2])
    @pytest.mark.parametrize("alpha_y_power", [0, 1])
    def test_closed_form_matches_the_oracle(self, scale, beta_power, alpha_y_power):
        alpha, beta = y_mono(alpha_y_power, scale), y_mono(beta_power)
        for order in range(16):
            closed = deformed_exponential(alpha, beta, order)
            assert_same(closed, oracle_deformed_exponential(alpha, beta, order))

    def test_negative_order_refused(self):
        with pytest.raises(StructureError, match="order must be non-negative"):
            deformed_exponential(y_mono(0), y_mono(1), -1)
        with pytest.raises(StructureError, match="order must be non-negative"):
            deformed_exponential(y_mono(0) + y_mono(1), y_mono(1), -1)

    def test_general_form(self):
        alpha = MultiPoly(XY, {(1, 0): Q(1)})  # X
        beta = MultiPoly(XY, {(0, 1): Q(1)})  # Y
        f = deformed_exponential(alpha, beta, 4)
        for n in range(5):
            expected = MultiPoly(XY, {(n, comb(n, 2)): Q(1, factorial(n))})
            assert f.coefficient(n) == expected


class TestPowPoly:
    def test_integer_exponent_matches_repeated_product(self):
        f = deformed_exponential(y_mono(0), y_mono(1), 5)
        three = MultiPoly.const(XY, 3)
        assert f.pow_poly(three) == f * f * f

    def test_power_law(self):
        f = deformed_exponential(y_mono(0, 2), y_mono(1), 5)
        x = MultiPoly.var(XY, "X")
        lhs = f.pow_poly(x) * f.pow_poly(x)
        rhs = f.pow_poly(x * 2)
        assert lhs == rhs


def exp_log_power(f: TruncSeries, exponent: MultiPoly) -> TruncSeries:
    """Oracle: the power exp(exponent * log f) that Miller's recurrence replaced."""
    if exponent.vars != f.vars:
        raise StructureError("exponent over differing variable list")
    return (f.log() * exponent).exp()


QUARTERS = st.builds(Q, st.integers(-8, 8), st.just(4))  # half and quarter steps


@st.composite
def power_exponents(draw):
    """a X + b with quarter-integer a and b, or one of the constants -1 and 0."""
    x, one = MultiPoly.var(XY, "X"), MultiPoly.const(XY, 1)
    if draw(st.booleans()):
        return one * draw(st.sampled_from([-1, 0]))
    return x * draw(QUARTERS) + one * draw(QUARTERS)


class TestMillerPower:
    @given(
        st.lists(polys(XY, max_exp=2, max_terms=3), min_size=1, max_size=6),
        power_exponents(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exp_of_log(self, tail, e):
        f = TruncSeries([MultiPoly.const(XY, 1)] + tail)
        assert f.pow_poly(e) == exp_log_power(f, e)

    @given(st.lists(polys(XY, max_exp=2, max_terms=3), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_inverse(self, tail):
        f = TruncSeries([MultiPoly.const(XY, 1)] + tail)
        inverse = f.pow_poly(MultiPoly.const(XY, -1))
        assert f * inverse == TruncSeries.constant(XY, 1, f.order)

    @pytest.mark.parametrize(
        "head",
        [MultiPoly.const(XY, c) for c in (0, 2, -1)]
        + [MultiPoly.const(XY, 1) + MultiPoly.var(XY, "X")],
    )
    def test_constant_term_other_than_one_is_refused(self, head):
        one = MultiPoly.const(XY, 1)
        f = TruncSeries([head, one, one])
        with pytest.raises(PrecisionError):
            f.pow_poly(MultiPoly.var(XY, "X"))


class TestFilter:
    def test_filter_every_nth(self):
        one = MultiPoly.const(XY, 1)
        s = TruncSeries(tuple(one for _ in range(7)))
        f = s.filter_every_nth(3)
        for k in range(7):
            expected = one if k % 3 == 0 else MultiPoly.zero(XY)
            assert f.coefficient(k) == expected


# ----------------------------------------------------------------------
# Oracle: the MultiPoly-coefficient series that the integer kernel replaced,
# kept verbatim (renamed) so the kernel can be compared against it.


class OracleSeries:
    """Immutable truncated series with MultiPoly coefficients."""

    __slots__ = ("order", "coeffs", "vars")

    def __init__(self, coeffs: Sequence[MultiPoly]):
        cs = tuple(coeffs)
        if not cs:
            raise StructureError("a series needs at least the constant coefficient")
        vs = cs[0].vars
        for c in cs:
            if c.vars != vs:
                raise StructureError("series coefficients over differing variables")
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "order", len(cs) - 1)
        object.__setattr__(self, "vars", vs)

    def __setattr__(self, *_):
        raise AttributeError("OracleSeries is immutable")

    # ------------------------------------------------------------------

    @staticmethod
    def constant(variables: Iterable[str], c: Scalar, order: int) -> "OracleSeries":
        vs = tuple(variables)
        coeffs = [MultiPoly.const(vs, c)] + [
            MultiPoly.zero(vs) for _ in range(order)
        ]
        return OracleSeries(coeffs)

    @staticmethod
    def one(variables: Iterable[str], order: int) -> "OracleSeries":
        return OracleSeries.constant(variables, 1, order)

    def coefficient(self, k: int) -> MultiPoly:
        return self.coeffs[k]

    def truncate(self, order: int) -> "OracleSeries":
        if order > self.order:
            raise StructureError("cannot extend truncation order")
        return OracleSeries(self.coeffs[: order + 1])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OracleSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    # ------------------------------------------------------------------
    # ring operations

    def _common_order(self, other: "OracleSeries") -> int:
        if self.vars != other.vars:
            raise StructureError("series over differing variable lists")
        return min(self.order, other.order)

    def __add__(self, other: Union["OracleSeries", Scalar, MultiPoly]) -> "OracleSeries":
        if not isinstance(other, OracleSeries):
            c = other if isinstance(other, MultiPoly) else MultiPoly.const(self.vars, other)
            return OracleSeries((self.coeffs[0] + c,) + self.coeffs[1:])
        n = self._common_order(other)
        return OracleSeries(
            [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    __radd__ = __add__

    def __neg__(self) -> "OracleSeries":
        return OracleSeries([-c for c in self.coeffs])

    def __sub__(self, other) -> "OracleSeries":
        if not isinstance(other, OracleSeries):
            return self + (-Q(other) if not isinstance(other, MultiPoly) else -other)
        return self + (-other)

    def __mul__(self, other: Union["OracleSeries", Scalar, MultiPoly]) -> "OracleSeries":
        if not isinstance(other, OracleSeries):
            return OracleSeries([c * other for c in self.coeffs])
        n = self._common_order(other)
        zero = MultiPoly.zero(self.vars)
        out: List[MultiPoly] = []
        for k in range(n + 1):
            acc = zero
            for i in range(k + 1):
                a = self.coeffs[i]
                b = other.coeffs[k - i]
                if a.terms and b.terms:
                    acc = acc + a * b
            out.append(acc)
        return OracleSeries(out)

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # analytic operations

    def exp(self) -> "OracleSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence k*g_k = sum_{j=1..k} j*s_j*g_{k-j},
        which is quadratic in the order overall.
        """
        if not self.coeffs[0].is_zero():
            raise PrecisionError("exp requires zero constant term")
        vs = self.vars
        g: List[MultiPoly] = [MultiPoly.const(vs, 1)]
        for k in range(1, self.order + 1):
            acc = MultiPoly.zero(vs)
            for j in range(1, k + 1):
                sj = self.coeffs[j]
                if sj.terms:
                    acc = acc + (sj * g[k - j]) * j
            g.append(acc * Q(1, k))
        return OracleSeries(g)

    def log(self) -> "OracleSeries":
        """log of a series with constant term 1 (derivative recurrence)."""
        if self.coeffs[0] != MultiPoly.const(self.vars, 1):
            raise PrecisionError("log requires constant term 1")
        vs = self.vars
        t: List[MultiPoly] = [MultiPoly.zero(vs)]
        for k in range(1, self.order + 1):
            acc = self.coeffs[k] * k
            for j in range(1, k):
                if t[j].terms:
                    acc = acc - (t[j] * self.coeffs[k - j]) * j
            t.append(acc * Q(1, k))
        return OracleSeries(t)

    def pow_poly(self, exponent: MultiPoly) -> "OracleSeries":
        """self ** exponent for a polynomial exponent, via exp(e * log self)."""
        if exponent.vars != self.vars:
            raise StructureError("exponent over differing variable list")
        return (self.log() * exponent).exp()

    def filter_every_nth(self, n: int) -> "OracleSeries":
        """Zero every coefficient of Z^k with n not dividing k."""
        if n <= 0:
            raise PrecisionError("filter stride must be positive")
        zero = MultiPoly.zero(self.vars)
        return OracleSeries(
            [c if k % n == 0 else zero for k, c in enumerate(self.coeffs)]
        )

    def __str__(self) -> str:
        parts = [f"({c})*Z^{k}" for k, c in enumerate(self.coeffs) if c.terms]
        return " + ".join(parts) if parts else "0"


def oracle_deformed_exponential(alpha: MultiPoly, beta: MultiPoly, order: int):
    coeffs = []
    for n in range(order + 1):
        coeffs.append((alpha**n) * (beta ** comb(n, 2)) * Q(1, factorial(n)))
    return OracleSeries(coeffs)


def both(poly_list):
    return TruncSeries(poly_list), OracleSeries(poly_list)


def assert_same(series, oracle):
    assert series.order == oracle.order
    for k in range(oracle.order + 1):
        assert series.coefficient(k) == oracle.coefficient(k), k


V5 = ("a", "b", "c", "d", "e")


def monomials(variables, coeffs=None):
    """c * (one monomial with exponents 0..2); zero when c is."""
    exps = st.tuples(*[st.integers(0, 2)] * len(variables))
    coeffs = fractions() if coeffs is None else coeffs
    return st.builds(lambda e, c: MultiPoly(variables, {e: c}), exps, coeffs)


def poly_lists(variables=XY, max_exp=2, max_terms=3, min_size=1, max_size=5):
    return st.lists(
        polys(variables, max_exp=max_exp, max_terms=max_terms),
        min_size=min_size,
        max_size=max_size,
    )


class TestAgainstOracle:
    @given(poly_lists(), poly_lists(), fractions(), polys(XY, max_exp=2, max_terms=3))
    @settings(max_examples=60, deadline=None)
    def test_ring_operations(self, p, q, c, m):
        (s, os), (t, ot) = both(p), both(q)
        assert_same(s + t, os + ot)
        assert_same(s - t, os - ot)
        assert_same(-s, -os)
        assert_same(s * t, os * ot)
        assert_same(s * c, os * c)
        assert_same(c * s, c * os)
        assert_same(s * m, os * m)
        assert_same(s + c, os + c)
        assert_same(s - c, os - c)
        assert_same(s + m, os + m)
        assert_same(s - m, os - m)

    @given(poly_lists(min_size=2), polys(XY, max_exp=1, max_terms=2), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_exp_log_pow_filter(self, tail, e, n):
        zero, one = MultiPoly.zero(XY), MultiPoly.const(XY, 1)
        s, os = both([zero] + tail)
        u, ou = both([one] + tail)
        assert_same(s.exp(), os.exp())
        assert_same(u.log(), ou.log())
        assert_same(u.pow_poly(e), ou.pow_poly(e))
        assert_same(s.filter_every_nth(n), os.filter_every_nth(n))

    @given(poly_lists(max_size=4), poly_lists(max_size=4), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equality_and_hash(self, p, q, same):
        if same:
            q = list(p)
        (s, os), (t, ot) = both(p), both(q)
        assert (s == t) == (os == ot)
        if s == t:
            assert hash(s) == hash(t)
        # Equal series reached by different routes are equal structurally.
        assert s * 2 * Q(1, 2) == s
        assert hash(s * 2 * Q(1, 2)) == hash(s)
        assert (s - s) == TruncSeries.constant(XY, 0, s.order)

    @given(
        polys(XY, max_exp=2, max_terms=2),
        polys(XY, max_exp=2, max_terms=2),
        st.integers(0, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_deformed_exponential_polynomial_inputs(self, alpha, beta, order):
        assert_same(
            deformed_exponential(alpha, beta, order),
            oracle_deformed_exponential(alpha, beta, order),
        )

    @given(
        st.sampled_from([XY, MASTER_VARS]).flatmap(
            lambda vs: st.tuples(
                st.one_of(st.just(MultiPoly.zero(vs)), monomials(vs)),
                monomials(vs, fractions().filter(bool)),
            )
        ),
        st.integers(0, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_deformed_exponential_single_terms(self, alpha_beta, order):
        # One monomial per coefficient: the product kernel never runs.
        alpha, beta = alpha_beta
        with mock.patch("tuttekit.series._sum_of_products", side_effect=AssertionError):
            f = deformed_exponential(alpha, beta, order)
        assert_same(f, oracle_deformed_exponential(alpha, beta, order))

    @given(
        poly_lists(),
        poly_lists(),
        poly_lists(),
        st.integers(-3, 3),
        st.integers(1, 4),
        st.integers(0, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_of_products(self, p, q, r, w, divisor, low):
        (a, oa), (b, ob), (c, oc) = both(p), both(q), both(r)
        full = (oa * ob + ob * oc * w) * Q(1, divisor)
        zero = MultiPoly.zero(XY)
        tail = [full.coefficient(k) if k >= low else zero for k in range(full.order + 1)]
        got = sum_of_products([(1, a, b), (w, b, c)], divisor, low)
        assert_same(got, OracleSeries(tail))
        if low == 0:
            assert got == (a * b + b * c * w) * Q(1, divisor)

    def test_sum_of_products_refuses_differing_variables(self):
        a = TruncSeries((MultiPoly.const(XY, 1),))
        other = TruncSeries((MultiPoly.const(("X",), 1),))
        message = re.escape("variable lists differ: ('X', 'Y') vs ('X',)")
        with pytest.raises(StructureError, match=message):
            sum_of_products([(1, a, a), (1, other, other)])
        with pytest.raises(StructureError, match=message):
            a * other

    @given(
        poly_lists(V5, max_exp=1, max_terms=2, min_size=3, max_size=3),
        polys(V5, max_exp=1, max_terms=2),
    )
    @settings(max_examples=20, deadline=None)
    def test_five_variables(self, tail, e):
        zero, one = MultiPoly.zero(V5), MultiPoly.const(V5, 1)
        s, os = both([zero] + tail)
        u, ou = both([one] + tail)
        assert_same(s * u, os * ou)
        assert_same(s.exp(), os.exp())
        assert_same(u.log(), ou.log())
        assert_same(u.pow_poly(e), ou.pow_poly(e))


class TestExponentLimits:
    def test_total_degree_overflow_is_refused(self):
        top = MultiPoly(XY, {(0, 2**32 - 1): 1})
        s = TruncSeries((MultiPoly.zero(XY), top))
        assert s.coefficient(1) == top
        # Y^(2^32 - 1) * Y would carry into the X field if it were not refused.
        with pytest.raises(CapacityError):
            s * MultiPoly.var(XY, "Y")
        with pytest.raises(CapacityError):
            TruncSeries((MultiPoly(XY, {(1, 2**32 - 1): 1}),))

    def test_negative_exponents_are_refused(self):
        with pytest.raises(StructureError):
            TruncSeries((MultiPoly(XY, {(-1, 0): 1}),))


Q_ONLY = MultiPoly.var(("q",), "q")
ONE_PLUS_Y = TruncSeries([MultiPoly.const(XY, 1), y_mono(1)])

REFUSALS = {
    "no coefficients": (
        lambda: TruncSeries([]),
        StructureError,
        "a series needs at least the constant coefficient",
    ),
    "coefficients over two lists": (
        lambda: TruncSeries([y_mono(1), Q_ONLY]),
        StructureError,
        "variable lists differ: ('X', 'Y') vs ('q',)",
    ),
    "assignment": (
        lambda: setattr(ONE_PLUS_Y, "order", 3),
        AttributeError,
        "TruncSeries is immutable",
    ),
    "polynomial over another list": (
        lambda: ONE_PLUS_Y + Q_ONLY,
        StructureError,
        "variable lists differ: ('X', 'Y') vs ('q',)",
    ),
    "series over another list": (
        lambda: ONE_PLUS_Y + TruncSeries([Q_ONLY]),
        StructureError,
        "variable lists differ: ('X', 'Y') vs ('q',)",
    ),
    "log off constant term 1": (
        lambda: TruncSeries([MultiPoly.const(XY, 2)]).log(),
        PrecisionError,
        "log requires constant term 1",
    ),
    "exponent over another list": (
        lambda: ONE_PLUS_Y.pow_poly(Q_ONLY),
        StructureError,
        "variable lists differ: ('X', 'Y') vs ('q',)",
    ),
    "filter stride 0": (
        lambda: ONE_PLUS_Y.filter_every_nth(0),
        PrecisionError,
        "filter stride must be positive",
    ),
    "alpha and beta over two lists": (
        lambda: deformed_exponential(y_mono(1), Q_ONLY, 2),
        StructureError,
        "variable lists differ: ('X', 'Y') vs ('q',)",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])
