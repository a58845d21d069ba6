"""Truncated power series whose coefficients are multivariate polynomials.

A TruncSeries of order N holds the coefficients of Z^0 .. Z^N of a power
series in a distinguished variable Z; each coefficient is a polynomial over
a shared variable list (typically ("X", "Y")).  Operations never extend the
truncation order silently: the result order is the minimum of the inputs.

Series arithmetic runs on integer numerators over one denominator per
coefficient.  Each coefficient is stored as a pair ({key: int}, den) with
den > 0 sharing no factor with all the numerators, no zero numerators, and
zero stored as ({}, 1).  Every operation reduces each result coefficient
once, so results stay exact and equal series are equal structurally.
MultiPoly appears only at the boundary: the constructor takes MultiPoly
coefficients, scalar and MultiPoly operands are converted once, and
`coefficient(k)` returns a MultiPoly.  `integer_coefficient(k, factor)`
skips MultiPoly altogether: it returns factor times the Z^k coefficient as
{exponents: int}, checking that the product is integral.

`pow_poly` raises a series with constant term 1 to a polynomial power by
J. C. P. Miller's recurrence, n g_n = sum_k ((a+1)k - n) f_k g_{n-k}: one
quadratic pass, against three for exp(a log f).  `exp` and `log` remain for
series that need them as such (the type-A weight series).
`sum_of_products` forms w_1 a_1 b_1 + w_2 a_2 b_2 + ... over a divisor, one
kernel call per coefficient from Z^low up; a series product is one term.

A key packs an exponent vector (e_1, ..., e_n) into one int, with the total
degree in the top field: T * B^n + e_1 * B^(n-1) + ... + e_n, B = 2^32.
Adding keys multiplies monomials as long as T stays below B; when it does
not, the sum's key is at least B^(n+1), so one comparison per result
detects the overflow and raises CapacityError instead of a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction as Q
from math import comb, factorial, gcd, lcm
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import CapacityError, ExactDivisionError, PrecisionError, StructureError
from .poly import Exps, FrozenRecord, MultiPoly, Scalar

Nums = Dict[int, int]  # packed exponent key -> integer numerator
Coeff = Tuple[Nums, int]  # integer numerators over one positive denominator
ZERO: Coeff = ({}, 1)
ONE: Coeff = ({0: 1}, 1)

_FIELD_BITS = 32
_FIELD_MASK = (1 << _FIELD_BITS) - 1


def _pack(exps: Exps) -> int:
    key = sum(exps)
    if any(e < 0 for e in exps):
        raise StructureError(f"series exponents {exps} must be non-negative")
    if key > _FIELD_MASK:
        raise CapacityError(
            f"series exponents {exps} reach total degree 2^{_FIELD_BITS}"
        )
    for e in exps:
        key = (key << _FIELD_BITS) | e
    return key


def _unpack(key: int, n: int) -> Exps:
    exps = []
    for _ in range(n):
        exps.append(key & _FIELD_MASK)
        key >>= _FIELD_BITS
    return tuple(reversed(exps))


def _from_poly(p: MultiPoly) -> Coeff:
    den = lcm(*(c.denominator for c in p.terms.values()))
    nums = {_pack(e): c.numerator * (den // c.denominator) for e, c in p.terms.items()}
    return nums, den


def _sum_of_products(
    n: int, products: Iterable[Tuple[int, Coeff, Coeff]], divisor: int = 1
) -> Coeff:
    """(w_1 a_1 b_1 + w_2 a_2 b_2 + ...) / divisor for integer weights w_i, a
    positive integer divisor and keys over n variables, over the lcm of the
    denominators of a_i b_i."""
    products = [(w, a, b) for w, a, b in products if w and a[0] and b[0]]
    den = lcm(*(a[1] * b[1] for _, a, b in products))
    acc: Nums = {}
    get = acc.get
    for w, (a, a_den), (b, b_den) in products:
        if len(a) > len(b):
            a, b = b, a
        scale = w * (den // (a_den * b_den))
        b_items = tuple(b.items())
        for e1, c1 in a.items():
            c1 *= scale
            for e2, c2 in b_items:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
    if acc and max(acc) >> (_FIELD_BITS * (n + 1)):
        raise CapacityError(f"series exponents reach total degree 2^{_FIELD_BITS}")
    acc = {e: c for e, c in acc.items() if c}
    if not acc:
        return ZERO
    den *= divisor
    g = gcd(den, *acc.values())
    if g == 1:
        return acc, den
    return {e: c // g for e, c in acc.items()}, den // g


class TruncSeries(FrozenRecord):
    """Immutable truncated series with polynomial coefficients."""

    __slots__ = ("order", "vars", "_coeffs")
    _fields = ("vars", "_coeffs")  # the order is one less than len(_coeffs)

    def __init__(self, coeffs: Sequence[MultiPoly]):
        cs = tuple(coeffs)
        if not cs:
            raise StructureError("a series needs at least the constant coefficient")
        vs = cs[0].vars
        for c in cs:
            if c.vars != vs:
                raise StructureError("series coefficients over differing variables")
        self._set(vars=vs, _coeffs=tuple(map(_from_poly, cs)), order=len(cs) - 1)

    @classmethod
    def _make(cls, vs: Tuple[str, ...], coeffs: List[Coeff]) -> "TruncSeries":
        """Wrap canonical coefficient pairs as they are, unchecked."""
        s = object.__new__(cls)
        s._set(vars=vs, _coeffs=tuple(coeffs), order=len(coeffs) - 1)
        return s

    def __reduce__(self):
        coeffs = [self.coefficient(k) for k in range(self.order + 1)]
        return TruncSeries, (coeffs,)  # so a copy is checked as the original was

    # ------------------------------------------------------------------

    @staticmethod
    def constant(variables: Iterable[str], c: Scalar, order: int) -> "TruncSeries":
        vs = tuple(variables)
        return TruncSeries._make(
            vs, [_from_poly(MultiPoly.const(vs, c))] + [ZERO] * order
        )

    def coefficient(self, k: int) -> MultiPoly:
        nums, den = self._coeffs[k]
        nv = len(self.vars)
        return MultiPoly(self.vars, {_unpack(e, nv): Q(c, den) for e, c in nums.items()})

    def integer_coefficient(self, k: int, factor: int) -> Dict[Exps, int]:
        """factor times the Z^k coefficient, as integer terms.

        The numerators share no factor with den, so the product is integral
        exactly when den divides factor; ExactDivisionError otherwise.
        """
        nums, den = self._coeffs[k]
        scale, rest = divmod(factor, den)
        if rest:
            raise ExactDivisionError(
                f"{factor} times the Z^{k} coefficient is not integral"
            )
        nv = len(self.vars)
        return {_unpack(e, nv): c * scale for e, c in nums.items()}

    def __hash__(self):  # each coefficient's numerators are a dict
        return hash(
            (self.vars, tuple((frozenset(n.items()), d) for n, d in self._coeffs))
        )

    # ------------------------------------------------------------------
    # ring operations

    def _operand(self, other: Union[Scalar, MultiPoly]) -> Coeff:
        """A scalar or MultiPoly operand as a coefficient pair."""
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.vars, other)
        elif other.vars != self.vars:
            raise StructureError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )
        return _from_poly(other)

    def __add__(self, other: Union["TruncSeries", Scalar, MultiPoly]) -> "TruncSeries":
        nv = len(self.vars)
        if not isinstance(other, TruncSeries):
            head = ((1, self._coeffs[0], ONE), (1, self._operand(other), ONE))
            return TruncSeries._make(
                self.vars, [_sum_of_products(nv, head)] + list(self._coeffs[1:])
            )
        if self.vars != other.vars:
            raise StructureError("series over differing variable lists")
        return TruncSeries._make(
            self.vars,
            [
                _sum_of_products(nv, ((1, a, ONE), (1, b, ONE)))
                for a, b in zip(self._coeffs, other._coeffs)  # to the lesser order
            ],
        )

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries._make(
            self.vars, [({e: -c for e, c in n.items()}, d) for n, d in self._coeffs]
        )

    def __sub__(self, other) -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other: Union["TruncSeries", Scalar, MultiPoly]) -> "TruncSeries":
        a, nv = self._coeffs, len(self.vars)
        if not isinstance(other, TruncSeries):
            c = self._operand(other)
            return TruncSeries._make(
                self.vars, [_sum_of_products(nv, ((1, ak, c),)) for ak in a]
            )
        return sum_of_products(((1, self, other),))

    __rmul__ = __mul__

    # ------------------------------------------------------------------
    # analytic operations

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence k*g_k = sum_{j=1..k} j*s_j*g_{k-j},
        which is quadratic in the order overall.
        """
        s = self._coeffs
        if s[0][0]:
            raise PrecisionError("exp requires zero constant term")
        nv = len(self.vars)
        g = [ONE]
        for k in range(1, self.order + 1):
            products = ((j, s[j], g[k - j]) for j in range(1, k + 1))
            g.append(_sum_of_products(nv, products, k))
        return TruncSeries._make(self.vars, g)

    def log(self) -> "TruncSeries":
        """log of a series with constant term 1 (derivative recurrence)."""
        s, nv = self._coeffs, len(self.vars)
        if s[0] != ONE:
            raise PrecisionError("log requires constant term 1")
        t = [ZERO]
        for k in range(1, self.order + 1):
            products = [(k, s[k], ONE)]
            products += [(-j, t[j], s[k - j]) for j in range(1, k)]
            t.append(_sum_of_products(nv, products, k))
        return TruncSeries._make(self.vars, t)

    def pow_poly(self, exponent: MultiPoly) -> "TruncSeries":
        """self ** exponent for a polynomial exponent and constant term 1.

        Uses J. C. P. Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7): g = f^a
        satisfies n*g_n = sum_{k=1..n} ((a+1)k - n) f_k g_{n-k}, from
        g' f = a f' g.  One pass, with (a+1) f_k formed once per k and every
        k with f_k = 0 skipped.
        """
        if exponent.vars != self.vars:
            raise StructureError("exponent over differing variable list")
        f, nv = self._coeffs, len(self.vars)
        if f[0] != ONE:
            raise PrecisionError("a polynomial power requires constant term 1")
        a1 = self._operand(exponent + 1)
        ks = [k for k in range(1, self.order + 1) if f[k][0]]
        a1f = {k: _sum_of_products(nv, ((1, a1, f[k]),)) for k in ks}
        g = [ONE]
        for n in range(1, self.order + 1):
            products = []
            for k in ks:
                if k > n:
                    break
                products += ((k, a1f[k], g[n - k]), (-n, f[k], g[n - k]))
            g.append(_sum_of_products(nv, products, n))
        return TruncSeries._make(self.vars, g)

    def filter_every_nth(self, n: int) -> "TruncSeries":
        """Zero every coefficient of Z^k with n not dividing k."""
        if n <= 0:
            raise PrecisionError("filter stride must be positive")
        return TruncSeries._make(
            self.vars,
            [c if k % n == 0 else ZERO for k, c in enumerate(self._coeffs)],
        )


# ----------------------------------------------------------------------
# sums of products of series

Products = Sequence[Tuple[int, TruncSeries, TruncSeries]]


def sum_of_products(products: Products, divisor: int = 1, low: int = 0) -> TruncSeries:
    """(w_1 a_1 b_1 + w_2 a_2 b_2 + ...) / divisor for integer weights w_i and
    a positive integer divisor, to the least order of the factors.

    Only the coefficients of Z^low and up are computed, each by one kernel
    call; the ones below are left zero.
    """
    vs = products[0][1].vars
    if any(s.vars != vs for _, a, b in products for s in (a, b)):
        raise StructureError("series over differing variable lists")
    order = min(min(a.order, b.order) for _, a, b in products)
    coeffs = [ZERO] * min(low, order + 1)
    for k in range(low, order + 1):
        terms = ((w, a._coeffs[i], b._coeffs[k - i]) for w, a, b in products for i in range(k + 1))
        coeffs.append(_sum_of_products(len(vs), terms, divisor))
    return TruncSeries._make(vs, coeffs)


# ----------------------------------------------------------------------
# deformed exponential series


def deformed_exponential(alpha: MultiPoly, beta: MultiPoly, order: int) -> TruncSeries:
    """The deformed exponential F(alpha Z, beta): its Z^n coefficient is
    alpha^n * beta^C(n,2) / n!, over the variables of alpha and beta.

    When alpha has at most one term and beta exactly one, as in every factor
    of the generating functions, each coefficient is written as its one
    monomial.  Otherwise alpha^n, beta^n and beta^C(n,2) are carried from one
    coefficient to the next by products.
    """
    if alpha.vars != beta.vars:
        raise StructureError("alpha and beta over differing variable lists")
    if order < 0:
        raise StructureError("order must be non-negative")
    vs, nv = alpha.vars, len(alpha.vars)
    coeffs = []
    if len(alpha.terms) <= 1 and len(beta.terms) == 1:
        e_a, c_a = next(iter(alpha.terms.items()), ((0,) * nv, 0))
        ((e_b, c_b),) = beta.terms.items()
        for n in range(order + 1):  # one monomial, reduced once
            m = comb(n, 2)
            num = c_a.numerator**n * c_b.numerator**m
            den = c_a.denominator**n * c_b.denominator**m * factorial(n)
            g = gcd(num, den)
            key = _pack(tuple(n * i + m * j for i, j in zip(e_a, e_b)))
            coeffs.append(({key: num // g}, den // g) if num else ZERO)
        return TruncSeries._make(vs, coeffs)
    a, b = _from_poly(alpha), _from_poly(beta)
    # alpha^n, beta^n and beta^C(n,2); C(n+1,2) = C(n,2) + n.
    a_n = b_n = b_c2 = ONE
    for n in range(order + 1):
        coeffs.append(_sum_of_products(nv, ((1, a_n, b_c2),), factorial(n)))
        a_n = _sum_of_products(nv, ((1, a_n, a),))
        b_c2 = _sum_of_products(nv, ((1, b_c2, b_n),))
        b_n = _sum_of_products(nv, ((1, b_n, b),))
    return TruncSeries._make(vs, coeffs)
