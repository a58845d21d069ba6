"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is stored as a map from exponent tuples to nonzero
coefficients, relative to a fixed ordered tuple of variable names.  Each
integral coefficient is an int and every other one a Fraction; the
constructor and every ring operation keep that invariant, so integer
polynomials stay on ints.  All arithmetic is exact; there is no floating
point anywhere in this package.

`FrozenRecord` is the one immutable base of every slots value class in the
package, MultiPoly and TruncSeries among them.  The three input rules of the
package live here too, each once: `exact_int` (an integer argument is a plain
int), `_narrow` (an exact scalar is an int or a Fraction) and `common_vars`
(operands share one variable list).

`rows` and `from_rows` are the one dense layout of a polynomial in two
variables, and `str` the one printer.  `compose_affine` is the one change
of variables v -> a + b*v on a univariate coefficient list; it keeps int
coefficients as ints.
"""

from __future__ import annotations

from fractions import Fraction as Q
from operator import add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import ExactDivisionError, StructureError

Exps = Tuple[int, ...]
Scalar = Union[int, Q]


def _grlex_key(exps: Exps) -> Tuple[int, Exps]:
    return (sum(exps), exps)


class FrozenRecord:
    """Immutable slots record; repr, same-type equality, hash and copy read `_fields`."""

    __slots__ = ()

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()  # so a copy is checked as the original was

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


def exact_int(value, what: str) -> int:
    """value itself if it is an int; a bool, float or numpy int raises StructureError."""
    if type(value) is not int:
        raise StructureError(f"{what} must be an int, not {value!r}")
    return value


def _narrow(c, what: str = "coefficient") -> Scalar:
    """c as an int when it is integral, as a Fraction otherwise.

    Any other c, a float, bool, string or numpy int too, raises StructureError.
    """
    if type(c) is int:
        return c
    if type(c) is not Q:
        raise StructureError(f"{what} {c!r} is neither an int nor a Fraction")
    return c.numerator if c.denominator == 1 else c


def common_vars(first, *rest) -> Tuple[str, ...]:
    """The variable list of every operand; two that differ raise StructureError."""
    for other in rest:
        if other.vars != first.vars:
            raise StructureError(f"variable lists differ: {first.vars} vs {other.vars}")
    return first.vars


def _canonical(terms: Dict[Exps, Scalar]) -> Dict[Exps, Scalar]:
    """terms without zeros, with each non-int coefficient narrowed."""
    return {e: c if type(c) is int else _narrow(c) for e, c in terms.items() if c}


def compose_affine(coeffs: Sequence[Scalar], a: Scalar, b: Scalar = 1) -> List[Scalar]:
    """Coefficients of p(a + b*v), lowest degree first, for p = sum coeffs[k] v^k.

    Horner's rule on the list: each step multiplies the partial result by
    a + b*v and adds the next coefficient.  Int inputs give int outputs.
    """
    out: List[Scalar] = []
    for c in reversed(coeffs):
        out = [a * lo + b * hi for lo, hi in zip(out + [0], [0] + out)]
        out[0] += c
    return out


class MultiPoly(FrozenRecord):
    """Immutable sparse polynomial over Q in named variables."""

    __slots__ = _fields = ("vars", "terms")

    def __init__(self, variables: Iterable[str], terms: Mapping[Exps, Scalar]):
        vs = tuple(variables)
        canon: Dict[Exps, Scalar] = {}
        for exps, c in terms.items():
            if len(exps) != len(vs):
                raise StructureError(
                    f"exponent vector {exps} does not match variables {vs}"
                )
            c = _narrow(c)
            if c:
                canon[tuple(exps)] = c
        self._set(vars=vs, terms=canon)

    @classmethod
    def _trusted(cls, vs: Tuple[str, ...], terms: Dict[Exps, Scalar]) -> "MultiPoly":
        """Wrap canonical nonzero coefficients under len(vs)-tuples, unchecked."""
        p = object.__new__(cls)
        p._set(vars=vs, terms=terms)
        return p

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero(variables: Iterable[str]) -> "MultiPoly":
        return MultiPoly(variables, {})

    @staticmethod
    def const(variables: Iterable[str], c: Scalar) -> "MultiPoly":
        vs = tuple(variables)
        return MultiPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def var(variables: Iterable[str], name: str, power: int = 1) -> "MultiPoly":
        vs = tuple(variables)
        if name not in vs:
            raise StructureError(f"unknown variable {name!r} among {vs}")
        if exact_int(power, "power") < 0:
            raise StructureError("negative polynomial power")
        exps = tuple(power if v == name else 0 for v in vs)
        return MultiPoly(vs, {exps: 1})

    # ------------------------------------------------------------------
    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, name: str) -> int:
        i = self.vars.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def has_integer_coefficients(self) -> bool:
        return all(type(c) is int for c in self.terms.values())

    def __hash__(self) -> int:  # terms is a dict
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            common_vars(self, other)
            return other
        return MultiPoly.const(self.vars, other)

    def __add__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        other = self._coerce(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.pop(exps, 0) + c
            if s:
                terms[exps] = s if type(s) is int else _narrow(s)
        return MultiPoly._trusted(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        return (-self) + other

    def __mul__(self, other: Union["MultiPoly", Scalar]) -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            c = _narrow(other)
            return MultiPoly._trusted(
                self.vars, _canonical({e: cc * c for e, cc in self.terms.items()})
            )
        common_vars(self, other)
        terms: Dict[Exps, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly._trusted(self.vars, _canonical(terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if exact_int(n, "power") < 0:
            raise StructureError("negative polynomial power")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # substitution, division, evaluation

    def substitute(self, bindings: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Substitute polynomials for variables; unbound variables pass through.

        The binding values (if any) share one variable list, the output's; it
        defaults to this polynomial's own list.  Every unbound variable must
        exist in the output list.
        """
        out_vars = common_vars(*bindings.values()) if bindings else self.vars
        images = {
            v: bindings[v] if v in bindings else MultiPoly.var(out_vars, v)
            for v in self.vars
        }
        result = MultiPoly.zero(out_vars)
        for exps, c in self.terms.items():
            term = MultiPoly.const(out_vars, c)
            for v, e in zip(self.vars, exps):
                if e:
                    term = term * images[v] ** e
            result = result + term
        return result

    def divide_exact(self, d: "MultiPoly") -> "MultiPoly":
        """Exact quotient self / d in the polynomial ring.

        Raises ExactDivisionError if d does not divide self.  Each quotient
        term is the exact Fraction of two leading coefficients, narrowed, so
        int polynomials never pass through a float.
        """
        common_vars(self, d)
        if d.is_zero():
            raise ExactDivisionError("division by zero polynomial")
        d_lead = max(d.terms, key=_grlex_key)
        d_lc = d.terms[d_lead]
        rem = self
        quot: Dict[Exps, Scalar] = {}  # leading terms strictly decrease
        while not rem.is_zero():
            r_lead = max(rem.terms, key=_grlex_key)
            t = tuple(a - b for a, b in zip(r_lead, d_lead))
            if any(e < 0 for e in t):
                raise ExactDivisionError("non-exact polynomial division")
            quot[t] = c = _narrow(Q(rem.terms[r_lead], d_lc))
            rem = rem - MultiPoly._trusted(self.vars, {t: c}) * d
        return MultiPoly._trusted(self.vars, quot)

    def evaluate(self, values: Mapping[str, Scalar]) -> Q:
        """Evaluate at rational values given for every variable."""
        vals = []
        for v in self.vars:
            if v not in values:
                raise StructureError(f"no value for variable {v!r}")
            vals.append(_narrow(values[v], "value"))
        total = Q(0)
        for exps, c in self.terms.items():
            t = c
            for val, e in zip(vals, exps):
                if e:
                    t *= val**e
            total += t
        return total

    # ------------------------------------------------------------------
    # ordering, printing, serialization

    def __str__(self) -> str:
        """Ascending graded-lex rendering with explicit separators: 3+4y+x^2."""
        if not self.terms:
            return "0"
        parts: List[str] = []
        for exps, c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0])):
            mono = "".join(
                v if e == 1 else f"{v}^{e}" for v, e in zip(self.vars, exps) if e
            )
            mag = abs(c)
            body = mono if mono and mag == 1 else f"{mag}{mono}"
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"MultiPoly({self.vars}, {self})"

    def to_json_dict(self) -> dict:
        """Canonical JSON encoding, each coefficient a decimal string.

        Only integer polynomials have one; any other raises StructureError.
        """
        terms = []
        for exps, c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0])):
            if type(c) is not int:
                raise StructureError(f"non-integer coefficient {c} in final output")
            terms.append({"coeff": str(c), "exps": list(exps)})
        return {"vars": list(self.vars), "terms": terms}

    @staticmethod
    def from_json_dict(data: dict) -> "MultiPoly":
        terms = {
            tuple(t["exps"]): Q(t["coeff"]) for t in data["terms"]
        }
        return MultiPoly(data["vars"], terms)

    def rows(self) -> List[List[Scalar]]:
        """Coefficient rows of a polynomial in two variables v0, v1.

        rows()[i][j] is the coefficient of v0^i v1^j.  Each row ends at its
        last nonzero coefficient, so a power of v0 with no terms has the row
        [], and the zero polynomial has no rows.
        """
        if len(self.vars) != 2:
            raise StructureError(f"rows need two variables, not {self.vars}")
        height = self.degree_in(self.vars[0]) + 1 if self.terms else 0
        rows: List[List[Scalar]] = [[] for _ in range(height)]
        for (i, j), c in self.terms.items():
            row = rows[i]
            row.extend([0] * (j + 1 - len(row)))
            row[j] = c
        return rows

    @staticmethod
    def from_rows(
        variables: Iterable[str], rows: Iterable[Sequence[Scalar]]
    ) -> "MultiPoly":
        """sum rows[i][j] v0^i v1^j over two variables; zeros are dropped."""
        cells = {(i, j): c for i, r in enumerate(rows) for j, c in enumerate(r) if c}
        return MultiPoly(variables, cells)
