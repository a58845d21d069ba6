from fractions import Fraction as Q
from math import gcd

import pytest
from hypothesis import strategies as st

from tuttekit.lattice import LatticeBasis, VectorConfig
from tuttekit.poly import MultiPoly

VARS_XY = ("x", "y")


def assert_refused(call, error, message):
    """`call()` raises exactly `error`, and its message is exactly `message`."""
    with pytest.raises(error) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (error, message)


def fractions(max_num=30, max_den=6):
    return st.builds(
        Q,
        st.integers(min_value=-max_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


def polys(variables=VARS_XY, max_exp=4, max_terms=6, coeffs=None):
    if coeffs is None:
        coeffs = fractions()
    exps = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp) for _ in variables]
    )
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(
        lambda d: MultiPoly(variables, d)
    )


def nonzero_polys(variables=VARS_XY, **kw):
    return polys(variables, **kw).filter(lambda p: not p.is_zero())


def int_matrices(max_dim=4, max_entry=9):
    def build(rows, cols, flat):
        it = iter(flat)
        return [[next(it) for _ in range(cols)] for _ in range(rows)]

    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.integers(min_value=-max_entry, max_value=max_entry),
                min_size=r * c,
                max_size=r * c,
            ).map(lambda flat: build(r, c, flat))
        )
    )


def _in_random_basis(draw, d, coords):
    """The configuration with lattice coordinates `coords` in rank d.

    Half the time the lattice basis is a random triangular one with
    half-integer entries above the diagonal instead of the standard basis.
    """
    if draw(st.booleans()):
        lattice = LatticeBasis.standard(d)
    else:
        halves = st.sampled_from([Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1)])
        diagonal = st.sampled_from([1, 2, 3])

        def entry(i, j):
            return draw(halves) if i < j else draw(diagonal) if i == j else Q(0)

        lattice = LatticeBasis(
            tuple(tuple(entry(i, j) for i in range(d)) for j in range(d))
        )
    vectors = tuple(
        tuple(sum(c * col[i] for c, col in zip(cs, lattice.basis)) for i in range(d))
        for cs in coords
    )
    return VectorConfig(vectors=vectors, lattice=lattice)


@st.composite
def configs(draw):
    """<= 8 vectors with lattice coordinates in [-3, 3], in rank 2 or 3,
    in the standard or a random half-integer basis."""
    d = draw(st.sampled_from([2, 3]))
    coords = draw(
        st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=8)
    )
    return _in_random_basis(draw, d, coords)


@st.composite
def line_configs(draw):
    """<= 8 vectors k u on at most 3 lines, in rank 2 or 3.

    Each u is a primitive vector of lattice coordinates in [-3, 3], and
    each k in [-4, 4], so zero vectors and opposite vectors occur; the basis
    is standard or random half-integer, as in `configs`.
    """
    d = draw(st.sampled_from([2, 3]))
    primitive = st.tuples(*[st.integers(-3, 3)] * d).filter(lambda u: gcd(*u) == 1)
    directions = draw(st.lists(primitive, min_size=1, max_size=3))
    multiples = st.tuples(st.sampled_from(directions), st.integers(-4, 4))
    coords = [
        tuple(k * c for c in u)
        for u, k in draw(st.lists(multiples, min_size=1, max_size=8))
    ]
    return _in_random_basis(draw, d, coords)
