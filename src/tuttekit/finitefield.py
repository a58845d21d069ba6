"""Finite-group point counting for verifying (arithmetic) Tutte polynomials.

For a lattice of rank d and any q >= 1, the characters Hom(Lambda, Z/q)
form the group (Z/q)^d, identified through the lattice basis.  A
configuration vector a with integer lattice coordinates c vanishes at the
points t with c . t = 0 (mod q).  Histogramming how many vectors vanish at
each point gives sum_t Y^h(t) = q^(d-r) psi(q, Y), valid whenever every
subset multiplicity divides q.  Interpolation therefore samples
q = L, 2L, ..., (r+1)L, with L the multiplicity lcm, and `verify` checks the
identity at q = L and 2L.  The torus (F_p^*)^d over GF(p) is the case
q = p - 1: F_p^* is cyclic of that order, so a generator identifies the two
histograms.
"""

from __future__ import annotations

from itertools import zip_longest
from math import factorial, gcd, lcm
from typing import Dict, List, Sequence

import numpy as np

from .errors import AdmissibilityError, CapacityError
from .lattice import VectorConfig, multiplicity_lcm, sublattice_census
from .poly import MultiPoly
from .tutte import (
    COBOUNDARY_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    tutte_from_coboundary,
)

# Points counted per histogram; q^d beyond this refuses to run.  Read at
# call time, so a test can lower it.
DEFAULT_POINT_CAP = 200_000_000


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_points(q: int, d: int) -> None:
    if q**d > DEFAULT_POINT_CAP:
        raise CapacityError(
            f"q^d = {q}^{d} = {q**d} exceeds point cap {DEFAULT_POINT_CAP}"
        )


def _group_histogram(config: VectorConfig, q: int) -> Dict[int, int]:
    """Number of points t of (Z/q)^d at which exactly h vectors vanish, per h.

    The dot products over the trailing d-1 axes are formed once.  Stepping
    the first coordinate of t then adds c_0 to each of them and subtracts q
    where that wraps, so memory stays at |A| * q^(d-1) small integers.
    """
    n, d = len(config), config.lattice.rank
    if n == 0 or d == 0:
        return {0: q**d}
    # Values stay below 2q, so the smallest unsigned type holding 2q - 2
    # suffices, and min(s, s - q) reduces s < 2q mod q: s - q wraps around
    # to a large value exactly when s < q.
    dtype = next(
        t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
        if 2 * q - 2 <= np.iinfo(t).max
    )
    wrap = dtype(q)
    coords = np.array([[c % q for c in row] for row in config.coord_matrix])
    steps = np.arange(q, dtype=np.int64)

    def multiples(axis: int) -> np.ndarray:  # [a, t] = c_{a,axis} * t mod q
        return (coords[:, axis, None] * steps % q).astype(dtype)

    # In rank 1 there are no trailing axes, and stepping q times through
    # one-column arrays would cost a numpy call per point: count it at once.
    stepped = d > 1
    tail = np.zeros((n, 1), dtype=dtype)
    for axis in range(1 if stepped else 0, d):
        tail = tail[:, :, None] + multiples(axis)[:, None, :]
        tail = np.minimum(tail, tail - wrap).reshape(n, -1)

    head = coords[:, :1].astype(dtype)
    spare = np.empty_like(tail)
    hist = np.zeros(n + 1, dtype=np.int64)
    for _ in range(q if stepped else 1):
        hist += np.bincount(np.count_nonzero(tail == 0, axis=0), minlength=n + 1)
        tail += head
        np.subtract(tail, wrap, out=spare)
        np.minimum(tail, spare, out=tail)
    return {h: int(c) for h, c in enumerate(hist) if c}


def _scaled_coboundary(psi: CoboundaryPolynomial, q: int, d: int) -> Dict[int, int]:
    """q^(d-r) psi(q, Y) as {Y-degree: coefficient}: what the histogram must be."""
    at_q: List[int] = []
    for row in reversed(psi.poly.rows()):  # Horner's rule in X
        at_q = [q * a + c for a, c in zip_longest(at_q, row, fillvalue=0)]
    scale = q ** (d - psi.rank)
    return {j: scale * c for j, c in enumerate(at_q) if c}


def _enumerate_profile(config: VectorConfig, p: int) -> Dict[int, int]:
    """Incidence histogram over the torus (F_p^*)^d, counted as (Z/(p-1))^d."""
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    q, d = p - 1, config.lattice.rank
    _check_points(q, d)
    return _group_histogram(config, q)


def group_identity_holds(
    config: VectorConfig, q: int, psi: CoboundaryPolynomial
) -> bool:
    """Histogram over (Z/q)^d against q^(d-r) psi(q, Y), counted once.

    The identity holds when the multiplicity lcm divides q, which the
    caller guarantees; a q^d past the point cap raises before counting.
    """
    d = config.lattice.rank
    _check_points(q, d)
    return _group_histogram(config, q) == _scaled_coboundary(psi, q, d)


def verify_finite_field_identity(
    config: VectorConfig, p: int, psi: CoboundaryPolynomial
) -> bool:
    """Check sum over torus points of Y^h equals q^(d-r) psi(q, Y) exactly.

    Refuses to count when p is not prime or the multiplicity lcm does not
    divide q = p - 1; primality is checked before the census runs.
    """
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    q, divisor = p - 1, multiplicity_lcm(config)
    if q % divisor != 0:
        raise AdmissibilityError(
            f"prime {p} is inadmissible: subset multiplicity lcm {divisor} "
            f"does not divide q = {q}"
        )
    histogram = _enumerate_profile(config, p)
    return histogram == _scaled_coboundary(psi, q, config.lattice.rank)


def _interpolate(step: int, ys: Sequence[int]) -> List[int]:
    """Int coefficients, lowest first, of p with p(k step) = ys[k-1], k >= 1.

    The degree of p is below len(ys) = r + 1.  In t = X / step the nodes are
    t = 1, ..., r + 1, where Newton's forward differences D^j of the ys are
    ints and p = sum_j D^j (t-1)...(t-j) / j!.  Scaled by r!, every term is
    an int polynomial in t, expanded by Horner's rule; the coefficient of
    X^j is that of t^j over r! step^j.  Raises AdmissibilityError when a
    division leaves a remainder, that is, when p is not integral.
    """
    r = len(ys) - 1
    diffs = list(ys)
    for k in range(1, r + 1):
        for i in range(r, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    # r! p = c_0 + (t-1)(c_1 + (t-2)(c_2 + ...)), with c_j = D^j r!/j!.
    out: List[int] = []
    scale = 1  # r!/j!
    for j in range(r, -1, -1):
        out = [hi - (j + 1) * lo for lo, hi in zip(out + [0], [0] + out)]
        out[0] += diffs[j] * scale
        scale *= j
    coefficients = []
    den = factorial(r)
    for a in out:
        c, rem = divmod(a, den)
        if rem:
            raise AdmissibilityError("interpolated coboundary is not integral")
        coefficients.append(c)
        den *= step
    return coefficients


def tutte_via_interpolation(config: VectorConfig) -> TuttePolynomial:
    """Recover the arithmetic Tutte polynomial from group histograms alone.

    psi(X, Y) has X-degree at most r, so histograms at the r + 1 admissible
    values q = L, 2L, ..., (r+1)L determine it: the coefficient of each
    power of Y is interpolated in X on its own, as a scalar polynomial.
    The largest q is checked against the point cap before any counting
    starts.  One sublattice census gives both L and r, the largest rank of
    a subset lattice.
    """
    census = sublattice_census(config)
    divisor = lcm(*(stats.multiplicity for stats, _ in census))
    r = max(stats.rank for stats, _ in census)
    d = config.lattice.rank
    qs = [k * divisor for k in range(1, r + 2)]
    _check_points(qs[-1], d)

    # samples[k][h]: the Y^h coefficient of psi(qs[k], Y), an int when psi is
    # integral.
    samples = []
    for q in qs:
        histogram = _group_histogram(config, q)
        scale = q ** (d - r)
        sample = []
        for h in range(len(config) + 1):
            c, rem = divmod(histogram.get(h, 0), scale)
            if rem:
                raise AdmissibilityError("interpolated coboundary is not integral")
            sample.append(c)
        samples.append(sample)
    # columns[h][i]: the X^i Y^h coefficient of psi.
    columns = [_interpolate(divisor, values) for values in zip(*samples)]
    psi = MultiPoly.from_rows(COBOUNDARY_VARS, zip(*columns))
    cob = CoboundaryPolynomial(poly=psi, rank=r)
    return tutte_from_coboundary(cob, ambient_rank=d, flavor="arithmetic")


def verify_classical_mode(
    config: VectorConfig,
    field_size: int,
    classical_psi: CoboundaryPolynomial,
) -> bool:
    """Histogram over (F_s^*)^d against the classical coboundary polynomial.

    A subset B vanishes at q^(d-r(B)) |Hom(T_B, Z/q)| points of (Z/q)^d,
    q = s - 1, where T_B is the torsion of Lambda / ZB, of order m(B).  That
    is the classical count q^(d-r(B)) for every B when q is prime to the
    multiplicity lcm, which is required; the right side is then
    q^(d-r) psi_classical(q, Y).
    """
    s = field_size
    if not is_prime(s):
        raise AdmissibilityError(f"{s} is not prime")
    q, divisor = s - 1, multiplicity_lcm(config)
    if gcd(divisor, q) != 1:
        raise AdmissibilityError(
            f"field size {s} inadmissible for classical mode: "
            f"multiplicity lcm {divisor} must be prime to s - 1 = {q}"
        )
    histogram = _enumerate_profile(config, s)
    return histogram == _scaled_coboundary(classical_psi, q, config.lattice.rank)
