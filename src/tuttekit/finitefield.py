"""Finite-group point counting for verifying (arithmetic) Tutte polynomials.

For a lattice of rank d and any q >= 1, the characters Hom(Lambda, Z/q)
form the group (Z/q)^d, identified through the lattice basis.  A
configuration vector a with integer lattice coordinates c vanishes at the
points t with c . t = 0 (mod q).  Histogramming how many vectors vanish at
each point gives sum_t Y^h(t) = q^(d-r) psi(q, Y), valid whenever every
subset multiplicity divides q.  Interpolation therefore samples
q = L, 2L, ..., (r+1)L, with L the multiplicity lcm.  The torus (F_p^*)^d of
the prime-field checks is the case q = p - 1: F_p^* is cyclic of that
order, so a generator identifies the two histograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Dict

import numpy as np

from .errors import AdmissibilityError, CapacityError, PrimeSearchError
from .lattice import VectorConfig, multiplicity_lcm, subset_stats
from .poly import MultiPoly, narrow
from .tutte import (
    COBOUNDARY_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    tutte_from_coboundary,
)

# Points counted per histogram; q^d beyond this refuses to run.  Read at
# call time, so a test can lower it.
DEFAULT_POINT_CAP = 200_000_000


@dataclass(frozen=True)
class TorusProfile:
    prime: int
    rank: int  # lattice rank d; the torus has (p-1)^d points
    histogram: Dict[int, int]  # incidence count -> number of points

    @property
    def q(self) -> int:
        return self.prime - 1

    def total(self) -> int:
        return sum(self.histogram.values())


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


def find_admissible_prime(divisor: int, min_p: int = 2, cap: int = 100_000) -> int:
    """Smallest prime p >= min_p with divisor | p - 1."""
    if divisor < 1:
        raise AdmissibilityError("divisor must be positive")
    p = max(min_p, 2)
    while p <= cap:
        if (p - 1) % divisor == 0 and is_prime(p):
            return p
        p += 1
    raise PrimeSearchError(
        f"no prime p <= {cap} with {divisor} | p - 1 found above {min_p}"
    )


def admissible_divisor(config: VectorConfig) -> int:
    """The lcm L of all subset multiplicities; a group order q is admissible
    when L divides q."""
    return multiplicity_lcm(config)


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
    at_q: Dict[int, int] = {}
    for (i, j), c in psi.poly.terms.items():
        at_q[j] = at_q.get(j, 0) + narrow(c) * q ** (d - psi.rank + i)
    return {j: c for j, c in at_q.items() if c}


def torus_profile(config: VectorConfig, p: int) -> TorusProfile:
    """Exact incidence histogram over all (p-1)^d torus points.

    Refuses to run when the multiplicity lcm does not divide p - 1.
    """
    q = p - 1
    divisor = admissible_divisor(config)
    if q % divisor != 0:
        raise AdmissibilityError(
            f"prime {p} is inadmissible: subset multiplicity lcm {divisor} "
            f"does not divide q = {q}"
        )
    return _enumerate_profile(config, p)


def _enumerate_profile(config: VectorConfig, p: int) -> TorusProfile:
    """The torus (F_p^*)^d, counted as the group (Z/(p-1))^d."""
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    q, d = p - 1, config.lattice.rank
    _check_points(q, d)
    return TorusProfile(prime=p, rank=d, histogram=_group_histogram(config, q))


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
    """Check sum over torus points of Y^h equals q^(d-r) psi(q, Y) exactly."""
    profile = torus_profile(config, p)
    return profile.histogram == _scaled_coboundary(psi, profile.q, profile.rank)


def tutte_via_interpolation(config: VectorConfig) -> TuttePolynomial:
    """Recover the arithmetic Tutte polynomial from group histograms alone.

    psi(X, Y) has X-degree at most r, so histograms at the r + 1 admissible
    values q = L, 2L, ..., (r+1)L determine it by Lagrange interpolation in
    X.  The largest of them is checked against the point cap before any
    counting starts.
    """
    divisor = admissible_divisor(config)
    d = config.lattice.rank
    r = subset_stats(config, range(len(config))).rank
    qs = [k * divisor for k in range(1, r + 2)]
    _check_points(qs[-1], d)

    samples = []  # (q, psi(q, Y) as MultiPoly over (X, Y))
    for q in qs:
        histogram = _group_histogram(config, q)
        scaled = {(0, h): Q(c, q ** (d - r)) for h, c in histogram.items()}
        samples.append((q, MultiPoly(COBOUNDARY_VARS, scaled)))

    x_var = MultiPoly.var(COBOUNDARY_VARS, "X")
    psi = MultiPoly.zero(COBOUNDARY_VARS)
    for i, (qi, val) in enumerate(samples):
        basis = MultiPoly.const(COBOUNDARY_VARS, 1)
        denom = Q(1)
        for j, (qj, _) in enumerate(samples):
            if i == j:
                continue
            basis = basis * (x_var - qj)
            denom *= qi - qj
        psi = psi + val * basis * Q(1, denom)
    if not psi.has_integer_coefficients():
        raise AdmissibilityError("interpolated coboundary is not integral")
    cob = CoboundaryPolynomial(poly=psi, rank=r)
    return tutte_from_coboundary(cob, ambient_rank=d, flavor="arithmetic")


def verify_classical_mode(
    config: VectorConfig,
    field_size: int,
    classical_psi: CoboundaryPolynomial,
) -> bool:
    """Histogram over (F_s^*)^d against the classical coboundary polynomial.

    Requires every subset multiplicity to divide s - 2, so that the torus
    sees each hypertorus with the classical (multiplicity-free) count; the
    right side is (s-1)^(d-r) psi_classical(s-1, Y).
    """
    s = field_size
    if not is_prime(s):
        raise AdmissibilityError(f"{s} is not prime")
    divisor = multiplicity_lcm(config)
    if s == 2 or (s - 2) % divisor != 0:
        raise AdmissibilityError(
            f"field size {s} inadmissible for classical mode: "
            f"multiplicity lcm {divisor} must divide s - 2 = {s - 2}"
        )
    profile = _enumerate_profile(config, s)
    return profile.histogram == _scaled_coboundary(
        classical_psi, profile.q, profile.rank
    )
