"""Finite-torus point counting for verifying (arithmetic) Tutte polynomials.

For a prime p and a lattice of rank d, the torus of characters is
identified with (F_p^*)^d via the lattice basis.  Each configuration
vector a, with integer lattice coordinates c, cuts out the hypertorus of
points t with prod t_i^(c_i) = 1.  Histogramming how many hypertori each
torus point lies on gives a polynomial identity against the coboundary
polynomial, valid whenever every subset multiplicity divides p - 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Optional

import numpy as np

from .errors import AdmissibilityError, CapacityError, PrimeSearchError
from .lattice import VectorConfig, int_matrix_rank, multiplicity_lcm
from .poly import MultiPoly
from .tutte import COBOUNDARY_VARS, CoboundaryPolynomial

# Points enumerated per profile; (p-1)^d beyond this refuses to run.
DEFAULT_POINT_CAP = 200_000_000
_CHUNK_THRESHOLD = 1 << 22


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

    def as_poly(self) -> MultiPoly:
        """The histogram as a polynomial in Y (over the (X, Y) variables)."""
        return MultiPoly(
            COBOUNDARY_VARS, {(0, h): c for h, c in self.histogram.items()}
        )


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


def admissible_divisor(config: VectorConfig, known: Optional[int] = None) -> int:
    """The lcm of all subset multiplicities, or a caller-supplied multiple of it.

    A known value is accepted only if the exact lcm divides it.
    """
    divisor = multiplicity_lcm(config)
    if known is None:
        return divisor
    if known % divisor != 0:
        raise AdmissibilityError(
            f"claimed divisor {known} is not a multiple of the multiplicity "
            f"lcm {divisor}"
        )
    return known


def torus_profile(
    config: VectorConfig,
    p: int,
    *,
    divisor: Optional[int] = None,
    point_cap: int = DEFAULT_POINT_CAP,
) -> TorusProfile:
    """Exact incidence histogram over all (p-1)^d torus points.

    Refuses to run when the multiplicity lcm does not divide p - 1.
    """
    q = p - 1
    divisor = admissible_divisor(config, known=divisor)
    if q % divisor != 0:
        raise AdmissibilityError(
            f"prime {p} is inadmissible: subset multiplicity lcm {divisor} "
            f"does not divide q = {q}"
        )
    return _enumerate_profile(config, p, point_cap=point_cap)


def _enumerate_profile(
    config: VectorConfig, p: int, point_cap: int = DEFAULT_POINT_CAP
) -> TorusProfile:
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    q = p - 1
    d = config.lattice.rank
    if q**d > point_cap:
        raise CapacityError(f"(p-1)^d = {q**d} exceeds point cap {point_cap}")

    if len(config) == 0 or d == 0:
        return TorusProfile(prime=p, rank=d, histogram={0: q**d})

    # Per-vector power tables: table[i][v-1] = v^(c_i mod q) mod p.
    values = np.arange(1, p, dtype=np.int64)
    tables = []
    for coords in config.coord_matrix:
        axis_tables = [
            np.array([pow(int(v), c % q, p) for v in values], dtype=np.int64)
            for c in coords
        ]
        tables.append(axis_tables)

    counts = np.zeros(q**d, dtype=np.int16)
    for axis_tables in tables:
        # Product over the trailing d-1 axes, then chunk over the first axis
        # to bound peak memory.
        tail = axis_tables[-1]
        for t in reversed(axis_tables[1:-1]):
            tail = (t[:, None] * tail[None, :]).reshape(-1) % p
        if d == 1:
            counts += (axis_tables[0] == 1).astype(np.int16)
            continue
        head = axis_tables[0]
        block = q ** (d - 1)
        if q**d <= _CHUNK_THRESHOLD:
            full = (head[:, None] * tail[None, :]).reshape(-1) % p
            counts += (full == 1).astype(np.int16)
        else:
            for i in range(q):
                chunk = head[i] * tail % p
                counts[i * block : (i + 1) * block] += (chunk == 1).astype(np.int16)

    hist_counts = np.bincount(counts)
    histogram = {h: int(c) for h, c in enumerate(hist_counts) if c}
    return TorusProfile(prime=p, rank=d, histogram=histogram)


def _config_rank(config: VectorConfig) -> int:
    cols = config.coord_matrix
    if not cols:
        return 0
    return int_matrix_rank([list(row) for row in zip(*cols)])


def verify_finite_field_identity(
    config: VectorConfig,
    p: int,
    psi: CoboundaryPolynomial,
    *,
    divisor: Optional[int] = None,
) -> bool:
    """Check sum over torus points of Y^h equals q^(d-r) psi(q, Y) exactly."""
    profile = torus_profile(config, p, divisor=divisor)
    q = profile.q
    d = config.lattice.rank
    r = psi.rank
    x_val = MultiPoly.const(COBOUNDARY_VARS, q)
    rhs = psi.poly.substitute({"X": x_val}) * q ** (d - r)
    return profile.as_poly() == rhs


def tutte_via_interpolation(
    config: VectorConfig,
    *,
    divisor: Optional[int] = None,
    point_cap: int = DEFAULT_POINT_CAP,
    prime_cap: int = 100_000,
) -> "TuttePolynomial":
    """Recover the arithmetic Tutte polynomial from torus histograms alone.

    psi(X, Y) has X-degree at most r, so histograms at r + 1 distinct
    admissible values q determine it by Lagrange interpolation in X.
    """
    from fractions import Fraction as Q

    from .tutte import TuttePolynomial, tutte_from_coboundary

    divisor = admissible_divisor(config, known=divisor)
    d = config.lattice.rank
    r = _config_rank(config)
    qs: list = []
    q = divisor
    while len(qs) < r + 1 and q <= prime_cap:
        if is_prime(q + 1):
            if q**d > point_cap:
                raise CapacityError(
                    f"interpolation needs q={q} but (q)^{d} exceeds the point cap"
                )
            qs.append(q)
        q += divisor
    if len(qs) < r + 1:
        raise PrimeSearchError(
            f"could not find {r + 1} admissible q values below {prime_cap}"
        )

    samples = []  # (q, psi(q, Y) as MultiPoly over (X, Y))
    for q in qs:
        profile = _enumerate_profile(config, q + 1, point_cap=point_cap)
        scaled = profile.as_poly() * Q(1, q ** (d - r))
        samples.append((q, scaled))

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
    from .tutte import CoboundaryPolynomial

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
    q = s - 1
    d = config.lattice.rank
    r = classical_psi.rank
    x_val = MultiPoly.const(COBOUNDARY_VARS, q)
    rhs = classical_psi.poly.substitute({"X": x_val}) * q ** (d - r)
    return profile.as_poly() == rhs
