"""Finite-group point counting for verifying (arithmetic) Tutte polynomials.

For a lattice of rank d and any q >= 1, the characters Hom(Lambda, Z/q)
form the group (Z/q)^d, identified through the lattice basis.  A
configuration vector a with integer lattice coordinates c vanishes at the
points t with c . t = 0 (mod q).  Histogramming how many vectors vanish at
each point gives sum_t Y^h(t) = q^(d-r) psi(q, Y) whenever q is a multiple
of every torsion exponent: B vanishes at q^(d-r(B)) |Hom(T_B, Z/q)| points,
T_B the torsion of Lambda / ZB, and that is m(B) exactly then.  The X^r
term of psi is Y^z, z the number of zero vectors, and the X^(r-1) term is
a sum over the rank-1 subsets, which lie on lines through 0; both are read
off the coordinates, so interpolation samples only q = E, 2E, ...,
(r-1)E, E the lcm of the torsion exponents.  E divides the multiplicity
lcm L, so `verify`'s checks at q = L and 2L stay valid.
The torus (F_p^*)^d over GF(p) is the case q = p - 1: F_p^* is cyclic of
that order, so a generator identifies the two histograms.
"""

from __future__ import annotations

from collections import Counter
from itertools import zip_longest
from math import factorial, gcd, lcm
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import AdmissibilityError, CapacityError, StructureError
from .lattice import VectorConfig, _census_fold, multiplicity_lcm, snf_invariant_factors
from .poly import MultiPoly, compose_affine
from .tutte import (
    COBOUNDARY_VARS,
    CoboundaryPolynomial,
    TuttePolynomial,
    tutte_from_coboundary,
)

# Points counted per histogram; q^d beyond this refuses to run.  Read at
# call time, so a test can lower it.
DEFAULT_POINT_CAP = 200_000_000

# Bytes of the point mask per counter chunk: big enough that joins and
# carries are few, small enough to stay in cache.
_CHUNK_BYTES = 1 << 16


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


def _field_q(p: int) -> int:
    """q = p - 1, the order of F_p^*; refuses a p that is not prime."""
    if not is_prime(p):
        raise AdmissibilityError(f"{p} is not prime")
    return p - 1


def _check_points(q: int, d: int) -> None:
    if q**d > DEFAULT_POINT_CAP:
        raise CapacityError(
            f"q^d = {q}^{d} = {q**d} exceeds point cap {DEFAULT_POINT_CAP}"
        )


def _spaced_bits(period: int, q: int) -> int:
    """Bit mask of the multiples of period below q, by doubling."""
    bits, span = 1, period
    while span < q:
        bits |= bits << span
        span *= 2
    return bits & ((1 << q) - 1)


def _last_axis_rows(c: int, q: int, width: int) -> List[bytes]:
    """rows[s]: the t in Z/q with c t = s (mod q), as a width-byte bit row.

    With g = gcd(c, q), the solutions of c t = c t0 are t0 + (q/g) Z, and
    t0 in [0, q/g) reaches every solvable s once; other rows are empty.
    """
    period = q // gcd(c, q)
    base = _spaced_bits(period, q)
    rows = [bytes(width)] * q
    for t in range(period):
        rows[c * t % q] = (base << t).to_bytes(width, "little")
    return rows


def _lift(c: int, q: int, below: List[bytes]) -> List[bytes]:
    """Rows over one more leading axis, with coefficient c, per residue s.

    The points (t, rest) with c t + (rest) = s are those where the rest
    solves s - c t, so the row at s joins below[(s - c t) mod q] over t.
    """
    if c == 0:
        return [row * q for row in below]
    # doubled[s:s + q][u] is below[(s + u) mod q]; pick takes u = -c t.
    pick = itemgetter(*[-c * t % q for t in range(q)])
    doubled = below * 2
    return [b"".join(pick(doubled[s : s + q])) for s in range(q)]


def _first_axis_masks(
    c: int, q: int, below: List[bytes], chunks: List[range]
) -> Iterator[int]:
    """Per chunk of first coordinates t, the mask of c t + (rest) = 0."""
    for ts in chunks:
        yield int.from_bytes(b"".join([below[-c * t % q] for t in ts]), "little")


def _count_into(planes: List[int], mask: int, weight: int) -> None:
    """Add weight at each set bit of mask to the bit-sliced counter planes.

    planes[i] holds bit i of every point's count.  Each set bit of weight
    adds mask from its own plane up, with ripple carries.
    """
    planes.extend([0] * (weight.bit_length() - len(planes)))
    for low in range(weight.bit_length()):
        if not weight >> low & 1:
            continue
        carry, i = mask, low
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            planes[i], carry = planes[i] ^ carry, planes[i] & carry
            i += 1


def _split_counts(planes: List[int], points: int, histogram: Counter) -> None:
    """Add to histogram[h] the points whose count in planes is h.

    Splits the point mask on each plane from the top, depth first, so at
    most one pending mask per plane is alive.
    """
    stack = [(points, 0, len(planes))]
    while stack:
        points, h, i = stack.pop()
        if i == 0:
            histogram[h] += points.bit_count()
            continue
        i -= 1
        high = points & planes[i]
        low = points ^ high
        if low:
            stack.append((low, h, i))
        if high:
            stack.append((high, h + (1 << i), i))


def _group_histogram(config: VectorConfig, q: int) -> Dict[int, int]:
    """Number of points t of (Z/q)^d at which exactly h vectors vanish, per h.

    Each vector's zero set {t : c . t = 0 (mod q)} is a bit mask over
    (Z/q)^d, last axis fastest, with each last-axis row padded to
    ceil(q/8) bytes.  Suffix tables give the mask: the table of axes
    k..d-1 holds, per residue s, the rows where c_k t_k + ... = s, and
    each axis joins the table below it.  The first axis needs only s = 0,
    so rank 1 builds one row.  Equal rows mod q are counted once, with
    their multiplicity as weight.

    The masks go into bit-sliced counters, one plane per bit of h with
    ripple carries, and splitting the points on the planes gives each h
    its count by `int.bit_count`.  The counters are cut into chunks of
    about _CHUNK_BYTES along the first axis, so each operation works on a
    small int.  Padding bits are in no mask, so they are taken off h = 0.

    Rows are sorted by reversed coefficients, so rows sharing a suffix are
    adjacent and only the current row's d - 1 tables stay alive.  With
    M = q^(d-1) ceil(q/8) bytes the size of a mask, live memory is about
    (2 + log2 n) M: at most 1 + log2 n counter planes, and the tables,
    of which the one of axes 1..d-1 is as large as a mask and each
    further one q times smaller.
    """
    n, d = len(config), config.lattice.rank
    if n == 0 or d == 0:
        return {0: q**d}
    width = (q + 7) // 8
    weights = Counter(tuple(c % q for c in row) for row in config.coord_matrix)
    # A chunk is a run of first coordinates, `block` bytes each; rank 1
    # has one row of one block.
    if d == 1:
        block, chunks = width, [range(1)]
    else:
        block = q ** (d - 2) * width
        step = max(1, _CHUNK_BYTES // block)
        chunks = [range(a, min(a + step, q)) for a in range(0, q, step)]
    counters: List[List[int]] = [[] for _ in chunks]
    tables: List[List[bytes]] = [[] for _ in range(d)]  # tables[k], k >= 1
    previous: Sequence[int] = ()
    for row in sorted(weights, key=lambda r: r[::-1]):
        if d == 1:
            masks: Iterable[int] = [_spaced_bits(q // gcd(row[0], q), q)]
        else:
            # Axes from `shared` on keep the previous row's tables.
            shared = d
            while previous and shared > 1 and row[shared - 1] == previous[shared - 1]:
                shared -= 1
            for k in range(1, shared):
                tables[k] = []
            if shared == d:
                tables[d - 1] = _last_axis_rows(row[d - 1], q, width)
            for k in range(min(shared, d - 1) - 1, 0, -1):
                tables[k] = _lift(row[k], q, tables[k + 1])
            masks = _first_axis_masks(row[0], q, tables[1], chunks)
        for planes, mask in zip(counters, masks):
            _count_into(planes, mask, weights[row])
        previous = row

    histogram: Counter = Counter()
    for ts, planes in zip(chunks, counters):
        _split_counts(planes, (1 << (len(ts) * block * 8)) - 1, histogram)
    histogram[0] -= q ** (d - 1) * width * 8 - q**d  # the padding bits
    return {h: histogram[h] for h in sorted(histogram) if histogram[h]}


def _scaled_coboundary(psi: CoboundaryPolynomial, q: int, d: int) -> Dict[int, int]:
    """q^(d-r) psi(q, Y) as {Y-degree: coefficient}: what the histogram must be."""
    at_q: List[int] = []
    for row in reversed(psi.poly.rows()):  # Horner's rule in X
        at_q = [q * a + c for a, c in zip_longest(at_q, row, fillvalue=0)]
    scale = q ** (d - psi.rank)
    return {j: scale * c for j, c in enumerate(at_q) if c}


def _enumerate_profile(config: VectorConfig, p: int) -> Dict[int, int]:
    """Incidence histogram over the torus (F_p^*)^d, counted as (Z/(p-1))^d."""
    q, d = _field_q(p), config.lattice.rank
    _check_points(q, d)
    return _group_histogram(config, q)


def group_identity_holds(
    config: VectorConfig, q: int, psi: CoboundaryPolynomial
) -> bool:
    """Histogram over (Z/q)^d against q^(d-r) psi(q, Y), counted once.

    The identity holds when q is a multiple of every torsion exponent, as
    every multiple of the multiplicity lcm is; the caller guarantees it.
    A q below 1, a psi of rank past d or a q^d past the cap raises first.
    """
    if q < 1:
        raise AdmissibilityError(f"q = {q} is not a group order: it must be at least 1")
    d = config.lattice.rank
    if psi.rank > d:
        raise StructureError(f"psi has rank {psi.rank}, past the lattice rank {d}")
    _check_points(q, d)
    return _group_histogram(config, q) == _scaled_coboundary(psi, q, d)


def verify_finite_field_identity(
    config: VectorConfig, p: int, psi: CoboundaryPolynomial
) -> bool:
    """Check sum over torus points of Y^h equals q^(d-r) psi(q, Y) exactly.

    Refuses to count when p is not prime or the multiplicity lcm does not
    divide q = p - 1; primality is checked before the census runs.
    """
    q, divisor = _field_q(p), multiplicity_lcm(config)
    if q % divisor != 0:
        raise AdmissibilityError(
            f"prime {p} is inadmissible: subset multiplicity lcm {divisor} "
            f"does not divide q = {q}"
        )
    return group_identity_holds(config, q, psi)


def _interpolate(step: int, ys: Sequence[int]) -> List[int]:
    """Int coefficients, lowest first, of p with p(k step) = ys[k-1], k >= 1.

    With n = len(ys) nodes, the degree of p is below n.  In t = X / step the
    nodes are t = 1, ..., n, where Newton's forward differences D^j of the
    ys are ints and p = sum_j D^j (t-1)...(t-j) / j!.  Scaled by (n-1)!,
    every term is an int polynomial in t, expanded by Horner's rule; the
    coefficient of X^j is that of t^j over (n-1)! step^j.  Raises
    AdmissibilityError when a division leaves a remainder, that is, when p
    is not integral.
    """
    top = len(ys) - 1  # the degree bound, n - 1
    diffs = list(ys)
    for k in range(1, top + 1):
        for i in range(top, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    # (n-1)! p = c_0 + (t-1)(c_1 + (t-2)(c_2 + ...)), c_j = D^j (n-1)!/j!.
    out: List[int] = []
    scale = 1  # (n-1)!/j!
    for j in range(top, -1, -1):
        out = [hi - (j + 1) * lo for lo, hi in zip(out + [0], [0] + out)]
        out[0] += diffs[j] * scale
        scale *= j
    coefficients = []
    den = factorial(top)
    for a in out:
        c, rem = divmod(a, den)
        if rem:
            raise AdmissibilityError("interpolated coboundary is not integral")
        coefficients.append(c)
        den *= step
    return coefficients


def _line_sum(config: VectorConfig) -> List[int]:
    """Y-coefficients of sum_S m(S) (Y-1)^|S|, S of rank 1 without 0.

    A rank-1 subset of nonzero vectors lies on one line through 0.  With u
    the line's primitive direction in lattice coordinates and each vector
    a = k_a u, ZS = gcd(k_S) u Z has index m(S) = gcd(k_S) in the
    saturation u Z.  Per line, a table keyed by (gcd, size) counts the
    subsets, one vector at a time.
    """
    lines: Dict[Tuple[int, ...], List[int]] = {}
    for row in config.coord_matrix:
        g = gcd(*row)
        if g:
            unit = g if next(c for c in row if c) > 0 else -g
            lines.setdefault(tuple(c // unit for c in row), []).append(g)
    by_size: Counter = Counter()  # sum of m(S) over the S of each size
    # Lines with the same multiset of k's contribute alike.
    shapes = Counter(tuple(sorted(ks)) for ks in lines.values())
    for shape, alike in shapes.items():
        subsets = Counter({(0, 0): 1})  # gcd(k_S), |S| -> number of S
        for k in shape:
            for (g, size), count in list(subsets.items()):
                subsets[gcd(g, k), size + 1] += count
        for (g, size), count in subsets.items():
            by_size[size] += alike * g * count
    return compose_affine([by_size[s] for s in range(max(by_size, default=0) + 1)], -1)


def tutte_via_interpolation(config: VectorConfig) -> TuttePolynomial:
    """Recover the arithmetic Tutte polynomial from group histograms alone.

    psi(X, Y) = sum_B m(B) X^(r - r(B)) (Y-1)^|B| has X-degree at most r.
    Its top two rows need no count: X^r has Y^z, since only subsets of the
    z zero vectors have rank 0, each with multiplicity 1; X^(r-1) has Y^z
    times the rank-1 sum of `_line_sum`.  Taking q^r Y^z and q^(r-1) times
    that row off psi(q, Y) at the r - 1 admissible values q = E, 2E, ...,
    (r-1)E leaves X-degree at most r - 2, so those samples determine the
    rest: the coefficient of each power of Y is interpolated in X on its
    own, as a scalar polynomial.  At r <= 1 nothing is counted.  The largest
    q is checked against the point cap before any counting starts.  E is
    the lcm of the largest invariant factors of the rank-r keys of one
    census fold: every subset's torsion group is a quotient of an
    independent subset's, which embeds in a rank-r subset's, so every
    torsion exponent divides E, which divides the multiplicity lcm L.
    """
    keys = _census_fold(config)
    r = max(map(len, keys))
    exponent = lcm(
        *(max(snf_invariant_factors(key), default=1) for key in keys if len(key) == r)
    )
    d, z = config.lattice.rank, sum(not any(row) for row in config.coord_matrix)
    _check_points(max(r - 1, 0) * exponent, d)
    top = [0] * z + [1]  # row X^r
    below = [0] * z + _line_sum(config)  # row X^(r-1), when r >= 1

    # samples[k][h]: the Y^h coefficient of psi(q, Y) - q^r Y^z - q^(r-1)
    # below(Y) at q = (k+1)E, an int when psi is integral.
    samples = []
    for q in range(exponent, r * exponent, exponent):
        histogram = _group_histogram(config, q)
        scale = q ** (d - r)
        sample = []
        for h in range(len(config) + 1):
            c, rem = divmod(histogram.get(h, 0), scale)
            if rem:
                raise AdmissibilityError("interpolated coboundary is not integral")
            sample.append(c)
        sample[z] -= q**r
        for h, c in enumerate(below):
            sample[h] -= q ** (r - 1) * c
        samples.append(sample)
    # columns[h][i]: the X^i Y^h coefficient of psi, i < r - 1.
    columns = [_interpolate(exponent, values) for values in zip(*samples)]
    rows = [*zip(*columns), below, top] if r else [top]
    psi = MultiPoly.from_rows(COBOUNDARY_VARS, rows)
    cob = CoboundaryPolynomial(poly=psi, rank=r)
    return tutte_from_coboundary(cob, ambient_rank=d, flavor="arithmetic")

