"""Exhaustive enumeration of labelled (signed) graphs.

A signed graph here has at most one positive and one negative edge per
vertex pair and at most one loop per vertex.  Components are balanced when
their edge signs admit a consistent vertex 2-coloring; any loop makes its
component unbalanced.  The engine produces exact multi-parameter censuses
and an independent route to the root-system Tutte polynomials through the
per-graph rank and multiplicity dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from math import comb, gcd
from typing import Dict, FrozenSet, Iterable, List, Tuple

from .errors import CapacityError, StructureError
from .poly import MultiPoly
from .series import TruncSeries, deformed_exp_general
from .tutte import TUTTE_VARS, TuttePolynomial

MASTER_VARS = ("tp", "tm", "t0", "x", "y")
UNSIGNED_VARS = ("t", "y")

# Component signature: sorted tuple of (size, balanced) pairs.
Signature = Tuple[Tuple[int, bool], ...]

# Largest vertex counts the exhaustive censuses enumerate: 4^C(v,2) signed
# and 2^C(v,2) simple graphs.  The graph dictionary inherits them as rank
# guards (A from the unsigned census, B/C/D from the signed one).
SIGNED_MAX_V = 5
UNSIGNED_MAX_V = 7


@dataclass(frozen=True)
class SignedGraph:
    v: int
    pos_edges: FrozenSet[Tuple[int, int]]
    neg_edges: FrozenSet[Tuple[int, int]]
    loops: FrozenSet[int]

    def __post_init__(self):
        for i, j in list(self.pos_edges) + list(self.neg_edges):
            if not (0 <= i < j < self.v):
                raise StructureError(f"bad edge ({i}, {j}) on {self.v} vertices")
        for i in self.loops:
            if not 0 <= i < self.v:
                raise StructureError(f"bad loop vertex {i}")


@dataclass(frozen=True)
class GraphStats:
    c_plus: int
    c_minus: int
    c_zero: int
    l: int
    e: int
    v: int


class _ParityUnionFind:
    """Union-find with edge parities; tracks per-component balance."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.parity = [0] * n  # parity of the path to the parent
        self.balanced = [True] * n  # valid at roots

    def _find_with_parity(self, a: int) -> Tuple[int, int]:
        if self.parent[a] == a:
            return a, 0
        root, p = self._find_with_parity(self.parent[a])
        self.parent[a] = root
        self.parity[a] ^= p
        return root, self.parity[a]

    def union(self, a: int, b: int, sign_parity: int) -> None:
        """Join a and b with an edge of the given parity (1 = negative)."""
        ra, pa = self._find_with_parity(a)
        rb, pb = self._find_with_parity(b)
        if ra == rb:
            if (pa ^ pb) != sign_parity:
                self.balanced[ra] = False
            return
        bal = self.balanced[ra] and self.balanced[rb]
        self.parent[rb] = ra
        self.parity[rb] = pa ^ pb ^ sign_parity
        self.balanced[ra] = bal

    def mark_unbalanced(self, a: int) -> None:
        ra, _ = self._find_with_parity(a)
        self.balanced[ra] = False

    def components(self) -> Dict[int, Tuple[int, bool]]:
        """root -> (size, balanced)."""
        out: Dict[int, List] = {}
        for a in range(len(self.parent)):
            ra, _ = self._find_with_parity(a)
            if ra not in out:
                out[ra] = [0, self.balanced[ra]]
            out[ra][0] += 1
        return {r: (s, b) for r, (s, b) in out.items()}


def component_stats(g: SignedGraph) -> GraphStats:
    """The six enumeration parameters of a signed graph."""
    uf = _ParityUnionFind(g.v)
    for i, j in g.pos_edges:
        uf.union(i, j, 0)
    for i, j in g.neg_edges:
        uf.union(i, j, 1)
    loop_roots = set()
    for i in g.loops:
        uf.mark_unbalanced(i)
    for i in g.loops:
        loop_roots.add(uf._find_with_parity(i)[0])
    c_plus = c_minus = c_zero = 0
    for root, (_, balanced) in uf.components().items():
        if root in loop_roots:
            c_zero += 1
        elif balanced:
            c_plus += 1
        else:
            c_minus += 1
    return GraphStats(
        c_plus=c_plus,
        c_minus=c_minus,
        c_zero=c_zero,
        l=len(g.loops),
        e=len(g.pos_edges) + len(g.neg_edges),
        v=g.v,
    )


# ----------------------------------------------------------------------
# loopless enumeration core


@lru_cache(maxsize=None)
def _loopless_census(v: int) -> Dict[Tuple[Signature, int], int]:
    """Census of loopless signed graphs on [v] by component signature and e.

    Each vertex pair independently carries nothing, +, -, or both edges,
    so there are 4^C(v,2) graphs.
    """
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    npairs = len(pairs)
    counts: Dict[Tuple[Signature, int], int] = {}
    for code in range(4**npairs):
        uf = _ParityUnionFind(v)
        e = 0
        c = code
        for i, j in pairs:
            state = c & 3
            c >>= 2
            if state == 0:
                continue
            if state & 1:  # positive edge
                uf.union(i, j, 0)
                e += 1
            if state & 2:  # negative edge
                uf.union(i, j, 1)
                e += 1
        sig = tuple(sorted(uf.components().values()))
        key = (sig, e)
        counts[key] = counts.get(key, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _unsigned_census_detail(v: int) -> Dict[Tuple[Tuple[int, ...], int], int]:
    """Census of simple graphs on [v] by sorted component sizes and e."""
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    npairs = len(pairs)
    counts: Dict[Tuple[Tuple[int, ...], int], int] = {}
    for code in range(2**npairs):
        uf = _ParityUnionFind(v)
        e = 0
        c = code
        for i, j in pairs:
            if c & 1:
                uf.union(i, j, 0)
                e += 1
            c >>= 1
        sizes = tuple(sorted(s for s, _ in uf.components().values()))
        key = (sizes, e)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ----------------------------------------------------------------------
# censuses with loops, and the closed-form comparisons


def master_census(v: int) -> MultiPoly:
    """Exact census polynomial over (tp, tm, t0, x, y) for signed graphs on [v].

    Loops are attached analytically: a component of size s contributes
    tp-or-tm with no loops, or t0 * ((1+x)^s - 1) once it carries loops.
    """
    if v > SIGNED_MAX_V:
        raise CapacityError(f"signed-graph census guarded at v <= {SIGNED_MAX_V}")
    one_plus_x = MultiPoly(MASTER_VARS, {(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0): 1})
    tp = MultiPoly.var(MASTER_VARS, "tp")
    tm = MultiPoly.var(MASTER_VARS, "tm")
    t0 = MultiPoly.var(MASTER_VARS, "t0")
    yv = MultiPoly.var(MASTER_VARS, "y")
    loopy = {}  # size -> t0 * ((1+x)^s - 1)
    for s in range(1, v + 1):
        loopy[s] = t0 * (one_plus_x**s - 1)
    total = MultiPoly.zero(MASTER_VARS)
    for (sig, e), count in _loopless_census(v).items():
        factor = MultiPoly.const(MASTER_VARS, count) * yv**e
        for size, balanced in sig:
            base = tp if balanced else tm
            factor = factor * (base + loopy[size])
        total = total + factor
    return total


def master_genfun_theorem(order: int) -> TruncSeries:
    """The closed-form master generating function, truncated at z^order."""
    one_plus_x = MultiPoly(MASTER_VARS, {(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0): 1})
    one_plus_y = MultiPoly(MASTER_VARS, {(0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 1})
    two = MultiPoly.const(MASTER_VARS, 2)
    tp = MultiPoly.var(MASTER_VARS, "tp")
    tm = MultiPoly.var(MASTER_VARS, "tm")
    t0 = MultiPoly.var(MASTER_VARS, "t0")
    half = MultiPoly.const(MASTER_VARS, 1) * Q(1, 2)
    f_a = deformed_exp_general(two, one_plus_y, order)
    f_b = deformed_exp_general(
        MultiPoly.const(MASTER_VARS, 1), one_plus_y**2, order
    )
    f_c = deformed_exp_general(one_plus_x, one_plus_y**2, order)
    return (
        f_a.pow_poly((tp - tm) * half)
        * f_b.pow_poly(tm - t0)
        * f_c.pow_poly(t0)
    )


def unsigned_census(v: int) -> MultiPoly:
    """Census of simple graphs on [v] over (t, y)."""
    if v > UNSIGNED_MAX_V:
        raise CapacityError(f"unsigned census guarded at v <= {UNSIGNED_MAX_V}")
    total: Dict[Tuple[int, int], int] = {}
    for (sizes, e), count in _unsigned_census_detail(v).items():
        key = (len(sizes), e)
        total[key] = total.get(key, 0) + count
    return MultiPoly(UNSIGNED_VARS, {(c, e): w for (c, e), w in total.items()})


def unsigned_genfun_theorem(order: int) -> TruncSeries:
    """F(z, 1+y)^t truncated at z^order, over (t, y)."""
    one_plus_y = MultiPoly(UNSIGNED_VARS, {(0, 1): 1, (0, 0): 1})
    f = deformed_exp_general(MultiPoly.const(UNSIGNED_VARS, 1), one_plus_y, order)
    return f.pow_poly(MultiPoly.var(UNSIGNED_VARS, "t"))


def balanced_census(v: int) -> Dict[Tuple[int, int], int]:
    """(c_plus, e) -> count of balanced signed graphs on [v]."""
    out: Dict[Tuple[int, int], int] = {}
    for (sig, e), count in _loopless_census(v).items():
        if all(b for _, b in sig):
            key = (len(sig), e)
            out[key] = out.get(key, 0) + count
    return out


def marked_graph_identity_holds(v: int) -> bool:
    """Check #marked graphs = 2^c_plus * #balanced signed graphs, per class.

    Marked graphs are simple graphs with vertex signs, so their census is
    the unsigned census scaled by 2^v.
    """
    unsigned: Dict[Tuple[int, int], int] = {}
    for (sizes, e), count in _unsigned_census_detail(v).items():
        key = (len(sizes), e)
        unsigned[key] = unsigned.get(key, 0) + count
    balanced = balanced_census(v)
    keys = set(unsigned) | set(balanced)
    for c, e in keys:
        marked = unsigned.get((c, e), 0) * 2**v
        if marked != 2**c * balanced.get((c, e), 0):
            return False
    return True


# ----------------------------------------------------------------------
# graph dictionary for the root-system Tutte polynomials


def _loop_classes(
    sig: Signature,
) -> Iterable[Tuple[int, int, int, int, bool, int]]:
    """All loop placements over a component signature.

    Yields (c_plus, c_minus, c_zero, loops, has_odd_balanced, ways); a
    component of size s takes k >= 1 loops in C(s, k) ways and then counts
    as a loop component regardless of balance.
    """
    states: List[Tuple[int, int, int, int, bool, int]] = [(0, 0, 0, 0, False, 1)]
    for size, balanced in sig:
        nxt = []
        for cp, cm, c0, l, odd, ways in states:
            if balanced:
                nxt.append((cp + 1, cm, c0, l, odd or size % 2 == 1, ways))
            else:
                nxt.append((cp, cm + 1, c0, l, odd, ways))
            for k in range(1, size + 1):
                nxt.append((cp, cm, c0 + 1, l + k, odd, ways * comb(size, k)))
        states = nxt
    return states


def _dictionary_multiplicity(
    family: str, lattice_kind: str, cp: int, cm: int, c0: int, has_odd_balanced: bool
) -> int:
    if family == "B":
        if lattice_kind in ("integer", "root"):
            return 2**cm
        return 2**cm if has_odd_balanced else 2 ** (cm + 1)
    if family == "C":
        if lattice_kind == "root":
            return 1 if (cm == 0 and c0 == 0) else 2 ** (cm + c0 - 1)
        return 2 ** (cm + c0)
    if family == "D":
        if lattice_kind == "integer":
            return 2**cm
        if lattice_kind == "root":
            return 1 if cm == 0 else 2 ** (cm - 1)
        return 2**cm if has_odd_balanced else 2 ** (cm + 1)
    raise StructureError(f"no signed-graph dictionary for family {family!r}")


def graph_dictionary_tutte(family: str, n: int, lattice_kind: str) -> TuttePolynomial:
    """Arithmetic Tutte polynomial via the (signed) graph dictionary.

    This path never touches lattice coordinate arithmetic: ranks and
    multiplicities come from component counts and balance alone, so it is
    an independent oracle for the other engines.
    """
    xm1 = MultiPoly(TUTTE_VARS, {(1, 0): 1, (0, 0): -1})
    ym1 = MultiPoly(TUTTE_VARS, {(0, 1): 1, (0, 0): -1})

    if family == "A":
        if n > UNSIGNED_MAX_V:
            raise CapacityError(f"type-A dictionary guarded at n <= {UNSIGNED_MAX_V}")
        full_rank = n - 1
        total = MultiPoly.zero(TUTTE_VARS)
        for (sizes, e), count in _unsigned_census_detail(n).items():
            c = len(sizes)
            if lattice_kind == "weight":
                m = 0
                for s in sizes:
                    m = gcd(m, s)
            else:
                m = 1
            r = n - c
            total = total + xm1 ** (full_rank - r) * ym1 ** (e - n + c) * (m * count)
        return TuttePolynomial(
            poly=total,
            rank=full_rank,
            ambient_rank=n if lattice_kind == "integer" else n - 1,
            flavor="arithmetic",
        )

    if n > SIGNED_MAX_V:
        raise CapacityError(f"signed-graph dictionary guarded at n <= {SIGNED_MAX_V}")
    full_rank = n
    total = MultiPoly.zero(TUTTE_VARS)
    for (sig, e), count in _loopless_census(n).items():
        if family == "D":
            cp = sum(1 for _, b in sig if b)
            cm = len(sig) - cp
            odd = any(b and s % 2 == 1 for s, b in sig)
            m = _dictionary_multiplicity(family, lattice_kind, cp, cm, 0, odd)
            r = n - cp
            total = total + xm1 ** (full_rank - r) * ym1 ** (e - n + cp) * (m * count)
            continue
        for cp, cm, c0, l, odd, ways in _loop_classes(sig):
            m = _dictionary_multiplicity(family, lattice_kind, cp, cm, c0, odd)
            r = n - cp
            total = total + (
                xm1 ** (full_rank - r) * ym1 ** (l + e - n + cp) * (m * count * ways)
            )
    return TuttePolynomial(
        poly=total, rank=full_rank, ambient_rank=n, flavor="arithmetic"
    )
