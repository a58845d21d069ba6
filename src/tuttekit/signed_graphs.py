"""Censuses of labelled (signed) graphs and the graph dictionary.

A signed graph here has at most one positive and one negative edge per
vertex pair and at most one loop per vertex.  Components are balanced when
their edge signs admit a consistent vertex 2-coloring; any loop makes its
component unbalanced.  Every census parameter depends on a graph only
through its components, their balance, its loops and its edge count e, so
the loopless graphs are counted by a dynamic program over the vertex pairs
whose states are canonical component partitions with switching colourings,
not graph by graph.  Every census places loops through `_loop_classes`:
a component of size s takes k >= 1 loops in C(s, k) ways.  The engine
produces exact multi-parameter censuses and an independent route to the
root-system Tutte polynomials: the graph dictionary, one loop over the
graph classes for all four families.  The tests check the censuses against
graphs read one at a time by the union-find oracle `component_stats` of
`tests/oracles.py`.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from math import comb, gcd
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import CapacityError
from .poly import MultiPoly, exact_int
from .root_systems import RootSystemSpec
from .series import TruncSeries, deformed_exponential
from .tutte import TuttePolynomial, poly_from_rank_rows

MASTER_VARS = ("tp", "tm", "t0", "x", "y")
UNSIGNED_VARS = ("t", "y")

# Component signature: sorted tuple of (size, balanced) pairs.
Signature = Tuple[Tuple[int, bool], ...]
# Canonical edge-fold state: 3 * component + colour per vertex.
State = Tuple[int, ...]

# Largest vertex counts the edge fold takes: 20,093 signed states at v = 7
# and 115,975 unsigned ones (the Bell number) at v = 10, about a second
# each.  Only `_graph_census` checks them; the graph dictionary reads A
# from the unsigned census and B/C/D from the signed one.
SIGNED_MAX_V = 7
UNSIGNED_MAX_V = 10


# ----------------------------------------------------------------------
# loopless census by an edge-fold dynamic program


def _join(state: State, i: int, j: int, sign: Optional[int]) -> State:
    """`state` after an edge i~j of parity `sign` (1 = negative, None = both)."""
    a, ca = divmod(state[i], 3)
    b, cb = divmod(state[j], 3)
    if a == b and (ca == 2 or ca ^ cb == sign):
        return state
    lo, hi = min(a, b), max(a, b)
    unbalanced = a == b or ca == 2 or cb == 2 or sign is None
    flip = 0 if unbalanced else ca ^ cb ^ sign  # recolours component hi
    out = []
    for s in state:
        if s // 3 == lo or s // 3 == hi:
            s = 3 * lo + (2 if unbalanced else s % 3 ^ flip * (s // 3 == hi))
        elif s // 3 > hi > lo:
            s -= 3
        out.append(s)
    return tuple(out)


def _edge_fold(v: int, signed: bool) -> Dict[State, int]:
    """Fold the vertex pairs of [v] in one at a time into canonical states.

    A state gives each vertex 3 * component + colour.  Components are
    numbered in order of first vertex; a balanced component carries its
    switching 2-colouring (0 or 1) with colour 0 at its first vertex, and
    an unbalanced one has colour 2 throughout.  A signed pair carries
    nothing, +, - or both edges, an unsigned pair nothing or +.  The counts
    of the graphs reaching a state are packed into one int, the count with
    e edges in digit e of base 2^width, so an edge is a shift.
    """
    edges = ((0, 1), (1, 1), (None, 2)) if signed else ((0, 1),)
    width = v * (v - 1) + 1  # more bits than the 4^C(v,2) signed graphs need
    states: Dict[State, int] = {(): 1}
    for j in range(v):
        # Vertex j arrives alone, in a component numbered after all others.
        states = {s + (3 * (max(s, default=-3) // 3 + 1),): c for s, c in states.items()}
        for i in range(j):
            grown = dict(states)  # the pair left empty
            for s, c in states.items():
                for sign, k in edges:
                    t = _join(s, i, j, sign)
                    grown[t] = grown.get(t, 0) + (c << width * k)
            states = grown
    return states


@lru_cache(maxsize=None)
def _graph_census(v: int, signed: bool) -> Dict[Signature, Dict[int, int]]:
    """Loopless (signed) graphs on [v]: component signature -> e -> count."""
    cap, name = (SIGNED_MAX_V, "signed-graph") if signed else (UNSIGNED_MAX_V, "unsigned")
    if v > cap:
        raise CapacityError(f"{name} census guarded at v <= {cap}")
    packed: Dict[Signature, int] = {}
    for state, c in _edge_fold(v, signed).items():
        comps: Dict[int, Tuple[int, bool]] = {}
        for s in state:
            size, balanced = comps.get(s // 3, (0, s % 3 != 2))
            comps[s // 3] = (size + 1, balanced)
        sig = tuple(sorted(comps.values()))
        packed[sig] = packed.get(sig, 0) + c
    width = v * (v - 1) + 1  # as in _edge_fold; e runs up to width - 1
    census: Dict[Signature, Dict[int, int]] = {}
    for sig, c in packed.items():
        digits = (c >> width * e & (1 << width) - 1 for e in range(width))
        census[sig] = {e: n for e, n in enumerate(digits) if n}
    return census


# ----------------------------------------------------------------------
# censuses with loops, and the closed-form comparisons


def _loop_classes(
    sig: Signature, loops: bool
) -> Iterable[Tuple[int, int, int, int, bool, int]]:
    """All loop placements over a component signature.

    Yields (c_plus, c_minus, c_zero, loops, has_odd_balanced, ways); a
    component of size s takes k >= 1 loops in C(s, k) ways and then counts
    as a loop component regardless of balance.  Without `loops` (types A
    and D) only the loopless placement is yielded.
    """
    states: List[Tuple[int, int, int, int, bool, int]] = [(0, 0, 0, 0, False, 1)]
    for size, balanced in sig:
        nxt = []
        for cp, cm, c0, l, odd, ways in states:
            if balanced:
                nxt.append((cp + 1, cm, c0, l, odd or size % 2 == 1, ways))
            else:
                nxt.append((cp, cm + 1, c0, l, odd, ways))
            for k in range(1, size + 1 if loops else 1):
                nxt.append((cp, cm, c0 + 1, l + k, odd, ways * comb(size, k)))
        states = nxt
    return states


def master_census(v: int) -> MultiPoly:
    """Exact census polynomial over (tp, tm, t0, x, y) for signed graphs on [v].

    Each loop placement of `_loop_classes` adds `ways` times the loopless
    count at tp^c+ tm^c- t0^c0 x^l y^e.
    """
    terms: Dict[Tuple[int, ...], int] = {}
    for sig, by_e in _graph_census(exact_int(v, "vertex count"), True).items():
        for cp, cm, c0, l, _, ways in _loop_classes(sig, loops=True):
            for e, count in by_e.items():
                key = (cp, cm, c0, l, e)
                terms[key] = terms.get(key, 0) + ways * count
    return MultiPoly(MASTER_VARS, terms)


def master_genfun_theorem(order: int) -> TruncSeries:
    """The closed-form master generating function, truncated at z^order."""
    one_plus_x = MultiPoly(MASTER_VARS, {(0, 0, 0, 1, 0): 1, (0, 0, 0, 0, 0): 1})
    one_plus_y = MultiPoly(MASTER_VARS, {(0, 0, 0, 0, 1): 1, (0, 0, 0, 0, 0): 1})
    two = MultiPoly.const(MASTER_VARS, 2)
    tp = MultiPoly.var(MASTER_VARS, "tp")
    tm = MultiPoly.var(MASTER_VARS, "tm")
    t0 = MultiPoly.var(MASTER_VARS, "t0")
    half = MultiPoly.const(MASTER_VARS, 1) * Q(1, 2)
    f_a = deformed_exponential(two, one_plus_y, order)
    f_b = deformed_exponential(
        MultiPoly.const(MASTER_VARS, 1), one_plus_y**2, order
    )
    f_c = deformed_exponential(one_plus_x, one_plus_y**2, order)
    return (
        f_a.pow_poly((tp - tm) * half)
        * f_b.pow_poly(tm - t0)
        * f_c.pow_poly(t0)
    )


def unsigned_census(v: int) -> MultiPoly:
    """Census of simple graphs on [v] over (t, y)."""
    total: Dict[Tuple[int, int], int] = {}
    for sig, by_e in _graph_census(exact_int(v, "vertex count"), False).items():
        for e, count in by_e.items():
            total[(len(sig), e)] = total.get((len(sig), e), 0) + count
    return MultiPoly(UNSIGNED_VARS, total)


def unsigned_genfun_theorem(order: int) -> TruncSeries:
    """F(z, 1+y)^t truncated at z^order, over (t, y)."""
    one_plus_y = MultiPoly(UNSIGNED_VARS, {(0, 1): 1, (0, 0): 1})
    f = deformed_exponential(MultiPoly.const(UNSIGNED_VARS, 1), one_plus_y, order)
    return f.pow_poly(MultiPoly.var(UNSIGNED_VARS, "t"))


# ----------------------------------------------------------------------
# graph dictionary for the root-system Tutte polynomials


def _dictionary_multiplicity(
    family: str, lattice_kind: str, sig: Signature, cm: int, c0: int, odd: bool
) -> int:
    """m(B) of a graph class.

    A: the gcd of the component sizes in the weight lattice, else 1.  C:
    2^(cm + c0).  B and D: 2^cm, doubled in the weight lattice when no
    balanced component is odd.  C's and D's root lattices halve it unless
    it is 1.
    """
    if family == "A":
        return gcd(*(s for s, _ in sig)) if lattice_kind == "weight" else 1
    m = 2 ** (cm + c0) if family == "C" else 2**cm
    if family != "C" and lattice_kind == "weight" and not odd:
        m *= 2
    if family in ("C", "D") and lattice_kind == "root":
        return max(1, m // 2)
    return m


def graph_dictionary_tutte(spec: RootSystemSpec) -> TuttePolynomial:
    """Arithmetic Tutte polynomial of `spec` via the (signed) graph dictionary.

    This path never touches lattice coordinate arithmetic: ranks and
    multiplicities come from component counts and balance alone, so it is
    an independent oracle for the other engines.  Each class of the simple
    (A) or signed (B, C, D) graphs on [n] adds its weight into
    by_rank[n - balanced loopless components][edges + loops].
    """
    family, n, lattice_kind = spec.family, spec.n, spec.lattice_kind
    signed, loops = family != "A", family in ("B", "C")
    census = _graph_census(n, signed)  # its guard fires before any rows exist
    full_rank = n if signed else n - 1
    # Sizes run to C(n, 2) edges, twice that if signed, plus n loops (B, C).
    width = n * (n - 1) // (1 if signed else 2) + n * loops + 1
    by_rank = {r: [0] * width for r in range(full_rank + 1)}
    for sig, by_e in census.items():
        for cp, cm, c0, l, odd, ways in _loop_classes(sig, loops):
            m = _dictionary_multiplicity(family, lattice_kind, sig, cm, c0, odd) * ways
            for e, count in by_e.items():
                by_rank[n - cp][e + l] += m * count
    ambient = n if signed or lattice_kind == "integer" else n - 1
    poly = poly_from_rank_rows(by_rank, full_rank)
    return TuttePolynomial(poly, full_rank, ambient, "arithmetic")
