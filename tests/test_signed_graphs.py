from itertools import product
from math import factorial

import pytest

from oracles import (
    GraphStats,
    SignedGraph,
    _ParityUnionFind,
    balanced_census,
    component_stats,
    lattice_census,
    marked_graph_identity_holds,
)
from tuttekit import signed_graphs
from tuttekit.errors import CapacityError
from tuttekit.genfun import GenFunRequest, extract_polynomial
from tuttekit.root_systems import RootSystemSpec, build_config
from tuttekit.signed_graphs import (
    _edge_fold,
    _graph_census,
    graph_dictionary_tutte,
    master_census,
    master_genfun_theorem,
    unsigned_census,
    unsigned_genfun_theorem,
)
from tuttekit.tutte import arithmetic_tutte_bruteforce


def G(v, pos=(), neg=(), loops=()):
    return SignedGraph(v, frozenset(pos), frozenset(neg), frozenset(loops))


class TestComponentStats:
    def test_empty_graph_is_all_balanced_singletons(self):
        assert component_stats(G(3)) == GraphStats(3, 0, 0, 0, 0, 3)

    def test_positive_edges_stay_balanced(self):
        g = G(3, pos={(0, 1), (1, 2)})
        assert component_stats(g) == GraphStats(1, 0, 0, 0, 2, 3)

    def test_single_negative_edge_is_balanced(self):
        # Balance means a consistent 2-coloring exists, which one negative
        # edge always admits.
        g = G(2, neg={(0, 1)})
        assert component_stats(g) == GraphStats(1, 0, 0, 0, 1, 2)

    def test_parallel_mixed_pair_is_unbalanced(self):
        g = G(2, pos={(0, 1)}, neg={(0, 1)})
        assert component_stats(g) == GraphStats(0, 1, 0, 0, 2, 2)

    def test_odd_negative_cycle_is_unbalanced(self):
        g = G(3, neg={(0, 1), (1, 2), (0, 2)})
        assert component_stats(g) == GraphStats(0, 1, 0, 0, 3, 3)

    def test_even_negative_cycle_is_balanced(self):
        g = G(4, neg={(0, 1), (1, 2), (2, 3), (0, 3)})
        assert component_stats(g) == GraphStats(1, 0, 0, 0, 4, 4)

    def test_loop_forces_loop_component(self):
        g = G(2, pos={(0, 1)}, loops={0})
        assert component_stats(g) == GraphStats(0, 0, 1, 1, 1, 2)


def enumerated_census(v, signed):
    """The edge-fold census by brute force over every (signed) graph on [v].

    Each vertex pair independently carries nothing, +, - or both edges
    (signed) or nothing or + (unsigned): 4^C(v,2) or 2^C(v,2) graphs.
    """
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    choices = 4 if signed else 2
    counts = {}
    for code in range(choices ** len(pairs)):
        uf = _ParityUnionFind(v)
        e = 0
        for i, j in pairs:
            code, state = divmod(code, choices)
            if state & 1:  # positive edge
                uf.union(i, j, 0)
                e += 1
            if state & 2:  # negative edge
                uf.union(i, j, 1)
                e += 1
        sig = tuple(sorted(uf.components().values()))
        by_e = counts.setdefault(sig, {})
        by_e[e] = by_e.get(e, 0) + 1
    return counts


def enumerated_loop_census(v):
    """The master census by brute force over every signed graph with loops.

    Each of the 4^C(v,2) edge choices of `enumerated_census` is taken with
    each of the 2^v loop sets, and `component_stats` reads every graph;
    the counts are summed per (c+, c-, c0, l, e).
    """
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    counts = {}
    for states in product(range(4), repeat=len(pairs)):
        pos = [pair for pair, state in zip(pairs, states) if state & 1]
        neg = [pair for pair, state in zip(pairs, states) if state & 2]
        for mask in range(1 << v):
            s = component_stats(G(v, pos, neg, [i for i in range(v) if mask >> i & 1]))
            key = (s.c_plus, s.c_minus, s.c_zero, s.l, s.e)
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestEdgeFold:
    @pytest.mark.parametrize("v", [0, 1, 2, 3, 4])
    def test_signed_matches_enumeration(self, v):
        assert _graph_census(v, True) == enumerated_census(v, True)

    @pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 5, 6])
    def test_unsigned_matches_enumeration(self, v):
        assert _graph_census(v, False) == enumerated_census(v, False)

    # Both count flats: a fold state is a partition with a balance and a
    # switching class per part, exactly what fixes the lattice ZB of
    # D_v (signed) or A_v (unsigned) roots.
    @pytest.mark.parametrize(
        "system, signed, states",
        [("D:4", True, 75), ("D:5", True, 428), ("A:5", False, 52), ("A:6", False, 203)],
    )
    def test_state_count_equals_sublattice_count(self, system, signed, states):
        family, n = system.split(":")
        config = build_config(RootSystemSpec(family, int(n), "integer"))
        assert len(_edge_fold(int(n), signed)) == states == len(lattice_census(config))


class TestMasterCensus:
    @pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 5, 6])
    def test_census_matches_theorem(self, v):
        thm = master_genfun_theorem(6)
        assert master_census(v) == thm.coefficient(v) * factorial(v)

    # The loop rule of `_loop_classes` against every graph with loops; v = 4
    # (2^16 graphs, about a second) also matches but is left out of tier-1.
    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_census_matches_enumeration_with_loops(self, v):
        assert master_census(v).terms == enumerated_loop_census(v)

    def test_census_total_counts_all_graphs(self):
        # 4 states per pair, 2 per vertex loop slot.
        v = 3
        total = master_census(v).evaluate({"tp": 1, "tm": 1, "t0": 1, "x": 1, "y": 1})
        assert total == 4 ** (v * (v - 1) // 2) * 2**v

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="^signed-graph census guarded at v <= 7$"):
            master_census(8)


class TestUnsignedCensus:
    @pytest.mark.parametrize("v", [0, 1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_deformed_exponential(self, v):
        thm = unsigned_genfun_theorem(8)
        assert unsigned_census(v) == thm.coefficient(v) * factorial(v)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError, match="^unsigned census guarded at v <= 10$"):
            unsigned_census(11)


class TestMarkedGraphIdentity:
    @pytest.mark.parametrize("v", [1, 2, 3, 4])
    def test_holds(self, v):
        assert marked_graph_identity_holds(v)

    @pytest.mark.parametrize("v", [0, 1, 2, 3, 4])
    def test_balanced_census_matches_enumeration(self, v):
        expected = {}
        for sig, by_e in enumerated_census(v, True).items():
            if all(balanced for _, balanced in sig):
                for e, count in by_e.items():
                    expected[(len(sig), e)] = expected.get((len(sig), e), 0) + count
        assert balanced_census(v) == expected

    def test_balanced_census_example(self):
        # On 2 vertices: connected balanced graphs are the + edge and the
        # - edge; both-edges is unbalanced.
        counts = balanced_census(2)
        assert counts[(1, 1)] == 2
        assert counts[(2, 0)] == 1

    # The balanced census reads master_census, whose guard fires before
    # the signed edge fold starts.
    def test_capacity_guard(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("signed edge fold ran past the guard")

        monkeypatch.setattr(signed_graphs, "_edge_fold", refuse)
        with pytest.raises(CapacityError, match="^signed-graph census guarded at v <= 7$"):
            master_census(8)


class TestGraphDictionary:
    @pytest.mark.parametrize("family", ["A", "B", "C", "D"])
    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    def test_matches_bruteforce_rank_three(self, family, kind):
        spec = RootSystemSpec(family, 3, kind)
        bf = arithmetic_tutte_bruteforce(build_config(spec))
        gd = graph_dictionary_tutte(spec)
        assert gd.poly == bf.poly
        assert gd.rank == bf.rank

    def test_b1_weight(self):
        # Single vector e1 in the half-integer lattice: multiplicity 2
        # appears as the doubled constant term.
        spec = RootSystemSpec("B", 1, "weight")
        bf = arithmetic_tutte_bruteforce(build_config(spec))
        gd = graph_dictionary_tutte(spec)
        assert gd.poly == bf.poly

    # At n = 8 the components (3, 5) tell the gcd rule from the minimum.
    @pytest.mark.parametrize("n", [6, 8])
    def test_type_a_weight_gcd_rule_matches_genfun(self, n):
        gd = graph_dictionary_tutte(RootSystemSpec("A", n, "weight"))
        assert gd == extract_polynomial(GenFunRequest("A", "weight", n), n)

    # The census is the dictionary's one guard site: it fires before the
    # edge fold starts and before any rank row is allocated (at n = 10**6
    # the rows alone would not fit in memory), under the census's message.
    @pytest.mark.parametrize("kind", ["integer", "root", "weight"])
    @pytest.mark.parametrize(
        "family, n, message",
        [("A", n, "unsigned census guarded at v <= 10") for n in (11, 10**6)]
        + [
            (f, n, "signed-graph census guarded at v <= 7")
            for f in "BCD"
            for n in (8, 10**6)
        ],
    )
    def test_capacity_guards(self, monkeypatch, family, n, kind, message):
        def refuse(*_):
            raise AssertionError("edge fold ran past the guard")

        monkeypatch.setattr(signed_graphs, "_edge_fold", refuse)
        with pytest.raises(CapacityError, match=f"^{message}$"):
            graph_dictionary_tutte(RootSystemSpec(family, n, kind))

