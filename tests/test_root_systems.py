import hashlib
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import assert_refused
from oracles import subset_stats
from tuttekit.errors import StructureError
from tuttekit.lattice import int_matrix_rank
from tuttekit.root_systems import (
    FAMILIES,
    LATTICE_KINDS,
    RootSystemSpec,
    build_config,
    parse_system,
    weyl_group_order,
)


class TestSpecParsing:
    def test_parse_round_trip(self):
        spec = parse_system("C:2:integer")
        assert spec == RootSystemSpec("C", 2, "integer")
        assert str(spec) == "C:2:integer"

    def test_parse_normalizes_case(self):
        assert parse_system("b:3:WEIGHT") == RootSystemSpec("B", 3, "weight")

    @pytest.mark.parametrize(
        "bad",
        [
            "E:6:integer",
            "B:3",
            "B:x:root",
            "A:2:dual",
            "A:1_0:weight",
            "B: 2:integer",
            "B:+2:integer",
            "B:2 :integer",
            "B:\u0662:integer",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(StructureError):
            parse_system(bad)

    def test_d_needs_two_coordinates(self):
        with pytest.raises(StructureError):
            RootSystemSpec("D", 1, "integer")


class TestConfigurations:
    @pytest.mark.parametrize("kind", LATTICE_KINDS)
    @pytest.mark.parametrize(
        "family,n,count",
        [("A", 4, 6), ("A", 5, 10), ("B", 3, 9), ("C", 3, 9), ("D", 3, 6)],
    )
    def test_root_counts(self, family, n, count, kind):
        spec = RootSystemSpec(family, n, kind)
        assert len(build_config(spec).vectors) == count

    @pytest.mark.parametrize("kind", LATTICE_KINDS)
    @pytest.mark.parametrize("family,n,rank", [("A", 4, 3), ("B", 4, 4), ("D", 2, 2)])
    def test_ranks(self, family, n, rank, kind):
        cfg = build_config(RootSystemSpec(family, n, kind))
        assert int_matrix_rank([list(c) for c in cfg.coord_matrix]) == rank

    @pytest.mark.parametrize("system", ["B:4:integer", "A:5:root"])
    def test_integral_entries_are_ints(self, system):
        cfg = build_config(parse_system(system))
        for rows in (cfg.vectors, cfg.lattice.basis):
            assert {type(x) for row in rows for x in row} == {int}

    def test_c2_matches_worked_example(self):
        cfg = build_config(RootSystemSpec("C", 2, "integer"))
        vecs = set(cfg.vectors)
        expected = {
            (Q(1), Q(-1)),
            (Q(1), Q(1)),
            (Q(2), Q(0)),
            (Q(0), Q(2)),
        }
        assert vecs == expected

    def test_a2_weight_is_doubled_vector(self):
        # e1 - e2 maps to 2*e1bar in the rank-1 quotient.
        cfg = build_config(RootSystemSpec("A", 2, "weight"))
        assert cfg.vectors == ((Q(2),),)
        assert subset_stats(cfg, [0]).multiplicity == 2

    def test_b_weight_lattice_contains_half_sum(self):
        cfg = build_config(RootSystemSpec("B", 3, "weight"))
        half = tuple(Q(1, 2) for _ in range(3))
        assert cfg.lattice.coordinates(half) is not None


class TestPinnedConfigurations:
    def test_every_config_up_to_rank_12(self):
        # For each lattice kind, family and n = 1..12 in that order: the repr
        # of (vectors, lattice basis, coordinate matrix), their entries as
        # Fractions, or the StructureError a refused spec raises (D:1 in every
        # lattice, A:1:root, A:1:weight).
        def fractions(rows):
            return tuple(tuple(Q(x) for x in row) for row in rows)

        entries = []
        for kind in LATTICE_KINDS:
            for family in FAMILIES:
                for n in range(1, 13):
                    try:
                        c = build_config(parse_system(f"{family}:{n}:{kind}"))
                    except StructureError as exc:
                        entries.append(f"StructureError: {exc}")
                        continue
                    vectors, basis = fractions(c.vectors), fractions(c.lattice.basis)
                    entries.append(repr((vectors, basis, c.coord_matrix)))
        assert len(entries) == 144
        assert sum(e.startswith("StructureError") for e in entries) == 5
        digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
        assert digest == "497f3a83110aeeb3ffda5bb6943771999f6a7d72c91ae7baaabdc0f1b224cea6"


class TestLatticeIndices:
    # [weight : root] is the Cartan determinant: n for A with n
    # coordinates, 2 for B and C, 4 for D.
    @pytest.mark.parametrize(
        "family,n,index",
        [
            ("A", 3, 3),
            ("A", 5, 5),
            ("B", 3, 2),
            ("C", 4, 2),
            ("D", 2, 4),
            ("D", 3, 4),
            ("D", 4, 4),
        ],
    )
    def test_cartan_index(self, family, n, index):
        weight = build_config(RootSystemSpec(family, n, "weight")).lattice
        root = build_config(RootSystemSpec(family, n, "root")).lattice
        assert weight.index_of_sublattice(root) == index


class TestWeylGroups:
    @pytest.mark.parametrize(
        "family,n,order",
        [("A", 4, 24), ("B", 3, 48), ("C", 4, 384), ("D", 4, 192)],
    )
    def test_orders(self, family, n, order):
        assert weyl_group_order(family, n) == order


# RootSystemSpec is the one gate for (family, n, lattice kind): the graph
# dictionary, the genfun reads, the closed forms and the Weyl group orders
# all refuse through it.
REFUSALS = {
    "unknown family": (
        lambda: RootSystemSpec("E", 2, "integer"),
        StructureError,
        "unknown family 'E'",
    ),
    "unknown lattice kind": (
        lambda: RootSystemSpec("C", 2, "spin"),
        StructureError,
        "unknown lattice kind 'spin'",
    ),
    "rank zero": (
        lambda: RootSystemSpec("A", 0, "integer"),
        StructureError,
        "A requires n >= 1",
    ),
    # D1 has no roots; the graph dictionary's full rank n would read it as rank 1.
    "D below its minimum": (
        lambda: RootSystemSpec("D", 1, "integer"),
        StructureError,
        "D requires n >= 2",
    ),
    # A bool ran as B1; a float or numpy int passed the gate and failed in an
    # engine; a string failed the n >= 1 test with a bare TypeError.
    "bool rank": (
        lambda: RootSystemSpec("B", True, "integer"),
        StructureError,
        "rank must be an int, not True",
    ),
    "float rank": (
        lambda: RootSystemSpec("B", 2.0, "integer"),
        StructureError,
        "rank must be an int, not 2.0",
    ),
    "string rank": (
        lambda: RootSystemSpec("A", "3", "integer"),
        StructureError,
        "rank must be an int, not '3'",
    ),
    "numpy int rank": (
        lambda: RootSystemSpec("B", np.int64(3), "integer"),
        StructureError,
        f"rank must be an int, not {np.int64(3)!r}",
    ),
    # Both were read by D's formula: 23,040 (E6 has 51,840) and 4 (G2 has 12).
    "Weyl group of E6": (
        lambda: weyl_group_order("E", 6),
        StructureError,
        "unknown family 'E'",
    ),
    "Weyl group of G2": (
        lambda: weyl_group_order("G", 2),
        StructureError,
        "unknown family 'G'",
    ),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    assert_refused(*REFUSALS[case])
