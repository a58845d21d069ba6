#!/usr/bin/env python3
"""Signed-graph census versus the exponential-generating-function theorem.

Counts every signed graph on up to six vertices (4^15 * 2^6 of them on six)
by the edge-fold census, tallies the census polynomial in
(t_+, t_-, t_0, x, y), and checks it against the coefficient of z^v / v!
in the closed-form master generating function.  Also shows the
graph dictionary producing arithmetic Tutte polynomials of root systems.
"""

from math import factorial

from tuttekit import (
    RootSystemSpec,
    arithmetic_tutte_bruteforce,
    build_config,
    graph_dictionary_tutte,
    master_census,
    master_genfun_theorem,
    unsigned_census,
    unsigned_genfun_theorem,
)


def main():
    thm = master_genfun_theorem(6)
    for v in range(7):
        census = master_census(v)
        predicted = thm.coefficient(v) * factorial(v)
        n_terms = len(census.terms)
        match = "ok" if census == predicted else "MISMATCH"
        print(f"signed graphs on {v} vertices: {n_terms} census terms ... {match}")
        assert census == predicted

    unsigned_thm = unsigned_genfun_theorem(8)
    for v in range(9):
        assert unsigned_census(v) == unsigned_thm.coefficient(v) * factorial(v)
    print("unsigned census matches its generating function through 8 vertices.")
    print()

    for family, n, kind in [("B", 3, "integer"), ("C", 3, "root"), ("D", 3, "weight")]:
        spec = RootSystemSpec(family, n, kind)
        via_graphs = graph_dictionary_tutte(spec)
        direct = arithmetic_tutte_bruteforce(build_config(spec))
        assert via_graphs.poly == direct.poly
        print(f"{family}{n} ({kind} lattice) via signed graphs: {via_graphs.poly}")
    print("graph dictionary agrees with direct enumeration.")


if __name__ == "__main__":
    main()
