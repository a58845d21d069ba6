#!/usr/bin/env python3
"""End-to-end tour using the rank-2 system C2 over the integer lattice.

Computes the arithmetic Tutte polynomial four independent ways, checks that
they agree, and derives the classical invariants (characteristic polynomial,
Ehrhart polynomial, zonotope volume and point counts, region count).
"""

from tuttekit import (
    GenFunRequest,
    RootSystemSpec,
    arithmetic_tutte_bruteforce,
    build_config,
    coboundary_from_tutte,
    derive_all,
    extract_polynomial,
    graph_dictionary_tutte,
    group_identity_holds,
    multiplicity_lcm,
    tutte_via_interpolation,
)


def main():
    spec = RootSystemSpec("C", 2, "integer")
    config = build_config(spec)
    print(f"system: {spec.family}{spec.n} over the {spec.lattice_kind} lattice")
    print(f"vectors (lattice coordinates): {config.coord_matrix}")
    print()

    bf = arithmetic_tutte_bruteforce(config)
    gf = extract_polynomial(GenFunRequest("C", "integer", 8), 2)
    gd = graph_dictionary_tutte(spec)
    ip = tutte_via_interpolation(config)
    print(f"brute force:        M(x,y) = {bf.poly}")
    print(f"generating function M(x,y) = {gf.poly}")
    print(f"graph dictionary:   M(x,y) = {gd.poly}")
    print(f"interpolation:      M(x,y) = {ip.poly}")
    assert bf.poly == gf.poly == gd.poly == ip.poly
    print("all four methods agree.")
    print()

    divisor = multiplicity_lcm(config)
    psi = coboundary_from_tutte(bf)
    d = config.lattice.rank
    for q in (divisor, 2 * divisor):
        ok = group_identity_holds(config, q, psi)
        print(f"finite-field identity over (Z/{q})^{d}: {'holds' if ok else 'FAILS'}")
    print()

    rep = derive_all(bf)
    print(f"characteristic polynomial: {rep.characteristic}")
    print(f"Ehrhart polynomial:        {rep.ehrhart}")
    print(f"zonotope volume:           {rep.volume}")
    print(f"lattice points:            {rep.lattice_points}")
    print(f"interior lattice points:   {rep.interior_points}")
    print(f"toric regions:             {rep.toric_regions}")


if __name__ == "__main__":
    main()
