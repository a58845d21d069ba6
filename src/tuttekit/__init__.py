"""Exact arithmetic Tutte polynomials of the classical root systems.

The package computes arithmetic Tutte polynomials of the families A, B,
C, D relative to their integer, root, and weight lattices through four
independent routes (subset brute force, closed-form generating functions,
finite-field point counting, and signed-graph enumeration), and derives
characteristic polynomials, Ehrhart polynomials, zonotope volumes, and
related invariants — all over exact integer and rational arithmetic.

The top level holds the error classes and the entry points the demos and
the README use; every other name is imported from its own module.
"""

from .errors import (
    AdmissibilityError,
    CapacityError,
    ExactDivisionError,
    LatticeMembershipError,
    PrecisionError,
    SpanError,
    StructureError,
    TutteKitError,
)
from .finitefield import group_identity_holds, tutte_via_interpolation
from .genfun import GenFunRequest, extract_polynomial
from .invariants import derive_all
from .lattice import multiplicity_lcm
from .root_systems import RootSystemSpec, build_config
from .signed_graphs import (
    graph_dictionary_tutte,
    master_census,
    master_genfun_theorem,
    unsigned_census,
    unsigned_genfun_theorem,
)
from .tutte import arithmetic_tutte_bruteforce, coboundary_from_tutte

__version__ = "0.1.0"
