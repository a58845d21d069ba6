"""Exact arithmetic Tutte polynomials of the classical root systems.

The package computes arithmetic Tutte polynomials of the families A, B,
C, D relative to their integer, root, and weight lattices through four
independent routes (subset brute force, closed-form generating functions,
finite-field point counting, and signed-graph enumeration), and derives
characteristic polynomials, Ehrhart polynomials, zonotope volumes, and
related invariants — all over exact integer and rational arithmetic.
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
from .finitefield import (
    group_identity_holds,
    tutte_via_interpolation,
    verify_classical_mode,
    verify_finite_field_identity,
)
from .genfun import (
    GenFunRequest,
    expand_genfun,
    extract_coboundary,
    extract_polynomial,
)
from .invariants import (
    InvariantReport,
    char_coeffs_via_permutations,
    closed_form_characteristic,
    derive_all,
    necklace_count,
    necklace_count_direct,
    prime_case_characteristic_type_A,
    weight_characteristic_type_A,
    weyl_group_check,
)
from .lattice import (
    LatticeBasis,
    SubsetStats,
    VectorConfig,
    multiplicity_lcm,
    snf_invariant_factors,
    subset_stats,
)
from .poly import MultiPoly
from .root_systems import (
    RootSystemSpec,
    build_config,
    cartan_index,
    lattice_index_check,
    parse_system,
    weyl_group_order,
)
from .series import TruncSeries, deformed_exp_general, deformed_exponential
from .signed_graphs import (
    GraphStats,
    SignedGraph,
    component_stats,
    graph_dictionary_tutte,
    marked_graph_identity_holds,
    master_census,
    master_genfun_theorem,
    unsigned_census,
    unsigned_genfun_theorem,
)
from .tables import (
    TableFixture,
    all_rows,
    fixture,
    parse_poly_terms,
)
from .tutte import (
    CoboundaryPolynomial,
    TuttePolynomial,
    arithmetic_tutte_bruteforce,
    classical_tutte_bruteforce,
    coboundary_from_tutte,
    tutte_from_coboundary,
)
from .verify import CheckResult, all_passed, verify_system

__version__ = "0.1.0"
