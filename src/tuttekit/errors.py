"""Exception types shared across the package."""


class TutteKitError(Exception):
    """Base class for all errors raised by this package."""


class StructureError(TutteKitError):
    """Incompatible structures, e.g. polynomials over different variable lists."""


class ExactDivisionError(TutteKitError):
    """A division that was required to be exact is not."""


class PrecisionError(TutteKitError):
    """A series operation violated its constant-term precondition."""


class LatticeMembershipError(TutteKitError):
    """A vector lies in the rational span of a lattice but not in the lattice."""


class SpanError(TutteKitError):
    """A vector lies outside the rational span of a lattice basis."""


class CapacityError(TutteKitError):
    """An exhaustive sweep would exceed the configured size guard."""


class AdmissibilityError(TutteKitError):
    """A finite-field computation was requested with an inadmissible modulus."""

