"""Exception types shared across the package.

Everything here signals "the computation refused to guess": enumeration
budgets, modules outside the labelled catalogue, and exactness checks in the
interpolation pipeline all fail loudly instead of returning approximate or
silently-wrong values.
"""


class ComputationError(Exception):
    """Base class for all structured failures raised by this package."""


class BudgetExceeded(ComputationError):
    """An enumeration would exceed its configured work budget."""


class OutsideCatalog(ComputationError):
    """A module does not match any labelled isomorphism class.

    The typical cause on the Kronecker quiver is a regular summand whose
    tube parameter is an irrational point (irreducible characteristic
    factor of degree > 1 over the prime field).
    """


class VerificationMismatch(ComputationError):
    """An interpolated polynomial failed to reproduce a held-out sample."""


class NonIntegerCoefficients(ComputationError):
    """Interpolation produced non-integer coefficients where integers are required."""


class UnsupportedQuiver(ComputationError):
    """The requested operation is not available for this quiver."""
