"""Exact computation of Hall numbers, quiver Grassmannian Euler
characteristics and cluster characters for acyclic quivers.

Everything is exact: counts over F_p are integers, Euler characteristics
arise from counting points over several primes and interpolating the
counting polynomial, and cluster characters are Laurent polynomials with
integer coefficients.  No floating point is used anywhere in the math.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ComputationError,
    NonIntegerCoefficients,
    OutsideCatalog,
    UnsupportedQuiver,
    VerificationMismatch,
)
from .quiver import Quiver, kronecker_quiver, linear_quiver, load_quiver

__all__ = [
    "BudgetExceeded",
    "ComputationError",
    "NonIntegerCoefficients",
    "OutsideCatalog",
    "UnsupportedQuiver",
    "VerificationMismatch",
    "Quiver",
    "kronecker_quiver",
    "linear_quiver",
    "load_quiver",
    "__version__",
]
