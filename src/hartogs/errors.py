"""Exception types shared across the package.

The CLI maps these onto exit codes: validation failures (bad input) exit
with 2, internal cross-check failures exit with 3.
"""


class HartogsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HartogsError, ValueError):
    """Caller-supplied input violates a precondition."""


class NotDivisible(ValidationError):
    """Monomial division requested where a lower-order term survives."""


class NotPalindromic(ValidationError):
    """Operation requires a palindromic coefficient sequence."""


class OutsideDomain(ValidationError):
    """Evaluation point lies outside the (open) Hartogs triangle."""


class DegenerateInput(ValidationError):
    """Evaluation point sits on a removed locus (t = 0 or |t| >= 1)."""


class UnsupportedFamily(ValidationError):
    """Closed-form coefficients only exist for codegrees k = 1 and k = 2."""


class NoInteriorRoot(HartogsError):
    """No root inside the unit disk; a kernel zero witness cannot be built."""


class DenominatorVanishes(HartogsError):
    """Kernel denominator underflows; the point is too close to the edge."""


class ConvergenceFailure(HartogsError):
    """Iterative root finder did not meet the residual target."""


class InternalMismatch(HartogsError):
    """Two independent computations of the same object disagree."""
