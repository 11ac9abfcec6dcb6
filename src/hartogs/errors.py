"""Exception types shared across the package.

Each type means one thing.  The CLI exits 2 on a ``ValidationError`` (bad
input) and on any other ``HartogsError`` (this input cannot be computed),
and 3 on an ``InternalMismatch`` (a broken invariant of the program).
"""


class HartogsError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(HartogsError, ValueError):
    """Caller-supplied input violates a precondition."""


class NotPalindromic(ValidationError):
    """Operation requires a palindromic coefficient sequence."""


class OutsideDomain(ValidationError):
    """Evaluation point lies outside the (open) Hartogs triangle."""


class DegenerateInput(ValidationError):
    """Interior point whose t = z2*conj(w2) underflows to 0: no series rows."""


class NoInteriorRoot(HartogsError):
    """No root inside the unit disk; a kernel zero witness cannot be built."""


class DenominatorVanishes(HartogsError):
    """Kernel denominator underflows; the point is too close to the edge."""


class ConvergenceFailure(HartogsError):
    """Iterative root finder did not meet the residual target."""


class InternalMismatch(HartogsError):
    """Two independent computations disagree, or an exact division fails."""
