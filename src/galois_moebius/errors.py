"""Exception hierarchy.

Three families map onto the CLI exit codes: ParseError (2), DomainError (3)
and CapacityError (4).  Exit code 5 is not an exception: it means a verify
report came back with failed checks (the report is still printed).
InternalInvariantError signals a bug in this package rather than bad input;
it is never caught by the CLI.
"""


class GaloisMoebiusError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(GaloisMoebiusError):
    """Malformed text input (element, polynomial, matrix or flag value)."""


class DomainError(GaloisMoebiusError):
    """Input outside the mathematical domain of an operation."""


class NotPrime(DomainError):
    """Characteristic parameter is not a prime number."""


class ReducibleModulus(DomainError):
    """A supplied extension modulus is not irreducible (or not monic)."""


class DegreeMismatch(DomainError):
    """A polynomial has the wrong degree for the requested construction."""


class DivisionByZero(DomainError):
    """Field inversion or polynomial division by zero."""


class LevelMismatch(DomainError):
    """Operands live on different field levels (or in different towers)."""


class ZeroConstantTerm(DomainError):
    """Reciprocal of a polynomial with constant term zero."""


class SingularMatrix(DomainError):
    """2x2 matrix with zero determinant."""


class DegreeTooSmall(DomainError):
    """Polynomial action is only defined in degree 2 and above."""


class ZeroDenominator(DomainError):
    """Moebius action on a root hits a zero denominator."""


class EvenDegree(DomainError):
    """Operation requires an odd degree."""


class EvenParameter(DomainError):
    """Operation requires an odd parameter."""


class NotInvolution(DomainError):
    """Matrix was required to have projective order 2."""


class DegreeHypothesisViolated(DomainError):
    """Polynomial degree does not fit the required shape for this check."""


class NotFound(DomainError):
    """An exhaustive search that must succeed came up empty."""


class CapacityError(GaloisMoebiusError):
    """Work size exceeds a configured cap."""


class DegreeTooLarge(CapacityError):
    """Constructed polynomial degree exceeds the configured cap."""


class BudgetExceeded(CapacityError):
    """Census candidate space exceeds the configured budget."""


class InternalInvariantError(GaloisMoebiusError):
    """An internal consistency assertion failed; this is a bug."""
