"""Exception hierarchy shared across the package.

Every exception that signals a violated mathematical precondition derives
from DomainError, so callers (in particular the CLI) can distinguish
"the input is outside the theory's hypotheses" from programming errors.
"""


def describe_int(value) -> str:
    """str() of an integer or a tuple of integers, for a message: an
    integer past the interpreter's int-digit limit reads as its bit length."""
    try:
        return str(value)
    except ValueError:
        if isinstance(value, tuple):
            return "(" + ", ".join(map(describe_int, value)) + ")"
        return f"a {'negative ' if value < 0 else ''}{value.bit_length()}-bit integer"


class DomainError(Exception):
    """Base class for violated mathematical preconditions."""


class SubgroupViolation(DomainError):
    """A vector claimed to lie in a sublattice does not."""


class ClosureCapExceeded(DomainError):
    """Multiplicative closure of a matrix set grew past the element cap or
    the entry budget."""


class NotUnimodular(DomainError):
    """An integer matrix required to have determinant +/-1 does not."""


class NoStabilization(DomainError):
    """Cocycle kernels at doubled level disagree; the colimit did not stabilize.

    Nothing in the package raises it: `cyclic_h1` has no level tower.  It
    stays exported for the tests' trace-kernel reference.
    """


class InfiniteOrder(DomainError):
    """A matrix action has no power equal to the identity within the cap."""


class TamenessViolation(DomainError):
    """Wild inertia acts nontrivially on the character lattice."""


class FrobeniusDoesNotDescend(DomainError):
    """The Frobenius matrix does not preserve the relation lattice of a quotient."""


class ContextMismatch(DomainError):
    """Arithmetic attempted between p-adic integers of different contexts."""


class PrecisionExhausted(DomainError):
    """A p-adic value is zero to working precision; no valuation or class exists."""


class NotAUnit(DomainError):
    """A p-adic integer required to be a unit has positive valuation."""


class DegreeIncompatible(DomainError):
    """The degree e does not divide p - 1."""


class SearchSpaceTooLarge(DomainError):
    """The brute-force norm search would enumerate more candidates than allowed."""


class NoRepresentedNorm(DomainError):
    """The brute-force norm search found no class at its search precision."""


class SpecialFibreVanishing(DomainError):
    """The defining function vanishes at the given point of the special fibre."""


class EnumerationTooLarge(DomainError):
    """Exhausting the special fibre would exceed the enumeration bound."""


class SamplingTooLarge(DomainError):
    """Sampling the factorization check would exceed its work bound."""
