"""Exception hierarchy for sympwalk."""


class SympwalkError(Exception):
    """Base class for all sympwalk errors."""


class NotPrimeError(SympwalkError, ValueError):
    """Field characteristic is not prime."""


class FieldTooLargeError(SympwalkError):
    """Requested field exceeds the configured size cap."""


class DivisionByZeroError(SympwalkError, ZeroDivisionError):
    """Division or inversion of zero in a field."""


class DimensionMismatchError(SympwalkError):
    """Matrix/vector dimensions are not conformable."""


class SingularMatrixError(SympwalkError):
    """Matrix inversion attempted on a singular matrix."""


class NotInvertibleError(SympwalkError):
    """Operation requires an invertible matrix."""


class NonIntegerResultError(SympwalkError):
    """An exact quotient expected to be integral was not.  Signals a bug."""


class NotSingleBoxError(SympwalkError):
    """Skew shape is not a single box."""


class WeightMismatchError(SympwalkError):
    """Partition-valued function has the wrong total weight."""


class EnumerationTooLargeError(SympwalkError):
    """Requested enumeration exceeds the configured cap."""


class ExactArithmeticTooLargeError(SympwalkError):
    """Exact rational arithmetic would exceed the configured work cap."""


class StepRangeTooLargeError(SympwalkError):
    """A requested range of steps k exceeds the configured work cap."""


class StateSpaceTooLargeError(SympwalkError):
    """A chain's work or state space exceeds the configured cap."""


class OddMultiplicityError(SympwalkError):
    """Coset classifier saw an odd part multiplicity.  Signals a bug."""


class InternalError(SympwalkError):
    """Runtime invariant violated."""
