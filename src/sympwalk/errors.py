"""Exception hierarchy for sympwalk."""


class SympwalkError(Exception):
    """Base class for all sympwalk errors."""


class NotPrimeError(SympwalkError, ValueError):
    """Field characteristic is not prime."""


class ResourceCapError(SympwalkError):
    """A request exceeds a size or work cap; raised before the work starts."""


class FieldTooLargeError(ResourceCapError):
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


class EnumerationTooLargeError(ResourceCapError):
    """Requested enumeration exceeds the configured cap."""


class ExactArithmeticTooLargeError(ResourceCapError):
    """Exact rational arithmetic would exceed the configured work cap."""


class StepRangeTooLargeError(ResourceCapError):
    """A requested range of steps k exceeds the configured work cap."""


class StateSpaceTooLargeError(ResourceCapError):
    """A chain's work or state space exceeds the configured cap."""


class OddMultiplicityError(SympwalkError):
    """Coset classifier saw an odd part multiplicity.  Signals a bug."""


class InternalError(SympwalkError):
    """Runtime invariant violated."""


def int_text(x):
    """An integer x >= 0 as cap-message text: its digits below 2^64, else
    2^b with b its bit length (x < 2^b).  It never forms a float, which
    overflows, or a decimal string beyond 4,300 digits, which Python refuses."""
    b = x.bit_length()
    return str(x) if b <= 64 else f"2^{b}"
