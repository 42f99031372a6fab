"""Exception types shared across the package."""


class MidgbError(Exception):
    """Base class for package-specific errors."""


class ZeroInverseError(MidgbError, ZeroDivisionError):
    """Inversion of 0 in a prime field."""


class NonPrimeFieldError(MidgbError, ValueError):
    """A field size that is not prime."""


class ZeroInputError(MidgbError, ValueError):
    """A zero polynomial where a nonzero one is required."""


class MixedRingsError(MidgbError, ValueError):
    """Polynomials from different rings in one operation or run."""


class EmptyQueueError(MidgbError, LookupError):
    """Pair selection from an empty queue."""


class EmptyBatchError(MidgbError, ValueError):
    """Matrix construction from an empty pair batch."""


class BoundViolationError(MidgbError, AssertionError):
    """A polynomial broke a degree bound that should hold by construction.

    This is an internal-error diagnostic: it means the implementation (not the
    input) is wrong, so it is never silently swallowed.
    """

    def __init__(self, stage, poly, limit):
        self.stage = stage
        self.poly = poly
        self.limit = limit
        super().__init__(
            f"{stage}-stage degree bound {limit} violated by {poly} (degree {poly.degree()})"
        )


class MonomialOverflowError(MidgbError, OverflowError):
    """A monomial whose total degree is past its ring's limit.

    Packed monomials have fixed-width exponent slots (see ``monomials``); an
    input exponent or a product that does not fit raises this instead of
    wrapping.
    """


class ConflictingRootsError(MidgbError, ValueError):
    """Two polynomials force different unique values onto one variable."""

    def __init__(self, variable):
        self.variable = variable
        super().__init__(f"conflicting unique roots for variable index {variable}")


class InvalidSettingError(MidgbError, ValueError):
    """A setting outside its supported range: an engine configuration, a
    ring's variables or order, a monomial's exponents, an unknown benchmark
    family or a size below its floor, or a non-lex basis given to the lex
    basis reader."""


class ParseError(MidgbError, ValueError):
    """System-file syntax error, with 1-based line/column position."""

    def __init__(self, line, column, message):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class TooLargeError(MidgbError, ValueError):
    """An input too large to handle: a search space too large for exhaustive
    enumeration, or a field too large to adjoin its field equations."""
