"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """A precondition on an argument was violated."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or division by the zero rational function."""


class PoleAtPoint(ArithmeticError):
    """Specialization requested at a point where the denominator vanishes."""


class DegenerateContent(ArithmeticError):
    """Two adjacent tableau entries have equal content eigenvalues.

    This signals a non-semisimple parameter choice; it is never silently
    skipped.
    """


class NotInvertible(ArithmeticError):
    """A matrix inverse was required but does not exist."""
