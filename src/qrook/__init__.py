"""Exact computational models of the q-deformed rook monoid algebra,
cyclotomic Hecke algebras, their seminormal representations, and the
tensor-space actions they centralize.

All arithmetic is exact over the field Q(q); every identity the package
checks is verified to literal zero.
"""

from .errors import (
    DegenerateContent,
    DivisionByZero,
    InvalidArgument,
    NotInvertible,
    PoleAtPoint,
)
from .qfield import (
    Q,
    QINV,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    as_ratfunc,
    quantum_factorial,
    quantum_integer,
)

__all__ = [
    "DegenerateContent",
    "DivisionByZero",
    "InvalidArgument",
    "NotInvertible",
    "PoleAtPoint",
    "Q",
    "QINV",
    "RF_ONE",
    "RF_ZERO",
    "RatFunc",
    "as_ratfunc",
    "quantum_factorial",
    "quantum_integer",
]

__version__ = "1.0.0"
