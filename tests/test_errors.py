"""Argument checks that no other test reaches: each raises its own type
with its own message."""

import re

import pytest

from qrook import cli
from qrook.errors import DivisionByZero, InvalidArgument
from qrook.linalg import Mat
from qrook.presentations import (
    algebra_dimension,
    indecomposable_witness,
    relations_Bprime,
    relations_cyclotomic,
    relations_rook,
)
from qrook.qfield import RatFunc, quantum_factorial
from qrook.rook import PartialInjection, enumerate_rook, generator_injections
from qrook.seminormal import calibrated_skew_module, restrict
from qrook.shapes import SkewShape, bratteli, enumerate_partitions
from qrook.tensor import GradedBasis, lift, phiP

CHECKS = {
    "lift-size": (lambda: lift(Mat.identity(3), 2, 1, 2), InvalidArgument,
                  "operator size is not a power of dim V"),
    "lift-position": (lambda: lift(Mat.identity(2), 2, 3, 2), InvalidArgument,
                      "position out of range"),
    "degree": (lambda: GradedBasis((1, 1)).degree(2), InvalidArgument, "basis index out of range"),
    "phiP": (lambda: phiP(0, GradedBasis((1, 1)), (0, 1)), InvalidArgument, "k must be >= 1"),
    "injection-length": (lambda: PartialInjection(2, (1,)), InvalidArgument,
                         "mapping length must equal k"),
    "transposition": (lambda: PartialInjection.transposition(3, 0), InvalidArgument,
                      "transposition index out of range"),
    "enumerate_rook": (lambda: enumerate_rook(-1), InvalidArgument, "k must be >= 0"),
    "generator_injections": (lambda: generator_injections(0), InvalidArgument, "k must be >= 1"),
    "relations_rook": (lambda: relations_rook(0), InvalidArgument, "k must be >= 1"),
    "relations_cyclotomic": (lambda: relations_cyclotomic(3, []), InvalidArgument,
                             "need at least one u parameter"),
    "relations_Bprime": (lambda: relations_Bprime(1), InvalidArgument, "needs k >= 2"),
    "algebra_dimension": (lambda: algebra_dimension({}), InvalidArgument, "empty assignment"),
    "indecomposable_witness": (lambda: indecomposable_witness(0, 5), InvalidArgument,
                               "k must be >= 1"),
    "restrict-skew": (lambda: restrict(calibrated_skew_module(SkewShape((2, 1), (1,)), 2)),
                      InvalidArgument, "restrict is defined for multipartition modules"),
    "enumerate_partitions": (lambda: enumerate_partitions(-1), InvalidArgument, "k must be >= 0"),
    "bratteli-levels": (lambda: bratteli(-1), InvalidArgument, "levels must be >= 0"),
    "bratteli-family": (lambda: bratteli(2, "nope"), InvalidArgument, "unknown family 'nope'"),
    "quantum_factorial": (lambda: quantum_factorial(-1), InvalidArgument,
                          "quantum factorial needs k >= 0"),
    "zero-denominator": (lambda: RatFunc((1,), ()), DivisionByZero, "zero denominator"),
    "verify-family": (lambda: cli._verify_family("nope", 2, None, None), InvalidArgument,
                      "unknown family 'nope'"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_argument_check_raises_its_message(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
