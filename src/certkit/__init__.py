"""certkit: exact-arithmetic certificates for small algebraic-geometry computations.

Everything in this package computes over exact domains (arbitrary-precision
rationals, the two-element field F2 and its quadratic extension F4).  There is
no floating point anywhere.
"""

__version__ = "0.1.0"

from .exactcore import (
    Polynomial,
    RationalFunction,
    Fp,
    F4,
    poly_substitute,
    kernel_dimension,
    ideal_graded_dimension,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "Fp",
    "F4",
    "poly_substitute",
    "kernel_dimension",
    "ideal_graded_dimension",
]
