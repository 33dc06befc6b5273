"""Exact symbolic engine for the twist-deformed Heisenberg phase-space
algebra, its Hopf structure, the deformed Poincare sector, and the
perturbative Poincare re-expression of the universal R-matrix.

All arithmetic is exact (Gaussian rationals and polynomials in the twist
parameter), with deformation-parameter series truncated at a fixed order.
"""

from .algebra import AlgebraElement, commutator
from .hopf import TwistContext
from .scalars import DomainError, GaussianRational, LambdaPoly, Scalar, UsageError
from .tensor import TensorElement, canonicalize, equal_mod

__all__ = [
    "AlgebraElement",
    "DomainError",
    "GaussianRational",
    "LambdaPoly",
    "Scalar",
    "TensorElement",
    "TwistContext",
    "UsageError",
    "canonicalize",
    "commutator",
    "equal_mod",
]

__version__ = "0.1.0"
