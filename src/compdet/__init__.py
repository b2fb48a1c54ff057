"""Exact verification of compound-determinant identities.

The package builds compound matrices over an exact Laurent-polynomial
ring, verifies their determinant factorizations symbolically at small
sizes and by exact rational sampling at larger ones, and extends the same
machinery to classical-group characters and two-parameter symmetric
functions.  It is pure Python with no dependencies.
"""

from ._backend import BACKEND
from .characters import (
    FAMILIES,
    verify_denominators,
    verify_prop_detS,
    verify_theorem_schur,
)
from .combin import compositions, compositions_positive, epsilon, iota
from .compound import (
    CompoundSpec,
    verify_gram,
    verify_leading_term,
    verify_main,
    verify_sylvester,
)
from .errors import (
    CapabilityError,
    DomainError,
    InexactDivisionError,
    ParameterError,
    UsageError,
)
from .laurent import LaurentPoly
from .macdonald import (
    inner_product_p,
    macdonald_P,
    verify_corollary_macdonald,
)
from .report import VerifyReport
from .sampling import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "CapabilityError",
    "CompoundSpec",
    "DomainError",
    "FAMILIES",
    "InexactDivisionError",
    "LaurentPoly",
    "ParameterError",
    "SplitMix64",
    "UsageError",
    "VerifyReport",
    "compositions",
    "compositions_positive",
    "epsilon",
    "inner_product_p",
    "iota",
    "macdonald_P",
    "verify_corollary_macdonald",
    "verify_denominators",
    "verify_gram",
    "verify_leading_term",
    "verify_main",
    "verify_prop_detS",
    "verify_sylvester",
    "verify_theorem_schur",
    "__version__",
]
