"""hermhull: linear codes over GF(q^2) whose Hermitian hulls are MDS.

Exact finite-field linear algebra, explicit GRS and two-point evaluation
code families with controlled Hermitian hulls, independent verification of
every construction, and the derived QECC/EAQECC parameters.
"""

from .gf import (FieldContext, NotPrimitiveError, ReducibleModulusError,
                 conway_polynomial, make_field, quadratic_field)
from .linalg_codes import (DEFAULT_BUDGET, BudgetExceededError, LinearCode,
                           gram_matrix, matrix_rank, nullspace, rref)

__version__ = "0.1.0"

__all__ = [
    "FieldContext", "make_field", "quadratic_field", "conway_polynomial",
    "ReducibleModulusError", "NotPrimitiveError",
    "LinearCode", "rref", "nullspace", "gram_matrix", "matrix_rank",
    "BudgetExceededError", "DEFAULT_BUDGET",
    "__version__",
]
