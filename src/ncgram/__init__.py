"""Exact linear algebra for the diagram calculus of two-row partitions.

The package builds Gram matrices of partition-indexed tensor vectors over
an integer loop parameter N (or symbolically over ℤ[N]), and verifies
their invertibility two independent ways: direct fraction-free
determinants, and a stratified recursion whose factors are reversed
Beraha polynomial quotients.  Everything is exact — arbitrary-precision
integers, rationals, and integer polynomials; no floating point anywhere.
"""

from __future__ import annotations

from .errors import BudgetError, RotationUndefined, ShapeError
from .gram import ExactMatrix, build_gram, determinant, rank
from .kernels import INTEGER_BACKEND
from .partitions import (
    Composition,
    Corner,
    Partition,
    PartitionClass,
    PointLabel,
    compose,
    enumerate_partitions,
    involution,
    is_noncrossing,
    kernel,
    refines,
    rotate,
    tensor,
)
from .polynomials import (
    IntPolynomial,
    beraha,
    beraha_nonzero_at,
    chebyshev_classical,
    chebyshev_dilated,
    check_beraha_chebyshev_relation,
)
from .tensor_model import (
    check_functor_laws,
    delta_p,
    express_in_bounded_basis,
    inner_product,
    matrix_of,
    vector_of,
)
from .tutte import (
    F_r_value,
    build_A,
    build_B,
    classify_structure,
    component_shift,
    e_r,
    f_manip,
    g_manip,
    recursion_det,
    recursion_trace,
    w_stratum,
    y_stratum,
)
from .formulas import (
    difrancesco_check,
    difrancesco_det,
    difrancesco_exponents,
)

__version__ = "0.1.0"

__all__ = [
    "INTEGER_BACKEND",
    "BudgetError",
    "Composition",
    "Corner",
    "ExactMatrix",
    "F_r_value",
    "IntPolynomial",
    "Partition",
    "PartitionClass",
    "PointLabel",
    "RotationUndefined",
    "ShapeError",
    "beraha",
    "beraha_nonzero_at",
    "build_A",
    "build_B",
    "build_gram",
    "chebyshev_classical",
    "chebyshev_dilated",
    "check_beraha_chebyshev_relation",
    "check_functor_laws",
    "classify_structure",
    "component_shift",
    "compose",
    "delta_p",
    "determinant",
    "difrancesco_check",
    "difrancesco_det",
    "difrancesco_exponents",
    "e_r",
    "enumerate_partitions",
    "express_in_bounded_basis",
    "f_manip",
    "g_manip",
    "inner_product",
    "involution",
    "is_noncrossing",
    "kernel",
    "matrix_of",
    "rank",
    "recursion_det",
    "recursion_trace",
    "refines",
    "rotate",
    "tensor",
    "vector_of",
    "w_stratum",
    "y_stratum",
]
