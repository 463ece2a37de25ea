"""Exact univariate polynomial matrix computation over a prime field."""

from .errors import (
    InternalInvariantError,
    ParseError,
    PmatError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from .poly import (
    NEG_INF,
    Poly,
    is_prime,
    poly_divrem,
    poly_mul,
    poly_reverse,
    poly_xgcd,
    series_inverse,
)
from .constmat import ConstMat
from .polymat import (
    PolyMat,
    cdeg,
    column_leading_matrix,
    column_reversal,
    determinant,
    is_column_reduced,
    is_hermite,
    is_popov,
    is_reduced,
    leading_matrix_shifted,
    matmul,
    matmul_trunc,
    rdeg_shifted,
    reduce_vector_mod_rowspace,
    vstack,
)
from .division import (
    pm_quorem,
    quorem_auto,
    rem_of_shifts,
    residual,
    truncated_expansion,
)
from .approx import approximant_basis_popov, kernel_basis_popov
from .relations import (
    hermite_form,
    popov_form,
    relation_basis_general,
    relations_mod_hermite,
    set_verify,
)
from .oracle import (
    brute_force_relations,
    naive_quorem,
    verify_relation_basis,
)
from .cli import emit_pmat, parse_pmat
from . import ntt  # off the product path; the benchmark's tracer wraps it

__version__ = "0.1.0"

__all__ = [
    "ConstMat",
    "InternalInvariantError",
    "NEG_INF",
    "ParseError",
    "PmatError",
    "Poly",
    "PolyMat",
    "PreconditionError",
    "ShapeError",
    "SingularMatrixError",
    "approximant_basis_popov",
    "brute_force_relations",
    "cdeg",
    "column_leading_matrix",
    "column_reversal",
    "determinant",
    "emit_pmat",
    "hermite_form",
    "is_column_reduced",
    "is_hermite",
    "is_popov",
    "is_prime",
    "is_reduced",
    "kernel_basis_popov",
    "leading_matrix_shifted",
    "matmul",
    "matmul_trunc",
    "naive_quorem",
    "parse_pmat",
    "pm_quorem",
    "poly_divrem",
    "poly_mul",
    "poly_reverse",
    "poly_xgcd",
    "popov_form",
    "quorem_auto",
    "rdeg_shifted",
    "reduce_vector_mod_rowspace",
    "relation_basis_general",
    "relations_mod_hermite",
    "rem_of_shifts",
    "residual",
    "series_inverse",
    "set_verify",
    "truncated_expansion",
    "verify_relation_basis",
    "vstack",
]
