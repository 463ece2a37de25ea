"""The error types of the relation pipeline's input contract.

A shift is checked in one place (polymat._shift_or_zero), residues
reduced modulo a modulus in one place (division._check_reduced) and an
integral argument in one place (poly.check_int); every routine that takes
one must still raise the same typed error."""

import numpy as np
import pytest

from pmat import (
    Poly,
    PolyMat,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
    approximant_basis_popov,
    kernel_basis_popov,
    pm_quorem,
    quorem_auto,
    relation_basis_general,
    relations_mod_hermite,
    rem_of_shifts,
    residual,
    vstack,
)
from pmat.approx import relations_mod_single_poly, relations_via_kernel
from pmat.linalg import (
    coefficient_embedding,
    multiplication_matrix,
    relations_from_linear_algebra,
)
from pmat.polymat import make_linearization_plan
from pmat.relations import known_degree_relations

M = PolyMat.from_coeffs
H = M(7, [[[0, 1], [1]], [[], [0, 1]]])  # Hermite, diagonal degrees (1, 1)
F = M(7, [[[1], []]])  # reduced modulo H
F_BIG = M(7, [[[0, 1], []]])  # column 0 has degree 1, not below 1
X2 = Poly(7, (0, 0, 1))
BAD = (0, 0)  # one entry too many for F's single row

SHIFT_SITES = {
    "approximant_basis_popov":
        lambda: approximant_basis_popov(F, (2, 2), BAD),
    "kernel_basis_popov": lambda: kernel_basis_popov(vstack(F, H), BAD, 2),
    "relations_via_kernel": lambda: relations_via_kernel(H, F, BAD),
    "relations_mod_single_poly":
        lambda: relations_mod_single_poly(X2, M(7, [[[1]]]), BAD),
    "relations_from_linear_algebra":
        lambda: relations_from_linear_algebra(
            coefficient_embedding(F, (1, 1)), multiplication_matrix(H), BAD),
    "known_degree_relations":
        lambda: known_degree_relations(H, F, BAD, (2,)),
    "relations_mod_hermite": lambda: relations_mod_hermite(H, F, BAD),
    "relation_basis_general": lambda: relation_basis_general(H, F, BAD),
}

UNREDUCED_SITES = {
    "relations_mod_hermite": lambda: relations_mod_hermite(H, F_BIG, (0,)),
    "known_degree_relations":
        lambda: known_degree_relations(H, F_BIG, (0,), (2,)),
    "residual": lambda: residual(H, PolyMat.identity(7, 1), F_BIG),
    "rem_of_shifts": lambda: rem_of_shifts(H, F_BIG, 1, 1),
    "relations_mod_single_poly":
        lambda: relations_mod_single_poly(X2, M(7, [[[0, 0, 1]]]), (0,)),
    "coefficient_embedding": lambda: coefficient_embedding(F_BIG, (1, 1)),
}

COLUMN_COUNT_SITES = {
    "relations_mod_hermite":
        lambda: relations_mod_hermite(H, M(7, [[[1]]]), (0,)),
    "known_degree_relations":
        lambda: known_degree_relations(H, M(7, [[[1]]]), (0,), (1,)),
    "residual": lambda: residual(H, PolyMat.identity(7, 1), M(7, [[[1]]])),
    "rem_of_shifts": lambda: rem_of_shifts(H, M(7, [[[1]]]), 1, 1),
    "coefficient_embedding": lambda: coefficient_embedding(F, (1,)),
}

# a float, a string or None where an integer belongs: nothing truncates
# 0.5 to 0 or 2.7 to 2, and nothing parses "1"
NON_INTEGRAL_SITES = {
    "shift entry": lambda: relations_mod_hermite(H, F, (0.5,)),
    "string shift entry": lambda: relations_mod_hermite(H, F, ("1",)),
    "shift string": lambda: relation_basis_general(H, F, "a"),
    "approximant order": lambda: approximant_basis_popov(F, (2.7, 2), (0,)),
    "approximant shift": lambda: approximant_basis_popov(F, (2, 2), (0.0,)),
    "kernel degree budget":
        lambda: kernel_basis_popov(vstack(F, H), (0, 0, 0), 2.5),
    "kernel shift": lambda: kernel_basis_popov(vstack(F, H), (0, 0.5, 0), 2),
    "pm_quorem gap": lambda: pm_quorem(H, F, 2.5),
    "rem_of_shifts step": lambda: rem_of_shifts(H, F, 1.5, 1),
    "rem_of_shifts count": lambda: rem_of_shifts(H, F, 1, 0.5),
    "known pivot degree":
        lambda: known_degree_relations(H, F, (0,), (2.0,)),
    "embedding degree": lambda: coefficient_embedding(F, (1.0, 1)),
    "plan degree": lambda: make_linearization_plan((1, 2.5)),
    "poly coefficient": lambda: Poly(7, [1.5, 2]),
    "poly coefficient string": lambda: Poly(7, ["1"]),
    "poly constant": lambda: Poly.const(7, 1.5),
    "monomial coefficient": lambda: Poly.mono(7, 2, 2.5),
    "monomial exponent": lambda: Poly.mono(7, 1.5),
    "zero monomial exponent": lambda: Poly.mono(7, 1.5, 0),
    "matrix coefficient": lambda: M(7, [[[1, 0.5]]]),
    "zero matrix dimension": lambda: PolyMat.zero(7, 2.5, 1),
    "identity dimension": lambda: PolyMat.identity(7, 2.5),
}

CASES = (
    [(ShapeError, "shift:" + k, v) for k, v in SHIFT_SITES.items()]
    + [(PreconditionError, "unreduced:" + k, v)
       for k, v in UNREDUCED_SITES.items()]
    + [(ShapeError, "columns:" + k, v) for k, v in COLUMN_COUNT_SITES.items()]
    + [(PreconditionError, "integral:" + k, v)
       for k, v in NON_INTEGRAL_SITES.items()]
)


@pytest.mark.parametrize("error, site, call", CASES,
                         ids=[site for _, site, _ in CASES])
def test_bad_input_raises_typed_error(error, site, call):
    with pytest.raises(error):
        call()


def test_valid_inputs_of_the_error_cases_pass():
    # the cases above fail on the one bad argument alone
    assert relations_mod_hermite(H, F, (0,)) == M(7, [[[0, 0, 1]]])
    assert known_degree_relations(H, F, (0,), (2,)) == M(7, [[[0, 0, 1]]])
    assert relation_basis_general(H, F, (0,)) == M(7, [[[0, 0, 1]]])
    assert relations_via_kernel(H, F, (0,)) == M(7, [[[0, 0, 1]]])
    assert relations_from_linear_algebra(
        coefficient_embedding(F, (1, 1)), multiplication_matrix(H), (0,)) \
        == M(7, [[[0, 0, 1]]])
    assert relations_mod_single_poly(X2, M(7, [[[1]]]), (0,)) == \
        M(7, [[[0, 0, 1]]])
    assert approximant_basis_popov(F, (2, 2), (0,))[1] == (2,)
    assert kernel_basis_popov(vstack(F, H), (0, 0, 0), 2).m == 1
    assert residual(H, PolyMat.identity(7, 1), F) == F
    assert rem_of_shifts(H, F, 1, 1)[0] == F
    assert pm_quorem(H, F, 2) == quorem_auto(H, F)


def test_integral_arguments_of_any_integer_type_pass():
    # numpy integers and bools have __index__; they count as integers
    one = np.int64(1)
    assert relations_mod_hermite(H, F, (np.int32(0),)) == \
        relations_mod_hermite(H, F, (0,))
    assert approximant_basis_popov(F, (np.int64(2), 2), (0,))[1] == (2,)
    assert kernel_basis_popov(vstack(F, H), (0, 0, 0), np.int64(2)).m == 1
    assert pm_quorem(H, F, one) == quorem_auto(H, F)
    assert rem_of_shifts(H, F, one, True)[1] == rem_of_shifts(H, F, 1, 1)[1]
    assert Poly(7, [np.int64(3), True]) == Poly(7, [3, 1])
    assert Poly.const(7, np.int64(10)) == Poly.mono(7, np.int8(0), 3)


def test_no_residue_rows_give_the_empty_basis():
    # an empty block carries no column count, so it is reduced modulo any
    # modulus; its relation basis is 0 x 0, as division accepts it
    empty = PolyMat(7, [])
    assert quorem_auto(H, empty) == (empty, empty)
    assert residual(H, PolyMat.identity(7, 0), empty) == empty
    assert rem_of_shifts(H, empty, 1, 1)[0] == empty
    assert relations_mod_hermite(H, empty, ()) == empty
    assert relations_mod_hermite(H, empty, None) == empty
    assert relation_basis_general(H, empty, ()) == empty
    # the modulus and the shift are still checked
    with pytest.raises(PreconditionError):
        relations_mod_hermite(M(7, [[[0, 1], []], [[1], [0, 1]]]), empty, ())
    with pytest.raises(SingularMatrixError):
        relation_basis_general(PolyMat.zero(7, 2, 2), empty, ())
    with pytest.raises(ShapeError):
        relations_mod_hermite(H, empty, (0,))
    with pytest.raises(ShapeError):
        relation_basis_general(H, empty, (0,))
