"""The error types of the relation pipeline's input contract.

A shift is checked in one place (polymat._shift_or_zero), residues
reduced modulo a modulus in one place (division._check_reduced), an
integral argument in one place (poly.check_int), coefficients in one place
(poly._residues) and the field of a block divided by a modulus in one
place (polymat._Divisor); every routine that takes one must still raise
the same typed error."""

import numpy as np
import pytest

from pmat import (
    ConstMat,
    ParseError,
    Poly,
    PolyMat,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
    approximant_basis_popov,
    brute_force_relations,
    column_reversal,
    hermite_form,
    kernel_basis_popov,
    matmul_trunc,
    naive_quorem,
    parse_pmat,
    pm_quorem,
    popov_form,
    quorem_auto,
    reduce_vector_mod_rowspace,
    relation_basis_general,
    relations_mod_hermite,
    rem_of_shifts,
    residual,
    series_inverse,
    truncated_expansion,
    vstack,
)
from pmat.approx import relations_mod_single_poly, relations_via_kernel
from pmat.cli import main
from pmat.linalg import (
    coefficient_embedding,
    multiplication_matrix,
    relations_from_linear_algebra,
)
from pmat.polymat import const_mul
from pmat.relations import known_degree_relations

M = PolyMat.from_coeffs
H = M(7, [[[0, 1], [1]], [[], [0, 1]]])  # Hermite, diagonal degrees (1, 1)
F = M(7, [[[1], []]])  # reduced modulo H
F_BIG = M(7, [[[0, 1], []]])  # column 0 has degree 1, not below 1
X2 = Poly(7, (0, 0, 1))
BAD = (0, 0)  # one entry too many for F's single row
I1, I2 = PolyMat.identity(7, 1), PolyMat.identity(7, 2)
WIDE = M(7, [[[1], [1]]])  # 1 x 2, not square
ZERO_COLUMN = M(7, [[[0, 1], []], [[1], []]])

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
    "poly coefficient": lambda: Poly(7, [1.5, 2]),
    "poly coefficient string": lambda: Poly(7, ["1"]),
    "poly constant": lambda: Poly.const(7, 1.5),
    "monomial coefficient": lambda: Poly.mono(7, 2, 2.5),
    "monomial exponent": lambda: Poly.mono(7, 1.5),
    "zero monomial exponent": lambda: Poly.mono(7, 1.5, 0),
    "matrix coefficient": lambda: M(7, [[[1, 0.5]]]),
    "zero matrix dimension": lambda: PolyMat.zero(7, 2.5, 1),
    "identity dimension": lambda: PolyMat.identity(7, 2.5),
    "constant zero matrix dimension": lambda: ConstMat.zero(7, 2.5, 1),
    "constant identity dimension string": lambda: ConstMat.identity(7, "3"),
    "evaluation point": lambda: Poly(7, [1, 2])(1.5),
    "scalar": lambda: Poly(7, [1, 2]).scale(1.5),
    "scalar string": lambda: Poly(7, [1, 2]).scale("3"),
    "constant matrix entry": lambda: ConstMat(7, [[1.5]]),
    "constant matrix entry string": lambda: ConstMat(7, [["1"]]),
    "poly shift": lambda: Poly(7, [1]).shift_up(1.5),
    "poly truncation": lambda: Poly(7, [1, 2]).truncate(1.5),
    "matrix truncation": lambda: F.truncate(1.5),
    "truncated product order": lambda: matmul_trunc(F, I2, 1.5),
    "expansion order": lambda: truncated_expansion(F, I2, 1.5),
    "reverse bound": lambda: Poly(7, [1, 2]).reverse(2.5),
    "series order": lambda: series_inverse(Poly(7, [1, 2]), 2.5),
}

# a block over another prime than the modulus: no division mixes fields
FOREIGN = M(11, [[[3, 10, 1], []]])
MODULUS_SITES = {
    "quorem_auto": lambda: quorem_auto(H, FOREIGN),
    "pm_quorem": lambda: pm_quorem(H, FOREIGN, 2),
    "truncated_expansion":
        lambda: truncated_expansion(M(11, [[[10], [9]]]), I2, 3),
    "rem_of_shifts": lambda: rem_of_shifts(H, M(11, [[[1], []]]), 1, 1),
    "rem_of_shifts without division":
        lambda: rem_of_shifts(H, M(11, [[[1], []]]), 1, 0),
    "residual": lambda: residual(M(11, [[[0, 1], [1]], [[], [0, 1]]]),
                                 I1, F),
    "matrix add": lambda: F + FOREIGN,
    "matrix sub": lambda: F - FOREIGN,
    "matrix product": lambda: F * M(11, [[[1]], [[2]]]),
    "truncated product": lambda: matmul_trunc(F, M(11, [[[1]], [[2]]]), 2),
    "const_mul": lambda: const_mul(ConstMat(5, [[1]]), I1),
}

# shape errors past the shift and column-count checks above
SHAPE_SITES = {
    "approximant order count":
        lambda: approximant_basis_popov(F, (2,), (0,)),
    "kernel route modulus shape": lambda: relations_via_kernel(I1, F, (0,)),
    "single poly columns": lambda: relations_mod_single_poly(X2, F, (0,)),
    "expansion inner dimensions": lambda: truncated_expansion(F, I1, 2),
    "pm_quorem square modulus": lambda: pm_quorem(WIDE, F, 1),
    "pm_quorem columns": lambda: pm_quorem(H, M(7, [[[1]]]), 1),
    "residual inner dimensions": lambda: residual(H, I2, F),
    "multiplication matrix shape":
        lambda: relations_from_linear_algebra(
            coefficient_embedding(F, (1, 1)), multiplication_matrix(
                M(7, [[[0, 1]]])), (0,)),
    "hermite_form square": lambda: hermite_form(WIDE),
    "popov_form square": lambda: popov_form(WIDE),
    "known degree count": lambda: known_degree_relations(H, F, (0,), (1, 1)),
    "poly fields": lambda: Poly(7, [1]) + Poly(11, [1]),
    "ragged matrix rows": lambda: PolyMat(7, [[Poly(7)], []]),
    "foreign matrix entry": lambda: PolyMat(7, [[Poly(11, [1])]]),
    "matrix add": lambda: F + H,
    "matrix sub": lambda: F - H,
    "matrix product": lambda: F * F,
    "vstack": lambda: vstack(F, I1),
    "truncated product": lambda: matmul_trunc(F, F, 2),
    "reversal offsets": lambda: column_reversal(F, (1,)),
    "reduced vector length":
        lambda: reduce_vector_mod_rowspace((Poly(7),), I2),
    "const_mul": lambda: const_mul(ConstMat(7, [[1, 2]]), F),
    "ragged constant rows": lambda: ConstMat(7, [[1], []]),
    "constant product fields":
        lambda: ConstMat(7, [[1]]) * ConstMat(11, [[1]]),
    "constant product shape":
        lambda: ConstMat(7, [[1, 2]]) * ConstMat(7, [[1, 2]]),
    "oracle quorem modulus": lambda: naive_quorem(WIDE, F),
    "oracle quorem inner dimensions": lambda: naive_quorem(I1, F),
    "oracle relations inner dimensions":
        lambda: brute_force_relations(I1, F, (0,)),
}

# preconditions past the reducedness and integrality checks above
PRECONDITION_SITES = {
    "kernel negative budget":
        lambda: kernel_basis_popov(vstack(F, H), (0, 0, 0), -1),
    "kernel route zero column": lambda: relations_via_kernel(
        ZERO_COLUMN, F, (0,)),
    "pm_quorem zero column": lambda: pm_quorem(ZERO_COLUMN, F, 1),
    "rem_of_shifts step": lambda: rem_of_shifts(H, F, 0, 1),
    "rem_of_shifts count": lambda: rem_of_shifts(H, F, 1, -1),
    "negative known degree":
        lambda: known_degree_relations(H, F, (0,), (-1,)),
    "series order 0": lambda: Poly(7, [1]).series_inverse(0),
    "negative poly shift": lambda: Poly(7, [1]).shift_up(-1),
    "negative monomial exponent": lambda: Poly.mono(7, -1),
    "negative zero matrix dimension": lambda: PolyMat.zero(7, -1, 2),
    "negative identity dimension": lambda: PolyMat.identity(7, -2),
    "negative constant zero dimension": lambda: ConstMat.zero(7, 1, -1),
    "negative constant identity dimension":
        lambda: ConstMat.identity(7, -1),
    "negative slice bound": lambda: Poly(7, [1, 2, 3]).slice_coeffs(-1, 5),
    "negative slice end": lambda: Poly(7, [1, 2, 3]).slice_coeffs(0, -1),
}

CASES = (
    [(ShapeError, "shift:" + k, v) for k, v in SHIFT_SITES.items()]
    + [(PreconditionError, "unreduced:" + k, v)
       for k, v in UNREDUCED_SITES.items()]
    + [(ShapeError, "columns:" + k, v) for k, v in COLUMN_COUNT_SITES.items()]
    + [(PreconditionError, "integral:" + k, v)
       for k, v in NON_INTEGRAL_SITES.items()]
    + [(ShapeError, "modulus:" + k, v) for k, v in MODULUS_SITES.items()]
    + [(ShapeError, "shape:" + k, v) for k, v in SHAPE_SITES.items()]
    + [(PreconditionError, "precondition:" + k, v)
       for k, v in PRECONDITION_SITES.items()]
)


@pytest.mark.parametrize("error, site, call", CASES,
                         ids=[site for _, site, _ in CASES])
def test_bad_input_raises_typed_error(error, site, call):
    # a field mismatch names itself, never passing for a shape mismatch
    match = "modulus mismatch" if site.startswith("modulus:") else None
    with pytest.raises(error, match=match):
        call()


# pmat text and command-line values the CLI must refuse, exit code 2
CLI_TEXTS = {
    "header field": ("pmat 1 1.5 7\n", "line 1: header fields"),
    "negative dimension": ("pmat -1 1 7\n", "line 1: negative"),
    "entry field": ("pmat 1 1 7\n0 0 : 1.5\n", "line 2: entry fields"),
}
CLI_FLAGS = {
    "shift": ["popov", "--shift", "0.5"],
    "order": ["approx", "--order", "2.5"],
}


@pytest.mark.parametrize("name", CLI_TEXTS)
def test_parse_refuses_malformed_fields(name):
    text, message = CLI_TEXTS[name]
    with pytest.raises(ParseError, match=message):
        parse_pmat(text)


@pytest.mark.parametrize("name", CLI_FLAGS)
def test_cli_refuses_non_integral_flags(name, tmp_path, capsys):
    path = tmp_path / "m.pmat"
    path.write_text("pmat 1 1 7\n0 0 : 0 1\n", encoding="utf-8")
    argv = CLI_FLAGS[name]
    assert main(argv[:1] + [str(path)] + argv[1:]) == 2
    assert "integers" in capsys.readouterr().err


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
    assert quorem_auto(H, M(7, [[[3, 10, 1], []]])) == \
        naive_quorem(H, M(7, [[[3, 3, 1], []]]))
    assert truncated_expansion(F, I2, 3) == F
    assert truncated_expansion(F, I2, 0) == PolyMat.zero(7, 1, 2)
    # a constant modulus leaves only zero residues, related by anything
    assert relations_mod_single_poly(Poly(7, [3]), M(7, [[[]], [[]]]),
                                     (0, 0)) == I2
    assert Poly(7, [1, 2]).scale(3) == Poly(7, [3, 6])
    assert ConstMat(7, [[8, -1]]) == ConstMat(7, [[1, 6]])
    assert Poly(7, [1]).shift_up(2) == X2
    assert Poly(7, [1, 2]).truncate(1) == Poly(7, [1])
    assert matmul_trunc(F, I2, 1) == F.truncate(1) == F
    assert matmul_trunc(F, I2, 0) == PolyMat.zero(7, 1, 2)
    assert series_inverse(Poly(7, [1, 1]), 2) == Poly(7, [1, 6])
    assert Poly.mono(7, 0) == Poly(7, [1])
    assert PolyMat.zero(7, 0, 2) == PolyMat(7, []) == PolyMat.identity(7, 0)
    assert ConstMat.zero(7, 1, 0) == ConstMat(7, [[]])
    assert ConstMat.identity(7, 2) == ConstMat(7, [[1, 0], [0, 1]])
    assert Poly(7, [1, 2])(3) == 0 and Poly(7, [1, 2])(np.int8(1)) == 3
    assert Poly(7, [1, 2, 3]).slice_coeffs(1, 5) == Poly(7, [2, 3])
    assert Poly(7, [1, 2, 3]).slice_coeffs(2, 1) == Poly(7)


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
    # a numpy modulus is the int it equals, and the residues are ints too
    a = Poly(np.int64(7), [3, 5])
    assert a == Poly(7, [3, 5]) and type(a.p) is int
    assert a * a == Poly(7, [2, 2, 4])
    b = PolyMat(np.int32(7), H.rows)
    assert b == H and type(b.p) is int
    assert F * b == F * H
    c = ConstMat(np.uint16(7), [[3]])
    assert c == ConstMat(7, [[3]]) and type(c.p) is int
    assert c.inverse() == ConstMat(7, [[5]])


def test_no_residue_rows_give_the_empty_basis():
    # an empty block carries no column count, so it is reduced modulo any
    # modulus; its relation basis is 0 x 0, as division accepts it
    empty = PolyMat(7, [])
    assert quorem_auto(H, empty) == (empty, empty)
    assert residual(H, PolyMat.identity(7, 0), empty) == empty
    assert residual(H, PolyMat(7, [[], []]), empty) == PolyMat.zero(7, 2, 2)
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
