import random

import pytest

import pmat.approx as approx_mod
import pmat.ntt as ntt_mod
import pmat.relations as relations_mod
from pmat import (
    InternalInvariantError,
    PolyMat,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
    cdeg,
    determinant,
    emit_pmat,
    hermite_form,
    is_hermite,
    is_popov,
    matmul,
    popov_form,
    quorem_auto,
    relation_basis_general,
    relations_mod_hermite,
    residual,
    set_verify,
    verify_relation_basis,
    vstack,
)
from pmat.cli import main
from pmat.linalg import (
    coefficient_embedding,
    multiplication_matrix,
    relations_from_linear_algebra,
)
from pmat.relations import clean_identity_columns, known_degree_relations

from .helpers import (
    diag_degrees,
    reduces_to_zero,
    rnd_hermite,
    rnd_nonsingular,
    rnd_polymat,
    rnd_residues,
    rnd_shift,
    rnd_unimodular,
    spy_calls,
    staircase_shift,
)

M = PolyMat.from_coeffs
EDGE_PRIMES = (1000003, 2013265921, 2**31 - 1, 2**61 - 1, 2**127 - 1)


def test_clean_identity_columns_full_identity():
    n, g, kept = clean_identity_columns(PolyMat.identity(7, 3),
                                        PolyMat.zero(7, 2, 3))
    assert n.m == 0 and n.n == 0
    assert g.m == 2 and g.n == 0
    assert kept == ()


def test_clean_identity_columns_mixed():
    m = M(7, [[[1], []], [[], [0, 1]]])
    f = M(7, [[[], [1]]])
    n, g, kept = clean_identity_columns(m, f)
    assert n == M(7, [[[0, 1]]])
    assert g == M(7, [[[1]]])
    assert kept == (1,)


def test_clean_identity_columns_untouched():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    n, g, kept = clean_identity_columns(h, f)
    assert n == h and g == f and kept == (0, 1)


def test_clean_identity_columns_rejects_dirty_face():
    m = M(7, [[[1], []], [[], [0, 1]]])
    f = M(7, [[[2], [1]]])
    with pytest.raises(PreconditionError):
        clean_identity_columns(m, f)


def test_known_degree_relations_examples():
    x2 = M(7, [[[0, 0, 1]]])
    out = known_degree_relations(x2, M(7, [[[1]]]), (0,), (2,))
    assert out == M(7, [[[0, 0, 1]]])
    out = known_degree_relations(x2, M(7, [[[1]], [[0, 1]]]), (0, 0), (1, 1))
    assert out == M(7, [[[0, 1], [6]], [[], [0, 1]]])
    out = known_degree_relations(x2, PolyMat.zero(7, 2, 1), (0, 0), (0, 0))
    assert out == PolyMat.identity(7, 2)


def test_known_degree_relations_runs_one_engine_pass(monkeypatch):
    rng = random.Random(81)
    for p in (7, 998244353):
        h = rnd_hermite(rng, p, 3, 12)
        f = rnd_residues(rng, p, 3, cdeg(h))
        s = rnd_shift(rng, 3)
        out = relations_mod_hermite(h, f, s)
        with monkeypatch.context() as mp:
            calls = spy_calls(mp, (approx_mod, relations_mod), "_order_basis")
            again = known_degree_relations(h, f, s, diag_degrees(out))
        assert len(calls) == 1
        assert again == out


@pytest.mark.parametrize("p", (7, 1000003, 998244353, 2**61 - 1))
def test_known_degree_relations_rejects_wrong_degrees(p):
    # every +-1 perturbation of the true pivot degrees must raise, never
    # return a basis
    rng = random.Random(82)
    cases = 0
    for _ in range(10):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 14))
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, cdeg(h))
        s = rnd_shift(rng, mm)
        delta = diag_degrees(relations_mod_hermite(h, f, s))
        for i in range(mm):
            for step in (-1, 1):
                wrong = list(delta)
                wrong[i] += step
                if wrong[i] < 0:
                    continue
                with pytest.raises(InternalInvariantError):
                    known_degree_relations(h, f, s, wrong)
                cases += 1
    assert cases >= 20


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_relation_routes_at_edge_primes(monkeypatch, p):
    rng = random.Random(83)
    known = spy_calls(monkeypatch, (relations_mod,), "known_degree_relations")
    for _ in range(5):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 24))
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, cdeg(h))
        s = rnd_shift(rng, mm)
        assert verify_relation_basis(relations_mod_hermite(h, f, s), h, f, s)
    assert known
    del known[:]
    for _ in range(5):
        # a random matrix mostly has Hermite form diag(1, .., 1, det), which
        # never splits; a unimodular multiple of a Hermite matrix does
        nn = rng.randint(2, 3)
        m = rnd_unimodular(rng, p, nn, 4) * rnd_hermite(rng, p, nn,
                                                        rng.randint(6, 24))
        mm = rng.randint(1, 3)
        f = rnd_polymat(rng, p, mm, nn, 6)
        s = rnd_shift(rng, mm)
        out = relation_basis_general(m, f, s)
        hf = hermite_form(m)
        _, fr = quorem_auto(hf, f)
        assert verify_relation_basis(out, hf, fr, s)
    assert known


def test_relation_pipeline_never_reaches_kernel_route(monkeypatch):
    # the kernel route is the tests' independent check of the pipeline, so
    # the pipeline must not call it; a single-coordinate leaf finds its
    # pivot degrees with one degrees-only engine pass on [F; h] instead
    def refuse(*args):
        raise AssertionError("relation pipeline reached the kernel route")

    for name in ("kernel_basis_popov", "relations_via_kernel",
                 "approximant_basis_popov"):
        monkeypatch.setattr(approx_mod, name, refuse)
    recursion = spy_calls(monkeypatch, (relations_mod,),
                          "relations_mod_hermite")
    engine = spy_calls(monkeypatch, (relations_mod,), "_order_basis")
    rng = random.Random(85)
    for p in (7, 1000003, 998244353):
        for _ in range(4):
            nn = rng.randint(1, 3)
            h = rnd_hermite(rng, p, nn, rng.randint(nn, 20))
            mm = rng.randint(1, 3)
            f = rnd_residues(rng, p, mm, cdeg(h))
            # through the module, so the spy sees the top-level call too
            relations_mod.relations_mod_hermite(h, f, rnd_shift(rng, mm))
        m = rnd_unimodular(rng, p, 2, 4) * rnd_hermite(rng, p, 2, 12)
        relation_basis_general(m, rnd_polymat(rng, p, 2, 2, 6), (0, 3))
        popov_form(rnd_nonsingular(rng, p, 3, 3))
    leaves = [(h, f) for h, f, _ in recursion
              if h.n == 1 and h.rows[0][0].degree > f.m]
    degree_passes = [args[0] for args in engine if args[3:] == ((),)]
    assert len(leaves) >= 10
    assert degree_passes == [vstack(f, h) for h, f in leaves]


def test_relations_mod_hermite_ntt_at_largest_31_bit_prime(monkeypatch):
    # 2013265921 = 15 * 2^27 + 1 is the largest NTT-friendly prime below
    # 2^31: residue products come closest to the int64 bound in ntt.py
    p = 2013265921
    rng = random.Random(84)
    h = rnd_hermite(rng, p, 2, 96, balanced=True)
    f = rnd_residues(rng, p, 2, diag_degrees(h))
    s = (0, 0)
    calls = spy_calls(monkeypatch, (ntt_mod,), "matmul_ntt")
    out = relations_mod_hermite(h, f, s)
    assert calls
    assert out == relations_from_linear_algebra(
        coefficient_embedding(f, diag_degrees(h)), multiplication_matrix(h), s)


def test_relations_mod_hermite_worked_trace():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    assert relations_mod_hermite(h, f, (0,)) == M(7, [[[0, 0, 1]]])


def test_relations_mod_hermite_trivial_and_scalar():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    assert relations_mod_hermite(h, PolyMat.zero(7, 3, 2), (1, 0, -1)) == \
        PolyMat.identity(7, 3)
    out = relations_mod_hermite(M(7, [[[0, 0, 1]]]),
                                M(7, [[[1]], [[0, 1]]]), (0, 0))
    assert out == M(7, [[[0, 1], [6]], [[], [0, 1]]])


def test_relations_mod_hermite_preconditions():
    not_hermite = M(7, [[[0, 1], []], [[1], [1]]])
    with pytest.raises(PreconditionError):
        relations_mod_hermite(not_hermite, M(7, [[[1], []]]), (0,))
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    toobig = M(7, [[[0, 1], []]])
    with pytest.raises(PreconditionError):
        relations_mod_hermite(h, toobig, (0,))
    with_identity_col = M(7, [[[1], [1]], [[], [0, 1]]])
    with pytest.raises(PreconditionError):
        relations_mod_hermite(with_identity_col, M(7, [[[], []]]), (0,))


def test_relations_mod_hermite_random_contract():
    rng = random.Random(71)
    for _ in range(25):
        nn = rng.randint(1, 4)
        total = rng.randint(nn, 14)
        h = rnd_hermite(rng, 7, nn, total)
        mm = rng.randint(1, 4)
        f = rnd_residues(rng, 7, mm, cdeg(h))
        s = rnd_shift(rng, mm)
        out = relations_mod_hermite(h, f, s)
        assert is_popov(out, s)
        assert residual(h, out, f).is_zero()
        assert sum(diag_degrees(out)) <= total
        assert verify_relation_basis(out, h, f, s)


def test_relations_shift_translation():
    rng = random.Random(72)
    for _ in range(10):
        h = rnd_hermite(rng, 7, 2, rng.randint(2, 8))
        f = rnd_residues(rng, 7, 3, cdeg(h))
        s = rnd_shift(rng, 3)
        c = rng.randint(-5, 5)
        assert relations_mod_hermite(h, f, s) == \
            relations_mod_hermite(h, f, tuple(x + c for x in s))


def test_hermite_form_fixed_point_and_examples():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    assert hermite_form(h) == h
    assert hermite_form(M(7, [[[0, 1], []], [[1], [1]]])) == \
        M(7, [[[1], [1]], [[], [0, 1]]])
    assert hermite_form(M(7, [[[1, 1], [0, 1]], [[0, 1], [0, 1]]])) == \
        M(7, [[[1], []], [[], [0, 1]]])
    # the CLI's --assume-hermite branch relies on this fixed point
    for p in (2, 7, 1000003, 998244353):
        rng = random.Random(p)
        unit = other = 0
        for _ in range(12):
            h = hermite_form(rnd_nonsingular(rng, p, rng.randint(1, 4), 3))
            assert hermite_form(h) == h
            degs = diag_degrees(h)
            unit += degs.count(0)
            other += len(degs) - degs.count(0)
        assert unit and other


def test_hermite_form_random_contract():
    rng = random.Random(73)
    for _ in range(20):
        nn = rng.randint(1, 4)
        m = rnd_nonsingular(rng, 7, nn, 4)
        h = hermite_form(m)
        assert is_hermite(h)
        # same determinant up to a constant: h has monic determinant
        dm = determinant(m)
        assert determinant(h) == dm.monic()
        # row space inclusion plus matching determinant degree
        s = staircase_shift(nn, dm.degree + 1)
        for row in m.rows:
            assert reduces_to_zero(row, h, s)


def test_hermite_form_singular_rejected():
    with pytest.raises(SingularMatrixError):
        hermite_form(M(7, [[[1], [1]], [[2], [2]]]))
    with pytest.raises(SingularMatrixError):
        hermite_form(PolyMat.zero(7, 2, 2))


def test_popov_form_examples():
    w = M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert popov_form(w) == w
    assert popov_form(M(7, [[[1, 1], [0, 1]], [[0, 1], [0, 1]]])) == \
        M(7, [[[1], []], [[], [0, 1]]])
    u = rnd_unimodular(random.Random(74), 7, 3, 8)
    assert popov_form(u) == PolyMat.identity(7, 3)


def test_pipeline_checks_shift_length_before_identity_shortcut():
    # a unimodular modulus leaves no coordinate after cleaning
    u = rnd_unimodular(random.Random(81), 7, 2, 8)
    with pytest.raises(ShapeError):
        popov_form(u, [0, 0, 0])
    with pytest.raises(ShapeError):
        relation_basis_general(u, PolyMat.identity(7, 2), [0])
    with pytest.raises(ShapeError):
        relation_basis_general(u, PolyMat.identity(7, 2), [0, 0, 0])
    assert popov_form(u, [0, 5]) == PolyMat.identity(7, 2)


def test_popov_form_random_contract():
    rng = random.Random(75)
    for _ in range(15):
        nn = rng.randint(1, 3)
        m = rnd_nonsingular(rng, 7, nn, 4)
        s = rnd_shift(rng, nn)
        pv = popov_form(m, s)
        assert is_popov(pv, s)
        assert determinant(pv) == determinant(m).monic()
        assert popov_form(pv, s) == pv
        u = rnd_unimodular(rng, 7, nn, 6)
        assert popov_form(matmul(u, m), s) == pv


def test_popov_form_staircase_equals_hermite():
    rng = random.Random(76)
    for _ in range(10):
        nn = rng.randint(1, 3)
        m = rnd_nonsingular(rng, 7, nn, 3)
        d = determinant(m).degree + 1
        assert popov_form(m, staircase_shift(nn, d)) == hermite_form(m)


def test_relation_basis_general_examples():
    out = relation_basis_general(PolyMat.identity(7, 2),
                                 rnd_polymat(random.Random(77), 7, 3, 2, 4),
                                 (0, 0, 0))
    assert out == PolyMat.identity(7, 3)
    out = relation_basis_general(M(7, [[[0, 0, 1]]]),
                                 M(7, [[[1]], [[0, 1]]]), (0, 0))
    assert out == M(7, [[[0, 1], [6]], [[], [0, 1]]])


def test_relation_basis_general_unimodular_invariance():
    rng = random.Random(78)
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    for _ in range(8):
        u = rnd_unimodular(rng, 7, 2, 6)
        out = relation_basis_general(matmul(u, h), f, (0,))
        assert out == M(7, [[[0, 0, 1]]])


def test_relation_basis_general_random_verified():
    rng = random.Random(79)
    for _ in range(12):
        nn = rng.randint(1, 3)
        m = rnd_nonsingular(rng, 7, nn, 3)
        mm = rng.randint(1, 3)
        f = rnd_polymat(rng, 7, mm, nn, 5)
        s = rnd_shift(rng, mm)
        out = relation_basis_general(m, f, s)
        assert is_popov(out, s)
        # check against the triangular form of the same module
        h = hermite_form(m)
        _, fr = quorem_auto(h, f)
        hn, gn, _ = clean_identity_columns(h, fr)
        if hn.m:
            assert verify_relation_basis(out, hn, gn, s)
        else:
            assert out == PolyMat.identity(7, mm)


def test_relation_basis_general_rejects_singular():
    with pytest.raises(SingularMatrixError):
        relation_basis_general(M(7, [[[1], [1]], [[1], [1]]]),
                               M(7, [[[1], []]]), (0,))


def test_self_verification_mode(monkeypatch, tmp_path, capsys):
    checks = spy_calls(monkeypatch, [relations_mod], "_verify_basis")
    prior = relations_mod._VERIFY
    set_verify(True)
    try:
        h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
        f = M(7, [[[1], []]])
        assert relations_mod_hermite(h, f, (0,)) == M(7, [[[0, 0, 1]]])
        rng = random.Random(80)
        hh = rnd_hermite(rng, 7, 3, 9)
        ff = rnd_residues(rng, 7, 2, cdeg(hh))
        out = relations_mod_hermite(hh, ff, (0, 0))
        assert is_popov(out, (0, 0))

        # the pipeline's own check, on the uncleaned Hermite form, runs
        # last for every entry point built on it
        m = rnd_nonsingular(rng, 7, 3, 2)
        s = rnd_shift(rng, 3)
        out = popov_form(m, s)
        assert is_popov(out, s)
        assert sum(diag_degrees(out)) == determinant(m).degree
        assert checks[-1][:2] == (out, hermite_form(m))
        g = rnd_polymat(rng, 7, 2, 3, 4)
        out = relation_basis_general(m, g, (1, -1))
        assert is_popov(out, (1, -1))
        assert checks[-1][:2] == (out, hermite_form(m))
        hc = M(7, [[[1], [2]], [[], [0, 0, 1]]])
        fc = M(7, [[[0, 0, 0, 1], [0, 0, 0, 2]]])
        paths = []
        for name, mat in (("m.pmat", hc), ("f.pmat", fc)):
            path = tmp_path / name
            path.write_text(emit_pmat(mat), encoding="utf-8")
            paths.append(str(path))
        checks.clear()
        assert main(["relations"] + paths + ["--assume-hermite"]) == 0
        out = capsys.readouterr().out
        assert checks and checks[-1][1] == hc
        assert out == emit_pmat(checks[-1][0])
    finally:
        set_verify(prior)
