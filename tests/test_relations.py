import random

import pytest

import pmat.approx as approx_mod
import pmat.ntt as ntt_mod
import pmat.relations as relations_mod
from pmat import (
    InternalInvariantError,
    Poly,
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
from pmat.relations import known_degree_relations

from .helpers import (
    diag_degrees,
    is_ordered_weak_popov,
    reduces_to_zero,
    rnd_hermite,
    rnd_column_reduced,
    rnd_nonsingular,
    rnd_polymat,
    rnd_residues,
    rnd_shift,
    rnd_unimodular,
    spy_calls,
    spy_leaves,
    staircase_shift,
)

M = PolyMat.from_coeffs
EDGE_PRIMES = (1000003, 2013265921, 2**31 - 1, 2**61 - 1, 2**127 - 1)


def test_relations_mod_hermite_all_unit_modulus():
    # every coordinate is trimmed: every row is a relation
    h = PolyMat.identity(7, 3)
    f = PolyMat.zero(7, 2, 3)
    out = relations_mod_hermite(h, f, (0, 4))
    assert out == PolyMat.identity(7, 2)
    assert verify_relation_basis(out, h, f, (0, 4))


def test_relations_mod_hermite_trims_unit_columns(monkeypatch):
    m = M(7, [[[1], []], [[], [0, 1]]])
    f = M(7, [[[], [1]]])
    calls = spy_calls(monkeypatch, (relations_mod,), "_relation_pivots")
    out = relations_mod_hermite(m, f, (0,))
    assert calls[0][:2] == (M(7, [[[0, 1]]]), M(7, [[[1]]]))
    assert out == relations_mod_hermite(M(7, [[[0, 1]]]), M(7, [[[1]]]), (0,))
    assert out == M(7, [[[0, 1]]])


def test_relations_mod_hermite_keeps_nonunit_modulus(monkeypatch):
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    calls = spy_calls(monkeypatch, (relations_mod,), "_relation_pivots")
    relations_mod_hermite(h, f, (0,))
    assert calls[0][:2] == (h, f)


def test_relations_mod_hermite_rejects_residue_at_unit_column():
    m = M(7, [[[1], []], [[], [0, 1]]])
    f = M(7, [[[2], [1]]])
    with pytest.raises(PreconditionError):
        relations_mod_hermite(m, f, (0,))


@pytest.mark.parametrize("p", (2, 7, 1000003, 998244353))
def test_relations_mod_hermite_unit_diagonal_property(p):
    # a generic matrix has Hermite form diag(1, .., 1, det): the trimmed
    # result must be the basis of the untrimmed module
    rng = random.Random(p + 86)
    units = 0
    for case in range(15):
        h = hermite_form(rnd_nonsingular(rng, p, rng.randint(2, 4), 2))
        units += diag_degrees(h).count(0)
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, diag_degrees(h))
        s = (0,) * mm if case % 2 else rnd_shift(rng, mm)
        out = relations_mod_hermite(h, f, s)
        assert verify_relation_basis(out, h, f, s)
        assert out == approx_mod.relations_via_kernel(h, f, s)
    assert units >= 15


def test_known_degree_relations_examples():
    x2 = M(7, [[[0, 0, 1]]])
    out = known_degree_relations(x2, M(7, [[[1]]]), (0,), (2,))
    assert out == M(7, [[[0, 0, 1]]])
    out = known_degree_relations(x2, M(7, [[[1]], [[0, 1]]]), (0, 0), (1, 1))
    assert out == M(7, [[[0, 1], [6]], [[], [0, 1]]])
    out = known_degree_relations(x2, PolyMat.zero(7, 2, 1), (0, 0), (0, 0))
    assert out == PolyMat.identity(7, 2)


def test_known_degree_relations_returns_pipeline_basis():
    # at the true pivot degrees the check hands back the pipeline's basis
    rng = random.Random(81)
    for p in (7, 998244353):
        h = rnd_hermite(rng, p, 3, 12)
        f = rnd_residues(rng, p, 3, cdeg(h))
        s = rnd_shift(rng, 3)
        out = relations_mod_hermite(h, f, s)
        again = known_degree_relations(h, f, s, diag_degrees(out))
        assert again == out


def _assert_rejects_perturbations(m, f, s, delta):
    """Every +-1 perturbation of delta raises; returns how many were tried."""
    cases = 0
    for i in range(len(delta)):
        for step in (-1, 1):
            wrong = list(delta)
            wrong[i] += step
            if wrong[i] < 0:
                continue
            with pytest.raises(InternalInvariantError):
                known_degree_relations(m, f, s, wrong)
            cases += 1
    return cases


@pytest.mark.parametrize("p", (7, 1000003, 998244353, 2**61 - 1))
def test_known_degree_relations_rejects_wrong_degrees(p):
    # every +-1 perturbation of the true pivot degrees must raise, never
    # return a basis, modulo Hermite and column reduced moduli alike
    rng = random.Random(82)
    cases = 0
    for _ in range(10):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 14))
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, cdeg(h))
        s = rnd_shift(rng, mm)
        delta = diag_degrees(relations_mod_hermite(h, f, s))
        cases += _assert_rejects_perturbations(h, f, s, delta)
    assert cases >= 20
    general = 0
    for _ in range(6):
        m, sigma = rnd_column_reduced(rng, p, rng.randint(2, 3), 4, mindeg=1)
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, sigma)
        s = rnd_shift(rng, mm)
        out = relation_basis_general(m, f, s)
        assert known_degree_relations(m, f, s, diag_degrees(out)) == out
        hf = hermite_form(m)
        _, fr = quorem_auto(hf, f)
        assert verify_relation_basis(out, hf, fr, s)
        general += not is_hermite(m)
        cases += _assert_rejects_perturbations(m, f, s, diag_degrees(out))
    assert general >= 4 and cases >= 30


@pytest.mark.parametrize("p", EDGE_PRIMES)
def test_relation_routes_at_edge_primes(monkeypatch, p):
    rng = random.Random(83)
    known = spy_calls(monkeypatch, (relations_mod,), "known_degree_relations")
    normalized = spy_calls(monkeypatch, (relations_mod,), "_normalize")
    for _ in range(5):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 24))
        mm = rng.randint(1, 3)
        f = rnd_residues(rng, p, mm, cdeg(h))
        s = rnd_shift(rng, mm)
        assert verify_relation_basis(relations_mod_hermite(h, f, s), h, f, s)
    assert normalized and not known
    del normalized[:]
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
    assert normalized and not known


def test_relation_pipeline_never_reaches_kernel_route(monkeypatch):
    # the kernel route is the tests' independent check of the pipeline, so
    # the pipeline must not call it; every single-coordinate block runs the
    # engine's leaf entry on [F; h] instead, returning its whole relation
    # block, the sweep sees only blocks of other sizes, and each public
    # call normalizes one weak Popov basis, with no known-degree
    # reconstruction
    def refuse(*args):
        raise AssertionError("relation pipeline reached the kernel route")

    for name in ("kernel_basis_popov", "relations_via_kernel",
                 "approximant_basis_popov"):
        monkeypatch.setattr(approx_mod, name, refuse)
    known = spy_calls(monkeypatch, (relations_mod,), "known_degree_relations")
    normalized = spy_calls(monkeypatch, (relations_mod,), "_normalize")
    engine = []
    orig_engine = relations_mod._relation_leaf

    def spy_engine(g, s):
        basis, dfin = orig_engine(g, s)
        engine.append((g, (basis.m, basis.n)))
        return basis, dfin

    monkeypatch.setattr(relations_mod, "_relation_leaf", spy_engine)
    swept = spy_calls(monkeypatch, (relations_mod,),
                      "multiplication_matrix")
    leaves = []
    orig_pivots = relations_mod._relation_pivots

    def spy_pivots(h, f, s):
        if h.n == 1:
            leaves.append((vstack(f, h), (f.m, f.m)))
        return orig_pivots(h, f, s)

    monkeypatch.setattr(relations_mod, "_relation_pivots", spy_pivots)
    publics = []
    orig_public = relations_mod.relations_mod_hermite

    def spy_public(h, f, s):
        before = len(normalized)
        out = orig_public(h, f, s)
        publics.append((sum(diag_degrees(h)) > f.m, len(normalized) - before))
        return out

    monkeypatch.setattr(relations_mod, "relations_mod_hermite", spy_public)
    rng = random.Random(85)
    for p in (7, 1000003, 998244353):
        for _ in range(4):
            nn = rng.randint(1, 5)
            h = rnd_hermite(rng, p, nn, rng.randint(nn, 24))
            mm = rng.randint(1, 3)
            f = rnd_residues(rng, p, mm, cdeg(h))
            # through the module, so the spies see the public call
            relations_mod.relations_mod_hermite(h, f, rnd_shift(rng, mm))
        m = rnd_unimodular(rng, p, 2, 4) * rnd_hermite(rng, p, 2, 12)
        relation_basis_general(m, rnd_polymat(rng, p, 2, 2, 6), (0, 3))
        m3 = rnd_nonsingular(rng, p, 3, 3)
        relation_basis_general(m3, PolyMat.identity(p, 3), None)
    assert len(leaves) >= 10
    assert engine == leaves
    assert all(shape == (g.m - 1, g.m - 1) for g, shape in engine)
    # leaves with deg h <= m, which the sweep took before, included
    assert any(g.rows[-1][0].degree < g.m for g, _ in engine)
    assert swept and all(h.n != 1 for (h,) in swept)
    assert not known
    # 12 direct calls and one per relation_basis_general call, which under
    # PMAT_VERIFY makes a second, through hermite_form, to compare
    assert len(publics) == (24 if relations_mod._VERIFY else 18)
    assert sum(above for above, _ in publics) >= 10
    assert all(normalizations == 1 for _, normalizations in publics)


@pytest.mark.parametrize("p", (2, 7, 1000003, 998244353, 2**61 - 1))
def test_relation_pivots_weak_popov_basis(p):
    # the basis the left spine carries: s-ordered weak Popov with diagonal
    # degrees delta, relations only, and delta the canonical pivot degrees
    rng = random.Random(86)
    for n in range(1, 9):
        h = rnd_hermite(rng, p, n, rng.randint(n, 3 * n + 4))
        total = sum(diag_degrees(h))
        mm = rng.randint(1, 4)
        f = rnd_residues(rng, p, mm, cdeg(h))
        rows = [list(r) for r in f.rows]
        rows[rng.randrange(mm)] = [Poly(p)] * n
        for residues in (f, PolyMat(p, rows), PolyMat.zero(p, mm, n)):
            for s in ((0,) * mm, rnd_shift(rng, mm),
                      tuple(rng.randint(-3 * total, 3 * total)
                            for _ in range(mm))):
                delta, basis = relations_mod._relation_pivots(
                    h, residues, list(s))
                assert basis.m == basis.n == mm
                assert list(diag_degrees(basis)) == delta
                assert is_ordered_weak_popov(basis, s)
                assert residual(h, basis, residues).is_zero()
                canonical = relations_mod_hermite(h, residues, s)
                assert list(diag_degrees(canonical)) == delta


def test_left_spine_guards(monkeypatch):
    rng = random.Random(89)
    h = rnd_hermite(rng, 7, 2, 16, balanced=True)
    f = rnd_residues(rng, 7, 2, cdeg(h))
    orig = relations_mod._relation_leaf

    def drift(g, s):
        basis, dfin = orig(g, s)
        return basis, [dfin[0] + 1] + list(dfin[1:])

    with monkeypatch.context() as mp:
        mp.setattr(relations_mod, "_relation_leaf", drift)
        with pytest.raises(InternalInvariantError, match="weak Popov"):
            relations_mod_hermite(h, f, (0, 0))

    def spoil(g, s):
        basis, dfin = orig(g, s)
        if basis is not None and basis.m == g.m - 1:
            rows = [list(r) for r in basis.rows]
            rows[1][0] = rows[1][0] + Poly.one(7)
            basis = PolyMat(7, rows)
        return basis, dfin

    # a basis on its pivot degrees that is not made of relations passes
    # the cheap guard; the self-check mode catches it
    monkeypatch.setattr(relations_mod, "_relation_leaf", spoil)
    monkeypatch.setattr(relations_mod, "_VERIFY", True)
    with pytest.raises(InternalInvariantError, match="basis rows are not"):
        relations_mod_hermite(h, f, (0, 0))


@pytest.mark.parametrize("spoil, match", [
    # a pivot that is not monic
    (lambda b: PolyMat(7, [[e.scale(2) for e in b.rows[0]],
                           *b.rows[1:]]),
     "not in shifted Popov form"),
    # x^17 times the basis: still Popov, with degrees past deg det H = 16
    (lambda b: PolyMat(7, [[e.shift_up(17) for e in r] for r in b.rows]),
     "exceed the modulus size"),
    # the identity: Popov and within budget, but its rows are no relations
    (lambda b: PolyMat.identity(7, b.m), "result rows are not relations"),
], ids=("not-popov", "over-budget", "not-relations"))
def test_self_check_guards(monkeypatch, spoil, match):
    # each check of the self-check mode catches a spoiled final basis
    rng = random.Random(89)
    h = rnd_hermite(rng, 7, 2, 16, balanced=True)
    f = rnd_residues(rng, 7, 2, cdeg(h))
    orig = relations_mod._normalize
    monkeypatch.setattr(relations_mod, "_normalize",
                        lambda *args: spoil(orig(*args)))
    monkeypatch.setattr(relations_mod, "_VERIFY", True)
    with pytest.raises(InternalInvariantError, match=match):
        relations_mod_hermite(h, f, (0, 0))


def _capped(s, cap):
    """s with every gap of its sorted values shrunk to at most cap."""
    order = sorted(range(len(s)), key=s.__getitem__)
    out = [0] * len(s)
    for a, b in zip(order, order[1:]):
        out[b] = out[a] + min(s[b] - s[a], cap)
    return tuple(out)


def test_relations_at_extreme_shift_spread():
    big = 10**18
    rng = random.Random(87)
    for p in (7, 1000003):
        h = rnd_hermite(rng, p, 3, 12)
        d = sum(diag_degrees(h))
        f = rnd_residues(rng, p, 4, cdeg(h))
        for s in ((0, big, -big, 3), (big, 2, big + 5, -big), (0, -big)):
            ff = PolyMat(p, f.rows[:len(s)])
            out = relations_mod_hermite(h, ff, s)
            assert out == relations_mod_hermite(h, ff, _capped(s, d + 1))
            assert verify_relation_basis(out, h, ff, s)
        m = rnd_nonsingular(rng, p, 3, 2)
        d = determinant(m).degree
        s = (big, 0, -big)
        out = popov_form(m, s)
        assert out == popov_form(m, _capped(s, d + 1))
        assert is_popov(out, s)


def test_relation_engine_orders_bounded_by_degree(monkeypatch):
    # with the shift compressed at entry, the leaves' orders are set by
    # D = deg det H and the row count, never by the shift's spread; a
    # leaf's worst-case order tau is bounded, and so is the whole order
    # its column passes run, a resumed leaf's two passes added up
    leaves = spy_leaves(monkeypatch)
    rng = random.Random(88)
    for p in (7, 998244353):
        for _ in range(6):
            nn = rng.randint(1, 4)
            h = rnd_hermite(rng, p, nn, rng.randint(nn, 24))
            d = sum(diag_degrees(h))
            mm = rng.randint(1, 4)
            f = rnd_residues(rng, p, mm, cdeg(h))
            bound = (mm + 1) * (d + 1)
            for s in (rnd_shift(rng, mm),
                      tuple(rng.choice((-1, 1)) * rng.randint(0, 10**18)
                            for _ in range(mm))):
                seen = len(leaves)
                out = relations_mod_hermite(h, f, s)
                assert is_popov(out, s)
                for _, tau, orders in leaves[seen:]:
                    assert sum(orders) <= tau <= bound, (orders, tau, bound)
    assert len(leaves) >= 12


def test_relations_mod_hermite_ntt_at_largest_31_bit_prime(monkeypatch):
    # 2013265921 = 15 * 2^27 + 1 is the largest NTT-friendly prime below
    # 2^31, the top of a transform's range in signed 64-bit words;
    # Kronecker substitution takes every product here too, at 9-byte slots,
    # and none reaches the tracer's ntt anchors
    p = 2013265921
    rng = random.Random(84)
    h = rnd_hermite(rng, p, 2, 96, balanced=True)
    f = rnd_residues(rng, p, 2, diag_degrees(h))
    s = (0, 0)
    calls = [spy_calls(monkeypatch, (ntt_mod,), name)
             for name in ("matmul_ntt", "mul_ntt")]
    out = relations_mod_hermite(h, f, s)
    assert calls == [[], []]
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
    # a unit diagonal entry is accepted: its coordinate is trimmed
    with_identity_col = M(7, [[[1], [1]], [[], [0, 1]]])
    zero = M(7, [[[], []]])
    out = relations_mod_hermite(with_identity_col, zero, (0,))
    assert out == PolyMat.identity(7, 1)
    assert verify_relation_basis(out, with_identity_col, zero, (0,))


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
        assert verify_relation_basis(out, h, fr, s)


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
