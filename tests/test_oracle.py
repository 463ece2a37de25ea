import random

import pytest

from pmat import (
    ConstMat,
    PolyMat,
    PreconditionError,
    brute_force_relations,
    determinant,
    is_popov,
    naive_quorem,
    poly_divrem,
    quorem_auto,
    relation_basis_general,
    verify_relation_basis,
)

from .helpers import (
    reduces_to_zero,
    rnd_column_reduced,
    rnd_poly,
    rnd_polymat,
    rnd_residues,
)

M = PolyMat.from_coeffs


def embed_rows(mat, dmax):
    """Flatten each row into one coefficient vector of degree bound dmax."""
    out = []
    for row in mat.rows:
        flat = []
        for e in row:
            assert len(e.c) <= dmax + 1
            flat.extend(list(e.c) + [0] * (dmax + 1 - len(e.c)))
        out.append(flat)
    return out


def test_naive_quorem_zero_input():
    m = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    q, r = naive_quorem(m, PolyMat.zero(7, 3, 2))
    assert q.is_zero() and r.is_zero()
    assert (q.m, q.n) == (3, 2) and (r.m, r.n) == (3, 2)


def test_naive_quorem_scalar_matches_poly_divrem():
    rng = random.Random(11)
    for _ in range(40):
        b = rnd_poly(rng, 7, rng.randrange(1, 8), nonzero=True)
        a = rnd_poly(rng, 7, rng.randrange(0, 15))
        q, r = naive_quorem(M(7, [[b.c]]), M(7, [[a.c]]))
        qq, rr = poly_divrem(a, b)
        assert q[0, 0] == qq and r[0, 0] == rr


def test_naive_quorem_rejects_unreduced():
    # column leading matrix [[1, 1], [0, 0]] is singular
    bad = M(7, [[[0, 1], [0, 1]], [[1], [1]]])
    with pytest.raises(PreconditionError):
        naive_quorem(bad, PolyMat.zero(7, 1, 2))
    with pytest.raises(PreconditionError):
        naive_quorem(M(7, [[[0, 1], []], [[], []]]), PolyMat.zero(7, 1, 2))


def test_naive_quorem_matches_fast_division():
    rng = random.Random(12)
    for it in range(40):
        p = 998244353 if it % 4 == 0 else 7
        n = rng.randrange(1, 5)
        m, sigma = rnd_column_reduced(rng, p, n, rng.randrange(1, 6))
        f = rnd_polymat(rng, p, rng.randrange(1, 4), n, rng.randrange(0, 21))
        q, r = naive_quorem(m, f)
        qf, rf = quorem_auto(m, f)
        assert q == qf and r == rf
        for j in range(n):
            assert all(row[j].degree < sigma[j] for row in r.rows)


def test_brute_force_worked_example():
    m = M(7, [[[0, 0, 1]]])
    f = M(7, [[[1]], [[0, 1]]])
    basis = brute_force_relations(m, f, (0, 0), 1)
    assert basis.m == 2 and basis.n == 2
    flat = embed_rows(basis, 1)
    target = embed_rows(M(7, [[[0, 1], [6]]]), 1)[0]  # the row (x, -1)
    rk = ConstMat(7, flat).rank()
    assert rk == 2
    assert ConstMat(7, flat + [target]).rank() == rk
    # no nonzero constant relation: degree-1 coefficient columns have
    # full row rank, so no combination can kill every x coefficient
    deg1 = [[row[1], row[3]] for row in flat]
    assert ConstMat(7, deg1).rank() == basis.m


def test_brute_force_zero_residues_constant_basis():
    m = M(7, [[[0, 0, 1]]])
    basis = brute_force_relations(m, PolyMat.zero(7, 3, 1), (0, 0, 0), 0)
    assert basis == PolyMat.identity(7, 3)


def test_brute_force_default_bound_generates():
    rng = random.Random(13)
    for _ in range(12):
        n = rng.randrange(1, 4)
        m, sigma = rnd_column_reduced(rng, 7, n, 3, mindeg=1)
        mm = rng.randrange(1, 4)
        f = rnd_residues(rng, 7, mm, sigma)
        s = (0,) * mm
        basis = brute_force_relations(m, f, s)
        dmax = determinant(m).degree
        pb = relation_basis_general(m, f, s)
        # soundness: every kernel row really is a relation
        for row in basis.rows:
            assert reduces_to_zero(row, pb, s)
        # completeness: the 0-Popov rows live inside the kernel span,
        # so the kernel rows generate the whole relation module
        assert all(max(e.degree for e in row) <= dmax for row in pb.rows)
        flat = embed_rows(basis, dmax)
        rk = ConstMat(7, flat).rank()
        stacked = flat + embed_rows(pb, dmax)
        assert ConstMat(7, stacked).rank() == rk


def test_verify_relation_basis_examples():
    mod = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    assert verify_relation_basis(M(7, [[[0, 0, 1]]]), mod, f, (0,))
    assert not verify_relation_basis(M(7, [[[0, 1]]]), mod, f, (0,))
    ident = PolyMat.identity(7, 3)
    assert verify_relation_basis(ident, mod, PolyMat.zero(7, 3, 2), (0, 0, 0))


def test_verify_relation_basis_rejects_oversized():
    # x^3 annihilates too, but its determinant degree busts the budget
    mod = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    assert not verify_relation_basis(M(7, [[[0, 0, 0, 1]]]), mod, f, (0,))


# M = [[x^2 + 1, 2], [0, x + 3]] and F = [[x + 1, 2], [3x, 1]] at p = 7;
# det M = (x^2 + 1)(x + 3) = x^3 + 3x^2 + x + 3
SPOIL_MOD = M(7, [[[1, 0, 1], [2]], [[], [3, 1]]])
SPOIL_F = M(7, [[[1, 1], [2]], [[0, 3], [1]]])
DET = [3, 1, 3, 1]


@pytest.mark.parametrize("basis, mod, f, fails", [
    # Popov and within budget, but its rows are not relations
    (PolyMat.identity(7, 2), SPOIL_MOD, SPOIL_F, "relations"),
    # rows that are relations, but degrees 2 deg det M > deg det M
    (M(7, [[DET, []], [[], DET]]), SPOIL_MOD, SPOIL_F, "budget"),
    # a Popov relation basis within budget of the proper submodule x*K[x]
    (M(7, [[[0, 1]]]), M(7, [[[0, 0, 1]]]), M(7, [[[]]]), "span"),
], ids=("not-relations", "over-budget", "submodule"))
def test_verify_relation_basis_rejection_paths(basis, mod, f, fails):
    # each spoiled basis passes every check the oracle makes before the
    # named one, fails that one, and is rejected
    s = (0,) * basis.n
    budget = determinant(mod).degree
    checks = [
        ("popov", lambda: is_popov(basis, s)),
        ("relations", lambda: naive_quorem(mod, basis * f)[1].is_zero()),
        ("budget", lambda: sum(basis[i, i].degree
                               for i in range(basis.n)) <= budget),
        ("span", lambda: all(reduces_to_zero(r, basis, s) for r in
                             brute_force_relations(mod, f, s, budget).rows)),
    ]
    for name, check in checks:
        assert check() == (name != fails)
        if name == fails:
            break
    assert not verify_relation_basis(basis, mod, f, s)


def test_oracle_stays_independent():
    import inspect

    import pmat.oracle

    src = inspect.getsource(pmat.oracle)
    imports = [ln for ln in src.splitlines() if ln.lstrip().startswith("from ")]
    for ln in imports:
        for name in ("division", "approx", "relations", "linalg_base"):
            assert name not in ln


def test_oracle_shares_no_elimination_with_the_pipeline():
    # relation_basis_general solves with the fraction-free elimination
    # behind determinant, so the oracle reads determinant degrees off
    # column and diagonal degrees instead, and names neither
    import ast

    import pmat.oracle

    with open(pmat.oracle.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not names & {"determinant", "_bareiss", "_exact_div"}


def test_oracle_degree_budgets_without_determinant():
    rng = random.Random(14)
    for _ in range(8):
        m, sigma = rnd_column_reduced(rng, 7, rng.randrange(1, 4), 3)
        assert determinant(m).degree == sum(sigma)
        f = rnd_residues(rng, 7, 1, sigma)
        pb = relation_basis_general(m, f, (0,))
        assert verify_relation_basis(pb, m, f, (0,))
        # x^(D+1) times the basis: Popov and made of relations, but its
        # determinant degree busts the budget
        big = PolyMat(7, [[pb[0, 0].shift_up(sum(sigma) + 1)]])
        assert not verify_relation_basis(big, m, f, (0,))
