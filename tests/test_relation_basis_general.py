"""relation_basis_general without a Hermite form of M: one fraction-free
solve for det M and an adjugate column v, a coprime split d = d1*d2 of
det M, and one relations_mod_hermite call modulo diag(H2, d1), where H2
is the Hermite form of rowspace(M) + d2*K[x]^n.  Every result must equal
the relations of rem(F, H) modulo the Hermite form H of M."""

import random

import pytest

import pmat.polymat as polymat_mod
import pmat.relations as relations_mod
from pmat import (
    InternalInvariantError,
    Poly,
    PolyMat,
    ShapeError,
    SingularMatrixError,
    determinant,
    hermite_form,
    quorem_auto,
    relation_basis_general,
    relations_mod_hermite,
    verify_relation_basis,
)

from .helpers import (
    rnd_hermite,
    rnd_nonsingular,
    rnd_poly,
    rnd_polymat,
    rnd_shift,
    rnd_unimodular,
    spy_calls,
)

PRIMES = (2, 7, 1000003, 2**61 - 1)


def hermite_route(m, f, s):
    h = hermite_form(m)
    return relations_mod_hermite(h, quorem_auto(h, f)[1], s)


def monic(rng, p, deg):
    return rnd_poly(rng, p, deg - 1) + Poly.mono(p, deg)


def diag(p, entries):
    z = Poly.zero(p)
    n = len(entries)
    return PolyMat(p, [[entries[i] if i == j else z for j in range(n)]
                       for i in range(n)])


def unit_lower(rng, p, n):
    """Unit lower triangular: its inverse fixes e_{n-1}, so multiplying M
    on the left by it keeps the last adjugate column adj(M)*e_{n-1}."""
    return PolyMat(p, [[Poly.one(p) if i == j else
                        rnd_poly(rng, p, 2) if j < i else Poly.zero(p)
                        for j in range(n)] for i in range(n)])


def split_modulus(rng, p, n):
    """M with adj(M)*e_{n-1} divisible by x - a, a root of det M, so that
    d2 = (x - a)^2 and d1 = c with c(a) != 0: M = L*diag(1, .., 1, B)*V,
    B = [[x - a, 0], [1, (x - a)*c]], whose adjugate column is (0, x - a);
    the unimodular V keeps the gcd of that column."""
    a = rng.randrange(p)
    lin = Poly(p, (-a, 1))
    while True:
        c = monic(rng, p, rng.randint(1, 4))
        if c(a):
            break
    one, z = Poly.one(p), Poly.zero(p)
    rows = [[one if i == j else z for j in range(n)] for i in range(n)]
    rows[n - 2][n - 2] = lin
    rows[n - 1][n - 2] = one
    rows[n - 1][n - 1] = lin * c
    m = unit_lower(rng, p, n) * PolyMat(p, rows) * rnd_unimodular(rng, p, n, 6)
    return m, lin * lin


def moduli(rng, p):
    """(name, M) over the shapes the route must take."""
    f1, f2 = monic(rng, p, 1), monic(rng, p, 2)
    x2 = Poly.mono(p, 2)
    lift = [[Poly.mono(p, 1) if i == j == 0 else Poly.one(p) if i == j
             else Poly.zero(p) for j in range(3)] for i in range(3)]
    return [
        ("random", rnd_nonsingular(rng, p, rng.randint(2, 4), 3)),
        ("non-cyclic", rnd_unimodular(rng, p, 3, 5)
         * diag(p, [Poly.one(p), f1, f1 * f2])
         * rnd_unimodular(rng, p, 3, 5)),
        ("M(0) singular", rnd_nonsingular(rng, p, 3, 2) * PolyMat(p, lift)),
        ("not column reduced", rnd_unimodular(rng, p, 3, 6, maxdeg=3)
         * rnd_hermite(rng, p, 3, 7)),
        ("x^2 I", diag(p, [x2, x2])),
        ("unimodular", rnd_unimodular(rng, p, 3, 8)),
        ("n = 1", PolyMat(p, [[monic(rng, p, 5)]])),
        ("split", split_modulus(rng, p, 3)[0]),
    ]


@pytest.mark.parametrize("p", PRIMES)
def test_matches_the_hermite_route(p):
    rng = random.Random(p % 1000 + 190)
    checked = 0
    for name, m in moduli(rng, p):
        n = m.n
        d = determinant(m).degree
        f_big = rnd_polymat(rng, p, 2, n, d + 4)  # not reduced modulo M
        spread = tuple(rng.choice((-1, 1)) * rng.randint(0, 10**9)
                       for _ in range(3))
        for f, s in ((f_big, (0, 0)), (f_big, rnd_shift(rng, 2)),
                     (rnd_polymat(rng, p, 3, n, 3), spread),
                     (PolyMat.identity(p, n), None),
                     (PolyMat(p, []), ())):
            out = relation_basis_general(m, f, s)
            assert out == hermite_route(m, f, s), (name, s)
            if f.m and d <= 8:
                h = hermite_form(m)
                fr = quorem_auto(h, f)[1]
                assert verify_relation_basis(out, h, fr, s or (0,) * f.m)
                checked += 1
    assert checked >= 8


@pytest.mark.parametrize("p", PRIMES)
def test_split_branch(monkeypatch, p):
    # the adjugate column vanishes at a root of det M: the sweep runs
    # modulo d2 = (x - a)^2, no xgcd in it meets a degree above deg d2,
    # and the result still matches
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    sweeps = spy_calls(monkeypatch, (relations_mod,), "_hermite_sweep")
    xgcds = spy_calls(monkeypatch, (relations_mod,), "poly_xgcd")
    rng = random.Random(p % 1000 + 191)
    for n in (2, 3, 4):
        m, d2 = split_modulus(rng, p, n)
        f = rnd_polymat(rng, p, 2, n, 6)
        s = rnd_shift(rng, 2)
        sweeps.clear()
        xgcds.clear()
        out = relation_basis_general(m, f, s)
        assert [args[3] for args in sweeps] == [d2]
        assert xgcds and all(e.degree <= 2 for args in xgcds for e in args)
        assert out == hermite_route(m, f, s)
        h = hermite_form(m)
        assert verify_relation_basis(out, h, quorem_auto(h, f)[1], s)
        with pytest.raises(ShapeError):  # F's columns, checked at d2 != 1
            relation_basis_general(m, rnd_polymat(rng, p, 2, n + 1, 3), s)


def test_one_solve_and_no_hermite_form_of_m(monkeypatch):
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    hermite = spy_calls(monkeypatch, (relations_mod,), "hermite_form")
    solves = spy_calls(monkeypatch, (relations_mod,), "_bareiss")
    divided = spy_calls(monkeypatch, (relations_mod,), "quorem_auto")
    moduli_seen = spy_calls(monkeypatch, (relations_mod,),
                            "relations_mod_hermite")
    rng = random.Random(192)
    calls = d2_one = 0
    for p in PRIMES:
        for name, m in moduli(rng, p):
            divided.clear()
            relation_basis_general(m, rnd_polymat(rng, p, 2, m.n, 4), (0, 1))
            calls += 1
            assert len(solves) == calls, name
            assert solves[-1] == (m, m.n - 1)
            assert not hermite
            d1 = moduli_seen[-1][0].rows[-1][-1]
            # F*v is reduced modulo d1 by one division by [d1]
            by_d1 = PolyMat(p, [[d1]])
            assert [a[0] for a in divided].count(by_d1) == 1, name
            by_h2 = [a for a in divided if a[0] != by_d1]
            if (determinant(m).monic() // d1).degree:
                # one division modulo H2, n x n; that is the Hermite form H
                # of M only when d1 = 1, where the sweep modulo d2 = det M
                # yields H
                assert len(by_h2) == 1 and by_h2[0][0].n == m.n, name
                if by_h2[0][0] == hermite_form(m):
                    assert d1 == Poly.one(p), name
            else:
                # d2 = 1: H2 = I and rem(F, I) = 0 take no division
                assert not by_h2, name
                d2_one += 1
    assert d2_one and d2_one < calls


def test_columns_checked_before_the_solve(monkeypatch):
    # a wrong-shaped F is refused before the fraction-free solve, whose
    # cost grows with n and deg M
    solves = spy_calls(monkeypatch, (relations_mod,), "_bareiss")
    rng = random.Random(195)
    m = rnd_polymat(rng, 7, 24, 24, 2)
    for cols in (23, 25):
        with pytest.raises(ShapeError, match="columns"):
            relation_basis_general(m, rnd_polymat(rng, 7, 2, cols, 2), None)
    assert not solves


def test_error_contract():
    m = PolyMat.from_coeffs(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = PolyMat.from_coeffs(7, [[[1], []]])
    singular = PolyMat.from_coeffs(7, [[[1], [1]], [[1], [1]]])
    for bad in (singular, PolyMat.zero(7, 2, 2)):
        with pytest.raises(SingularMatrixError):
            relation_basis_general(bad, f, (0,))
    b = rnd_polymat(random.Random(193), 2, 3, 2, 3)
    with pytest.raises(SingularMatrixError):
        relation_basis_general(b * b.transpose(), PolyMat.identity(2, 3),
                               None)
    with pytest.raises(ShapeError):
        relation_basis_general(PolyMat.zero(7, 2, 3), f, (0,))
    with pytest.raises(ShapeError):  # F's columns, checked at d2 = 1
        relation_basis_general(m, PolyMat.from_coeffs(7, [[[1]]]), (0,))
    with pytest.raises(ShapeError):
        relation_basis_general(m, f, (0, 0))
    with pytest.raises(InternalInvariantError):
        polymat_mod._exact_div(Poly(7, (1, 1)), Poly(7, (0, 1)))


def test_verify_mode_compares_the_routes(monkeypatch):
    monkeypatch.setattr(relations_mod, "_VERIFY", True)
    hermite = spy_calls(monkeypatch, (relations_mod,), "hermite_form")
    rng = random.Random(194)
    m = rnd_nonsingular(rng, 7, 3, 2)
    f = rnd_polymat(rng, 7, 2, 3, 3)
    out = relation_basis_general(m, f, (0, 2))
    assert out == hermite_route(m, f, (0, 2)) and len(hermite) == 1
    orig = relations_mod._bareiss

    def wrong_column(mat, col):
        d, v = orig(mat, col)
        return d, [Poly.one(7)] + v[1:]

    # a wrong adjugate column changes the module; only the cross-check
    # against the Hermite route sees it
    monkeypatch.setattr(relations_mod, "_bareiss", wrong_column)
    with pytest.raises(InternalInvariantError, match="routes differ"):
        relation_basis_general(m, f, (0, 2))
