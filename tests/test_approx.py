import random

import pytest

from pmat import (
    Poly,
    PolyMat,
    PreconditionError,
    approximant_basis_popov,
    is_popov,
    kernel_basis_popov,
    matmul,
    relations_mod_hermite,
    vstack,
)
from pmat.approx import relations_mod_single_poly
from pmat.relations import _compress_shift

from .helpers import (
    brute_force_approximants,
    diag_degrees,
    rect_popov_ok,
    reduces_to_zero,
    rnd_polymat,
    rnd_shift,
)

M = PolyMat.from_coeffs


def annihilates_at_orders(row, g, tau):
    out = matmul(row, g)
    return all(e.truncate(t).is_zero for e, t in zip(out.rows[0], tau))


def test_approx_zero_input():
    p, delta = approximant_basis_popov(PolyMat.zero(7, 3, 2), (4, 2), (0, -1, 5))
    assert p == PolyMat.identity(7, 3)
    assert delta == (0, 0, 0)


def test_approx_scalar_order_ideal():
    p, delta = approximant_basis_popov(M(7, [[[1]]]), (3,), (0,))
    assert p == M(7, [[[0, 0, 0, 1]]])
    assert delta == (3,)


def test_approx_pade_pair():
    g = M(7, [[[1]], [[0, 1]]])
    p, delta = approximant_basis_popov(g, (2,), (0, 0))
    assert p == M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert delta == (1, 1)


def test_approx_random_properties():
    rng = random.Random(51)
    for _ in range(30):
        p = rng.choice([7, 998244353])
        r = rng.randint(1, 4)
        n = rng.randint(1, 3)
        g = rnd_polymat(rng, p, r, n, 5)
        tau = tuple(rng.randint(1, 6) for _ in range(n))
        u = rnd_shift(rng, r, -3, 3)
        basis, delta = approximant_basis_popov(g, tau, u)
        assert is_popov(basis, u)
        assert rect_popov_ok(basis, u)   # cross-check the two predicates
        assert delta == diag_degrees(basis)
        assert sum(delta) <= sum(tau)
        for i in range(r):
            row = basis.submatrix((i,), tuple(range(r)))
            assert annihilates_at_orders(row, g, tau)


def test_approx_brute_force_completeness():
    rng = random.Random(52)
    for _ in range(12):
        r = rng.randint(1, 3)
        n = rng.randint(1, 2)
        g = rnd_polymat(rng, 7, r, n, 4)
        tau = tuple(rng.randint(1, 4) for _ in range(n))
        u = rnd_shift(rng, r, -2, 2)
        basis, delta = approximant_basis_popov(g, tau, u)
        dmax = max(delta) if delta else 0
        for witness in brute_force_approximants(g, tau, dmax):
            assert annihilates_at_orders(witness, g, tau)
            assert reduces_to_zero(witness.rows[0], basis, u)


def test_approx_shift_translation():
    rng = random.Random(53)
    for _ in range(15):
        g = rnd_polymat(rng, 7, 3, 2, 4)
        tau = (3, 2)
        u = rnd_shift(rng, 3)
        c = rng.randint(-6, 6)
        p1, d1 = approximant_basis_popov(g, tau, u)
        p2, d2 = approximant_basis_popov(g, tau, tuple(x + c for x in u))
        assert p1 == p2 and d1 == d2


def test_approx_spread_1e18_matches_compressed_shift():
    # every entry of the basis has degree at most sum(tau), so gaps in the
    # shift beyond sum(tau) + 1 change no Popov comparison
    rng = random.Random(54)
    for _ in range(12):
        p = rng.choice([7, 998244353, 2**61 - 1])
        r = rng.randint(2, 4)
        n = rng.randint(1, 2)
        g = rnd_polymat(rng, p, r, n, 5)
        tau = tuple(rng.randint(1, 8) for _ in range(n))
        lo = rng.randint(-10**18, 0)
        u = [lo + rng.randint(0, 10**18) for _ in range(r)]
        bottom, top, *rest = rng.sample(range(r), r)
        u[bottom], u[top] = lo, lo + 10**18
        if rest:  # a small gap next to a huge one
            u[rest[0]] = u[top] - rng.randint(0, 3)
        basis, delta = approximant_basis_popov(g, tau, u)
        small = _compress_shift(u, sum(tau))
        assert (basis, delta) == approximant_basis_popov(g, tau, small)
        assert is_popov(basis, u)
        assert rect_popov_ok(basis, u)
        assert delta == diag_degrees(basis)
        assert sum(delta) <= sum(tau)
        for i in range(r):
            row = basis.submatrix((i,), tuple(range(r)))
            assert annihilates_at_orders(row, g, tau)


def test_approx_rejects_bad_order():
    with pytest.raises(PreconditionError):
        approximant_basis_popov(M(7, [[[1]]]), (0,), (0,))


def test_kernel_trivial_cases():
    k = kernel_basis_popov(PolyMat.identity(7, 3), (0, 0, 0), 2)
    assert k.m == 0
    k = kernel_basis_popov(M(7, [[[]], [[1]]]), (0, 0), 1)
    assert k == M(7, [[[1], []]])


def test_kernel_worked_pair():
    a = M(7, [[[0, 1]], [[1]]])
    k = kernel_basis_popov(a, (0, 0), 1)
    assert k == M(7, [[[6], [0, 1]]])


def test_kernel_zero_matrix():
    k = kernel_basis_popov(PolyMat.zero(7, 2, 3), (1, -1), 0)
    assert k == PolyMat.identity(7, 2)


def test_kernel_random_full_rank():
    rng = random.Random(54)
    for _ in range(15):
        n = rng.randint(1, 3)
        extra = rng.randint(1, 2)
        top = rnd_nonsing(rng, 7, n, 3)
        a = vstack(top, rnd_polymat(rng, 7, extra, n, 3))
        u = rnd_shift(rng, n + extra, -2, 2)
        dbound = sum(d for d in (e.degree for row in a.rows for e in row)
                     if d != float("-inf") and d > 0) + 1
        k = kernel_basis_popov(a, u, dbound)
        assert k.m == extra
        assert rect_popov_ok(k, u)
        assert matmul(k, a).is_zero()


def rnd_nonsing(rng, p, n, maxdeg):
    from pmat import determinant
    while True:
        m = rnd_polymat(rng, p, n, n, maxdeg)
        if not determinant(m).is_zero:
            return m


def test_single_poly_zero_residues():
    out = relations_mod_single_poly(Poly(7, (0, 0, 1)), PolyMat.zero(7, 3, 1),
                                    (0, 1, -1))
    assert out == PolyMat.identity(7, 3)


def test_single_poly_worked_examples():
    x2 = Poly(7, (0, 0, 1))
    out = relations_mod_single_poly(x2, M(7, [[[1]], [[0, 1]]]), (0, 0))
    assert out == M(7, [[[0, 1], [6]], [[], [0, 1]]])
    out = relations_mod_single_poly(x2, M(7, [[[0, 1]]]), (0,))
    assert out == M(7, [[[0, 1]]])


def test_single_poly_zero_modulus_rejected():
    with pytest.raises(PreconditionError):
        relations_mod_single_poly(Poly(7), M(7, [[[1]]]), (0,))


def test_single_poly_matches_matrix_route():
    # canonical uniqueness: the kernel route and the relation pipeline's
    # own leaf (an engine pass on [F; h], then normalization; or the
    # multiplication-matrix sweep when d <= m) share no code past the
    # engine, and must give the same basis
    rng = random.Random(55)
    for case in range(200):
        p = (2, 7, 1000003, 998244353, 2**61 - 1)[case % 5]
        m = rng.randint(1, 6)
        d = rng.randint(1, m) if case % 7 == 0 else rng.randint(m + 1, 40)
        mpoly = Poly(p, [rng.randrange(p) for _ in range(d)] + [1])
        rows = []
        for _ in range(m):
            kind = rng.randrange(5)
            if kind == 0:
                c = []
            elif kind == 1:
                c = [rng.randrange(1, p)]
            else:
                c = [rng.randrange(p) for _ in range(rng.randint(1, d))]
            rows.append([c])
        f = M(p, rows)
        s = rnd_shift(rng, m, -60, 60)
        a = relations_mod_single_poly(mpoly, f, s)
        b = relations_mod_hermite(PolyMat(p, [[mpoly]]), f, s)
        assert a == b


def test_single_poly_shift_translation():
    rng = random.Random(56)
    for _ in range(10):
        d = rng.randint(1, 5)
        mpoly = Poly(7, [rng.randrange(7) for _ in range(d)] + [1])
        f = M(7, [[[rng.randrange(7) for _ in range(d)]] for _ in range(3)])
        s = rnd_shift(rng, 3)
        c = rng.randint(-4, 4)
        assert relations_mod_single_poly(mpoly, f, s) == \
            relations_mod_single_poly(mpoly, f, tuple(x + c for x in s))
