"""The order-basis engine in pmat.approx: its base case, the rows and
columns it forms for its callers, and the products it makes."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pmat.approx as approx_mod
import pmat.polymat as polymat_mod
import pmat.relations as relations_mod
from pmat import (
    PolyMat,
    leading_matrix_shifted,
    matmul,
    rdeg_shifted,
    relations_mod_hermite,
)
from pmat.approx import _iter_col_basis, _order_basis

from .helpers import (
    diag_degrees,
    rnd_hermite,
    rnd_poly,
    rnd_polymat,
    rnd_residues,
)

PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)
# both sides of the int64 bound of the base case, and well above it
BASE_PRIMES = (2, 7, 2**31 - 1, 2147483659, 2**61 - 1)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=12)
@given(rng=st.randoms(use_true_random=False), k=st.integers(1, 5),
       n=st.integers(1, 3), deg=st.integers(0, 70),
       tau=st.lists(st.integers(-2, 110), min_size=3, max_size=3))
@example(rng=random.Random(1), k=4, n=1, deg=60, tau=[97, 0, 0])
@example(rng=random.Random(2), k=3, n=3, deg=30, tau=[0, 64, -1])
@example(rng=random.Random(3), k=2, n=2, deg=5, tau=[-1, 0, 9])
def test_order_basis_keep_is_the_restriction(p, rng, k, n, deg, tau):
    g = rnd_polymat(rng, p, k, n, deg)
    tau = tau[:n]
    u = [rng.randint(-4, 4) for _ in range(k)]
    full, dfull = _order_basis(g, tau, u)
    assert full.m == full.n == k
    for keep in [None, ()] + [range(j) for j in range(k + 1)]:
        part, d = _order_basis(g, tau, u, keep)
        assert d == dfull
        if keep is not None and not len(keep):
            assert part is None
        else:
            idx = range(k) if keep is None else keep
            assert part == full.submatrix(idx, idx)


def test_order_basis_makes_no_identity_products(monkeypatch):
    rng = random.Random(61)
    p = 1000003
    h = rnd_hermite(rng, p, 4, 200)
    f = rnd_residues(rng, p, 4, diag_degrees(h))
    inside = [0]
    products = []
    orig_order_basis = approx_mod._order_basis
    orig_matmul = polymat_mod._matmul

    def order_basis(*args):
        inside[0] += 1
        try:
            return orig_order_basis(*args)
        finally:
            inside[0] -= 1

    def is_identity(a):
        return a.m == a.n and a == PolyMat.identity(a.p, a.m)

    def matmul_spy(a, b, trunc):
        if inside[0]:
            products.append((is_identity(a), is_identity(b)))
        return orig_matmul(a, b, trunc)

    for mod in (approx_mod, relations_mod):
        monkeypatch.setattr(mod, "_order_basis", order_basis)
    monkeypatch.setattr(polymat_mod, "_matmul", matmul_spy)
    relations_mod_hermite(h, f, [0] * 4)
    assert products
    assert not any(a or b for a, b in products)


def loop_col_basis(p, gcol, sigma, d):
    """The base case as a plain loop over coefficient lists, the reference
    for the vectorized one: same orders, same pivot rule.  Returns the
    basis as trimmed coefficient lists and the updated degrees."""
    k = len(gcol)
    res = [list(e.c[:sigma]) + [0] * (sigma - len(e.c[:sigma])) for e in gcol]
    basis = [[[1] if i == j else [] for j in range(k)] for i in range(k)]
    dd = list(d)
    for o in range(sigma):
        nz = [i for i in range(k) if res[i][o]]
        if not nz:
            continue
        piv = min(nz, key=lambda i: (dd[i], i))
        inv = pow(res[piv][o], p - 2, p)
        for i in nz:
            if i == piv:
                continue
            lam = res[i][o] * inv % p
            res[i] = [(a - lam * b) % p for a, b in zip(res[i], res[piv])]
            for j in range(k):
                src, dst = basis[piv][j], basis[i][j]
                dst.extend([0] * (len(src) - len(dst)))
                for t, v in enumerate(src):
                    dst[t] = (dst[t] - lam * v) % p
        res[piv] = [0] + res[piv][:sigma - 1]
        basis[piv] = [[0] + e if e else e for e in basis[piv]]
        dd[piv] += 1
    for row in basis:
        for e in row:
            while e and not e[-1]:
                e.pop()
    return basis, dd


def valuation(gcol, sigma):
    return min((next(i for i, c in enumerate(e.c) if c) for e in gcol
                if not e.is_zero), default=sigma)


@pytest.mark.parametrize("p", BASE_PRIMES)
def test_iter_col_basis_invariants(p):
    rng = random.Random(p % 1000)
    for case in range(40):
        k = rng.randint(1, 6)
        sigma = rng.randint(1, 48)
        low = rng.choice([0, 0, 1, sigma // 2, sigma])
        gcol = [rnd_poly(rng, p, sigma + 3).shift_up(low) for _ in range(k)]
        if case % 10 == 0:
            gcol[rng.randrange(k)] = rnd_poly(rng, p, -1)
        d = [rng.randint(-5, 5) for _ in range(k)]
        basis, dd = _iter_col_basis(p, gcol, sigma, d)
        assert (basis.to_coeffs(), dd) == loop_col_basis(p, gcol, sigma, d)
        residue = matmul(basis, PolyMat(p, [[e] for e in gcol]))
        assert residue.truncate(sigma).is_zero()
        lead = leading_matrix_shifted(basis, d).rows
        for i in range(k):
            assert lead[i][i] != 0
            assert not any(lead[i][i + 1:])
        assert list(rdeg_shifted(basis, d)) == dd
        assert sum(dd) - sum(d) == sigma - min(sigma, valuation(gcol, sigma))
