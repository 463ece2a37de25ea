"""The order-basis engine in pmat.approx: its base case, the rows and
columns it forms for its callers, and the products it makes."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pmat.approx as approx_mod
import pmat.polymat as polymat_mod
import pmat.relations as relations_mod
from pmat import (
    Poly,
    PolyMat,
    leading_matrix_shifted,
    matmul,
    rdeg_shifted,
    relations_mod_hermite,
)
from pmat.approx import _BASE_ORDER, _iter_col_basis, _order_basis
from pmat.polymat import _array_of, _from_array

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
    for keep in [None] + [range(j) for j in range(k + 1)]:
        part, d = _order_basis(g, tau, u, keep)
        assert d == dfull
        idx = range(k) if keep is None else keep
        assert part == full.submatrix(idx, idx)


def test_order_basis_makes_no_identity_products(monkeypatch):
    rng = random.Random(61)
    p = 1000003
    h = rnd_hermite(rng, p, 4, 200)
    f = rnd_residues(rng, p, 4, diag_degrees(h))
    inside = [0]
    products = []
    polymat_products = []
    orig_order_basis = approx_mod._order_basis
    orig_array_mul = approx_mod._array_mul
    orig_matmul = polymat_mod._matmul

    def order_basis(*args):
        inside[0] += 1
        try:
            return orig_order_basis(*args)
        finally:
            inside[0] -= 1

    def is_identity(a):
        return (a.shape[0] == a.shape[1]
                and _from_array(p, a) == PolyMat.identity(p, a.shape[0]))

    def array_mul_spy(p, a, b, trunc=None):
        if inside[0]:
            products.append((is_identity(a), is_identity(b)))
        return orig_array_mul(p, a, b, trunc)

    def matmul_spy(a, b, trunc):
        if inside[0]:
            polymat_products.append((a, b))
        return orig_matmul(a, b, trunc)

    for mod in (approx_mod, relations_mod):
        monkeypatch.setattr(mod, "_order_basis", order_basis)
    monkeypatch.setattr(approx_mod, "_array_mul", array_mul_spy)
    monkeypatch.setattr(polymat_mod, "_matmul", matmul_spy)
    relations_mod_hermite(h, f, [0] * 4)
    assert products
    assert not any(a or b for a, b in products)
    # the engine's products never go through PolyMat
    assert not polymat_products


def loop_col_basis(p, gcol, sigma, d, updates=None):
    """The base case as a plain loop over coefficient lists, the reference
    for the vectorized one: same orders, same pivot rule.  Returns the
    basis as trimmed coefficient lists and the updated degrees; appends
    each order that updates a row to `updates` if given."""
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
        if updates is not None and len(nz) > 1:
            updates.append(o)
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
        garr = _array_of(PolyMat(p, [[e] for e in gcol]))[:, 0]
        basis, dd = _iter_col_basis(p, garr, sigma, d)
        basis = _from_array(p, basis)
        assert (basis.to_coeffs(), dd) == loop_col_basis(p, gcol, sigma, d)
        residue = matmul(basis, PolyMat(p, [[e] for e in gcol]))
        assert residue.truncate(sigma).is_zero()
        lead = leading_matrix_shifted(basis, d).rows
        for i in range(k):
            assert lead[i][i] != 0
            assert not any(lead[i][i + 1:])
        assert list(rdeg_shifted(basis, d)) == dd
        assert sum(dd) - sum(d) == sigma - min(sigma, valuation(gcol, sigma))


# the primes of the base case's arrays: int64 with a headroom of many,
# 9 (998244353) and 2 (2^31 - 1) updates, then Python ints
ARRAY_PRIMES = (2, 7, 1000003, 998244353, 2**31 - 1, 2147483659, 2**61 - 1)


def shift_of(kind, rng, k):
    if kind == "zero":
        return [0] * k
    if kind == "seeded":
        return [rng.randint(-5, 5) for _ in range(k)]
    # skewed: far apart, so row 0 stays the pivot while it has a residual
    return [rng.randint(0, 3) + 10**6 * i for i in range(k)]


def array_col_basis(p, gcol, sigma, d):
    """The array base case on a column of Poly, its basis as coefficient
    lists."""
    garr = _array_of(PolyMat(p, [[e] for e in gcol]))[:, 0]
    basis, dd = _iter_col_basis(p, garr, sigma, d)
    assert basis.shape == (len(gcol), len(gcol), sigma + 1)
    assert basis.dtype == garr.dtype
    return _from_array(p, basis).to_coeffs(), dd


@pytest.mark.parametrize("kind", ("zero", "seeded", "skewed"))
@pytest.mark.parametrize("p", ARRAY_PRIMES)
def test_array_base_case_matches_loop(p, kind):
    rng = random.Random(p % 10007 + len(kind))
    sizes = [(16, _BASE_ORDER), (1, _BASE_ORDER), (16, 1)] + [
        (rng.randint(1, 16), rng.randint(1, _BASE_ORDER)) for _ in range(5)]
    for case, (k, sigma) in enumerate(sizes):
        low = rng.choice([0, 0, 1, sigma // 2, sigma])
        gcol = [rnd_poly(rng, p, sigma + 3).shift_up(low) for _ in range(k)]
        if case % 3 == 2:
            gcol[rng.randrange(k)] = rnd_poly(rng, p, -1)
        d = shift_of(kind, rng, k)
        assert array_col_basis(p, gcol, sigma, d) == loop_col_basis(
            p, gcol, sigma, d)


def ramp_column(p, k, sigma):
    """Row 0 all p - 1, row i > 0 the ramp i, 2i, 3i, ...  Under a shift
    that keeps row 0 the pivot, each order subtracts (p - i)(p - 1) from
    every residual slot of every other row, the largest updates there are:
    int64 slots overflow after one update more than the headroom."""
    return ([Poly(p, [p - 1] * sigma)]
            + [Poly(p, [i * (j + 1) for j in range(sigma)])
               for i in range(1, k)])


@pytest.mark.parametrize("p", (998244353, 2**31 - 1))
def test_array_base_case_full_reduction(p):
    """Dense columns with an update at every order, many more in a row
    than the int64 headroom, so the whole array is reduced again and
    again; the ramp makes every update as large as it can be."""
    headroom = (2**63 - p) // (p - 1) ** 2
    rng = random.Random(p)
    sigma = _BASE_ORDER
    cases = []
    for k in (2, 3, 16):
        cases.append((ramp_column(p, k, sigma), shift_of("skewed", rng, k)))
        dense = [Poly(p, [rng.randrange(1, p) for _ in range(sigma)])
                 for _ in range(k)]
        for kind in ("zero", "skewed"):
            cases.append((dense, shift_of(kind, rng, k)))
    for gcol, d in cases:
        updates = []
        expected = loop_col_basis(p, gcol, sigma, d, updates)
        assert len(updates) > 4 * headroom
        assert array_col_basis(p, gcol, sigma, d) == expected
