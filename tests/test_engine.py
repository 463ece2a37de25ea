"""The order-basis engine in pmat.approx: its base case, the continuation
step its callers share, and the products it makes."""

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
    vstack,
)
from pmat.approx import _BASE_ORDER, _col_basis, _extend, _iter_col_basis
from pmat.polymat import _array_of, _from_array

from .helpers import (
    diag_degrees,
    is_identity_array,
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
       deg=st.integers(0, _BASE_ORDER + 22),
       sigma=st.integers(0, 2 * _BASE_ORDER + 14))
@example(rng=random.Random(1), k=4, deg=_BASE_ORDER + 12,
         sigma=2 * _BASE_ORDER + 1)
@example(rng=random.Random(2), k=3, deg=30, sigma=0)
@example(rng=random.Random(3), k=2, deg=5, sigma=9)
@example(rng=random.Random(4), k=3, deg=_BASE_ORDER + 32,
         sigma=3 * _BASE_ORDER + 6)
def test_extend_from_any_order_is_the_whole_pass(p, rng, k, deg, sigma):
    # continuing the pass at order s1 (a halving point, a column of
    # _order_basis at 0, the leaf's resume at tau0) gives the single
    # pass's array and degrees whatever s1 is
    garr = _array_of(rnd_polymat(rng, p, k, 1, deg))[:, 0]
    d = [rng.randint(-4, 4) for _ in range(k)]
    # the column, and the column with its last row repeating the first
    for g in (garr, garr[[*range(k - 1), 0]]):
        full, dfull = _col_basis(p, g, sigma, d)
        # a column that is zero mod x^sigma has the identity basis
        assert is_identity_array(full) == (not g[:, :sigma].any())
        for s1 in (0, sigma // 3, rng.randint(0, sigma), sigma):
            part, dd = _extend(p, g, *_col_basis(p, g, s1, d), s1, sigma)
            assert dd == dfull
            assert _from_array(p, part) == _from_array(p, full)


def test_order_basis_makes_no_identity_products(monkeypatch):
    rng = random.Random(61)
    p = 1000003
    h = rnd_hermite(rng, p, 4, 200)
    f = rnd_residues(rng, p, 4, diag_degrees(h))
    # a repeated row puts all of a leaf's degrees on one relation, so its
    # certificate fails and the pass resumes
    h1 = rnd_hermite(rng, p, 1, 120)
    f1 = rnd_residues(rng, p, 3, diag_degrees(h1))
    f1 = PolyMat(p, [f1.rows[0], f1.rows[0], f1.rows[1]])
    inside = [0]
    products = []
    polymat_products = []
    resumed = []
    orig_pack = polymat_mod._pack_array
    orig_dense = polymat_mod._dense_mul
    orig_matmul = polymat_mod._matmul
    orig_extend = approx_mod._extend

    def engine(orig):
        def entry(*args):
            inside[0] += 1
            try:
                return orig(*args)
            finally:
                inside[0] -= 1
        return entry

    def extend_spy(p, g, basis, d, s1, sigma):
        # the leaf's resumed pass is its only top-level continuation from
        # an order above 0
        if inside[0] == 1 and s1:
            resumed.append(sigma)
        return orig_extend(p, g, basis, d, s1, sigma)

    def pack_spy(p, arr, w):
        # the operands a product packs, after its own truncation
        if inside[0]:
            products.append(is_identity_array(arr))
        return orig_pack(p, arr, w)

    def dense_spy(p, a, b, out_len):
        # the operands the float64 path multiplies, likewise
        if inside[0]:
            products.extend((is_identity_array(a), is_identity_array(b)))
        return orig_dense(p, a, b, out_len)

    def matmul_spy(a, b):
        if inside[0]:
            polymat_products.append((a, b))
        return orig_matmul(a, b)

    monkeypatch.setattr(approx_mod, "_order_basis",
                        engine(approx_mod._order_basis))
    leaf = engine(approx_mod._relation_leaf)
    for mod in (approx_mod, relations_mod):
        monkeypatch.setattr(mod, "_relation_leaf", leaf)
    monkeypatch.setattr(approx_mod, "_col_basis",
                        engine(approx_mod._col_basis))
    monkeypatch.setattr(approx_mod, "_extend", extend_spy)
    monkeypatch.setattr(polymat_mod, "_pack_array", pack_spy)
    monkeypatch.setattr(polymat_mod, "_dense_mul", dense_spy)
    monkeypatch.setattr(polymat_mod, "_matmul", matmul_spy)
    relations_mod_hermite(h, f, [0] * 4)
    assert not resumed
    relations_mod_hermite(h1, f1, [0] * 3)
    assert resumed
    approx_mod.approximant_basis_popov(vstack(f, h), [150] * 4, [0] * 8)
    assert products
    assert not any(products)
    # the engine's products never go through PolyMat
    assert not polymat_products


def loop_col_basis(p, gcol, sigma, d, updates=None):
    """The base case as a plain loop over coefficient lists, the reference
    for the vectorized one: same orders, same pivot rule.  Returns the
    basis as trimmed coefficient lists and the updated degrees; at each
    order that updates a row, appends the number of rows it updates to
    `updates` if given."""
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
            updates.append(len(nz) - 1)
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


def dense_poly(rng, p, n):
    return Poly(p, [rng.randrange(1, p) for _ in range(n)])


def base_case_columns(rng, p, sigma):
    """Columns for both updates of the base case, named by shape: (name,
    column, shift).  It updates all rows at once when at least half of
    them need an update at an order, else each such row."""
    cols = []
    for k in (17, 33):
        # one or two nonzero rows, anywhere among zero ones
        for count in (1, 2):
            live = rng.sample(range(k), count)
            gcol = [dense_poly(rng, p, sigma) if i in live else Poly(p)
                    for i in range(k)]
            cols.append(("sparse", gcol, shift_of("seeded", rng, k)))
    # rows that are multiples of the first six: once its row of the six
    # is a pivot, a multiple has no residual left, so the rows an order
    # updates fall from 16 to five or fewer during the pass
    heads = [dense_poly(rng, p, sigma) for _ in range(6)]
    gcol = heads + [heads[i % 6].scale(rng.randrange(1, p))
                    for i in range(11)]
    for kind in ("zero", "seeded"):
        cols.append(("vanishing", gcol, shift_of(kind, rng, 17)))
    cols.append(("one row", [dense_poly(rng, p, sigma)], [3]))
    for k in (9, 17):
        gcol = [dense_poly(rng, p, sigma) for _ in range(k)]
        cols.append(("dense", gcol, shift_of("seeded", rng, k)))
    return cols


@pytest.mark.parametrize("p", BASE_PRIMES + (2**127 - 1,))
def test_array_base_case_both_updates(p):
    """Sparse, vanishing, single-row and dense many-row columns at the
    base size, each equal to the loop.  Above p = 2 the dense and
    vanishing ones take the update of all rows, the sparse and vanishing
    ones the row-by-row one, and at 2^31 - 1 the dense ones outlast the
    int64 headroom."""
    rng = random.Random(p % 10009)
    sigma = _BASE_ORDER
    for name, gcol, d in base_case_columns(rng, p, sigma):
        k = len(gcol)
        updates = []
        expected = loop_col_basis(p, gcol, sigma, d, updates)
        assert array_col_basis(p, gcol, sigma, d) == expected, name
        if p == 2:
            continue  # residual bits: half the rows are zero at an order
        # at each updating order, whether it updates all rows at once
        full = [2 * u >= k for u in updates]
        if name == "dense":
            assert full[0] and 2 * sum(full) > len(full)
            # the headroom at 2^31 - 1 is two updates
            assert p != 2**31 - 1 or len(updates) > 8
        elif name == "vanishing":
            assert full[0] and not full[-1]
        else:
            assert not any(full)
