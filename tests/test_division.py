import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pmat.division as division_mod
import pmat.polymat as polymat_mod
from pmat import (
    NEG_INF,
    Poly,
    PolyMat,
    PreconditionError,
    ShapeError,
    cdeg,
    column_reversal,
    column_leading_matrix,
    is_hermite,
    matmul,
    naive_quorem,
    pm_quorem,
    quorem_auto,
    rdeg_shifted,
    relations_mod_hermite,
    rem_of_shifts,
    residual,
    vstack,
)
from pmat.division import MAX_ENTRIES, truncated_expansion

from .helpers import (
    KERNEL_PRIMES,
    column_reduced_with_degrees,
    is_identity_array,
    naive_matmul,
    rnd_column_reduced,
    rnd_hermite,
    rnd_polymat,
    rnd_residues,
)

M = PolyMat.from_coeffs


def needed_gap(m, f):
    """The smallest degree gap pm_quorem(M, F, .) accepts."""
    return max([1] + [d - s + 1 for d, s in zip(cdeg(f), cdeg(m))
                      if d is not NEG_INF])


def test_truncated_expansion_identity():
    rng = random.Random(31)
    m, _ = rnd_column_reduced(rng, 7, 3, 4)
    if m[0, 0].coeff(0) == 0:
        m = m + PolyMat.identity(7, 3)
    if not_invertible_at_zero(m):
        m = PolyMat.identity(7, 3)
    z = truncated_expansion(m, m, 9)
    assert z == PolyMat.identity(7, 3)


def not_invertible_at_zero(m):
    from pmat import ConstMat
    c = ConstMat(m.p, [[e.coeff(0) for e in row] for row in m.rows])
    return not c.is_invertible()


def test_truncated_expansion_scalar_geometric():
    f = M(7, [[[1]]])
    g = M(7, [[[1, 6]]])   # 1 - x
    assert truncated_expansion(f, g, 4) == M(7, [[[1, 1, 1, 1]]])


def test_truncated_expansion_multiply_back():
    rng = random.Random(32)
    done = 0
    while done < 20:
        p = rng.choice([7, 998244353])
        n = rng.randint(1, 4)
        mm = rnd_polymat(rng, p, n, n, rng.randint(0, 6))
        if not_invertible_at_zero(mm):
            continue
        f = rnd_polymat(rng, p, rng.randint(1, 3), n, 7)
        t = 20
        z = truncated_expansion(f, mm, t)
        assert z.max_degree() < t
        assert (matmul(z, mm) - f).truncate(t).is_zero()
        done += 1


def test_truncated_expansion_unbalanced_columns():
    # one column far above the average degree: the Newton iteration runs on
    # the full unbalanced columns and must stay exact
    rng = random.Random(33)
    rows = [[rnd_poly_deg(rng, 7, 20 if j == 0 else 1) for j in range(3)]
            for _ in range(3)]
    mm = PolyMat(7, rows) + PolyMat.identity(7, 3)
    if not_invertible_at_zero(mm):
        pytest.skip("unlucky draw")
    f = rnd_polymat(rng, 7, 2, 3, 6)
    t = 25
    z = truncated_expansion(f, mm, t)
    assert (matmul(z, mm) - f).truncate(t).is_zero()
    # the relations workloads' column degrees, and the Hermite diagonal
    # (0, .., 0, D) that popov_form divides by; both also divide through
    # pm_quorem, checked against the oracle
    for p in (1000003, 998244353):
        h = hermite_last_column(rng, p, 4, 256)
        assert is_hermite(h)
        for mm in (skewed_column_reduced(rng, p, (16, 32, 64, 144)), h):
            assert not not_invertible_at_zero(mm)
            f = rnd_polymat(rng, p, 2, 4, 30)
            t = 160
            z = truncated_expansion(f, mm, t)
            assert (matmul(z, mm) - f).truncate(t).is_zero()
            delta = 24
            g = PolyMat(p, [[Poly(p, [rng.randrange(p)
                                      for _ in range(sj + delta)])
                             for sj in cdeg(mm)] for _ in range(2)])
            assert pm_quorem(mm, g, delta) == naive_quorem(mm, g)


def skewed_column_reduced(rng, p, degs):
    """Column reduced with cdeg = degs and an invertible constant term."""
    n = len(degs)
    while True:
        mm = PolyMat(p, [[rnd_poly_deg(rng, p, d) for d in degs]
                         for _ in range(n)])
        if (column_leading_matrix(mm).is_invertible()
                and not not_invertible_at_zero(mm)):
            return mm


def hermite_last_column(rng, p, n, d):
    """Hermite form with diagonal degrees (0, .., 0, d) and a nonzero
    constant term in its last diagonal entry."""
    rows = [[Poly.one(p) if j == i else Poly(p) for j in range(n - 1)]
            + [Poly(p, [rng.randrange(p) for _ in range(d)])]
            for i in range(n - 1)]
    last = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(d - 1)]
    rows.append([Poly(p)] * (n - 1) + [Poly(p, last + [1])])
    return PolyMat(p, rows)


def rnd_poly_deg(rng, p, d):
    c = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    return Poly(p, c)


def test_truncated_expansion_singular_at_zero():
    with pytest.raises(PreconditionError):
        truncated_expansion(M(7, [[[1]]]), M(7, [[[0, 1]]]), 3)


def test_pm_quorem_scalar_example():
    q, r = pm_quorem(M(7, [[[0, 0, 0, 1]]]), M(7, [[[1, 1, 0, 0, 1]]]), 2)
    assert q == M(7, [[[0, 1]]])
    assert r == M(7, [[[1, 1]]])


def test_pm_quorem_self():
    rng = random.Random(34)
    mm, _ = rnd_column_reduced(rng, 7, 3, 5, mindeg=1)
    q, r = pm_quorem(mm, mm, 1)
    assert q == PolyMat.identity(7, 3)
    assert r.is_zero()


def test_pm_quorem_worked_2x2():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[0, 1], []]])
    q, r = pm_quorem(h, f, 1)
    assert q == M(7, [[[1], []]])
    assert r == M(7, [[[], [6]]])


def test_pm_quorem_matches_naive():
    rng = random.Random(35)
    for _ in range(40):
        p = rng.choice([7, 998244353])
        n = rng.randint(1, 4)
        mm, sigma = rnd_column_reduced(rng, p, n, 8)
        delta = rng.randint(1, 4)
        k = rng.randint(1, 4)
        f = PolyMat(p, [[rnd_poly(rng, p, sj + delta - 1) for sj in sigma]
                        for _ in range(k)])
        q, r = pm_quorem(mm, f, delta)
        nq, nr = naive_quorem(mm, f)
        assert q == nq and r == nr
        assert matmul(q, mm) + r == f
        for d, sj in zip(cdeg(r), sigma):
            assert d is NEG_INF or d < sj
        assert q.max_degree() is NEG_INF or q.max_degree() < delta


def rnd_poly(rng, p, maxdeg):
    d = rng.randint(-1, maxdeg)
    if d < 0:
        return Poly(p)
    return Poly(p, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])


def test_pm_quorem_preconditions():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    with pytest.raises(PreconditionError):
        pm_quorem(h, f, 0)
    big = M(7, [[[0, 0, 1], []]])   # cdeg 2 >= 1 + delta with delta 1
    with pytest.raises(PreconditionError):
        pm_quorem(h, big, 1)
    notred = M(7, [[[0, 1], [0, 1]], [[0, 1], [0, 1]]])
    with pytest.raises(PreconditionError):
        pm_quorem(notred, f, 1)


def test_quorem_auto():
    rng = random.Random(36)
    for _ in range(20):
        n = rng.randint(1, 3)
        mm, sigma = rnd_column_reduced(rng, 7, n, 6)
        f = rnd_polymat(rng, 7, rng.randint(1, 3), n, 14)
        q, r = quorem_auto(mm, f)
        assert matmul(q, mm) + r == f
        for d, sj in zip(cdeg(r), sigma):
            assert d is NEG_INF or d < sj


def test_pm_quorem_work_follows_f_not_delta():
    # F needs a gap of 1; a caller's gap of 10^12 must give the same Q and
    # R without the work and memory of a length-10^12 expansion
    m = M(7, [[[1, 2, 1], [3]], [[0, 4], [5, 0, 0, 1]]])
    f = M(7, [[[1, 2, 3], [6, 5, 4, 3]], [[4], [0, 1, 0, 6]]])
    assert needed_gap(m, f) == 1
    want = quorem_auto(m, f)
    tracemalloc.start()
    try:
        got = pm_quorem(m, f, 10**12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 1 << 20
    with pytest.raises(PreconditionError):
        pm_quorem(m, f, 0)


def test_quotient_row_degrees_shrink():
    # the quotient of P*F by M has strictly smaller plain row degrees than P
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 3)
        mm, sigma = rnd_column_reduced(rng, 7, n, 5, mindeg=1)
        f = rnd_residues(rng, 7, rng.randint(1, 3), sigma)
        pmat = rnd_polymat(rng, 7, rng.randint(1, 3), f.m, 7)
        q, _ = quorem_auto(mm, matmul(pmat, f))
        for dq, dp in zip(rdeg_shifted(q), rdeg_shifted(pmat)):
            if dp is NEG_INF:
                assert dq is NEG_INF
            else:
                assert dq is NEG_INF or dq < dp


def test_rem_of_shifts_trivial_and_scalar():
    mm = M(7, [[[0, 0, 0, 1]]])
    f = M(7, [[[1]]])
    assert rem_of_shifts(mm, f, 1, 0) == [f]
    out = rem_of_shifts(mm, f, 1, 2)
    assert out == [M(7, [[[1]]]), M(7, [[[0, 1]]]),
                   M(7, [[[0, 0, 1]]]), M(7, [[[]]])]


def test_rem_of_shifts_matches_naive():
    rng = random.Random(38)
    for _ in range(15):
        p = rng.choice([7, 998244353])
        n = rng.randint(1, 3)
        mm, sigma = rnd_column_reduced(rng, p, n, 6, mindeg=1)
        f = rnd_residues(rng, p, rng.randint(1, 3), sigma)
        delta = rng.randint(1, 3)
        k = rng.randint(0, 3)
        out = rem_of_shifts(mm, f, delta, k)
        assert len(out) == 2 ** k
        for r_idx, got in enumerate(out):
            shifted = PolyMat(p, [[e.shift_up(r_idx * delta) for e in row]
                                  for row in f.rows])
            _, want = naive_quorem(mm, shifted)
            assert got == want


def test_rem_of_shifts_refuses_oversized_tables():
    # the output's entry count and F's entries times the largest shift are
    # each capped at MAX_ENTRIES, checked before anything is allocated:
    # the first two calls once raised OverflowError and MemoryError and the
    # empty F ran without bound; the product is capped, not the shift
    # alone, as 10^4 entries at shift 10^6 once ran out of memory
    mm = M(7, [[[0, 0, 0, 1]]])
    f = M(7, [[[1]]])
    tall = PolyMat(7, [[Poly.one(7)]] * 8)
    calls = ((f, 1, 70), (f, 10**15, 1), (PolyMat(7, []), 1, 40),
             (f, 1, MAX_ENTRIES.bit_length()), (tall, 1, 17),
             (tall, MAX_ENTRIES // 8 + 1, 1))
    tracemalloc.start()
    try:
        for g, delta, k in calls:
            with pytest.raises(PreconditionError, match="exceeds"):
                rem_of_shifts(mm, g, delta, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(rem_of_shifts(mm, tall, MAX_ENTRIES // 8, 1)) == 2


def test_rem_of_shifts_requires_reduced_input():
    mm = M(7, [[[0, 0, 0, 1]]])
    with pytest.raises(PreconditionError):
        rem_of_shifts(mm, M(7, [[[0, 0, 0, 1]]]), 1, 1)


def test_residual_identity_rows():
    rng = random.Random(39)
    mm, sigma = rnd_column_reduced(rng, 7, 3, 5, mindeg=1)
    f = rnd_residues(rng, 7, 2, sigma)
    assert residual(mm, PolyMat.identity(7, 2), f) == f


def test_residual_worked_examples():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = M(7, [[[1], []]])
    assert residual(h, M(7, [[[0, 1]]]), f) == M(7, [[[], [6]]])
    assert residual(h, M(7, [[[0, 0, 1]]]), f) == PolyMat.zero(7, 1, 2)


def test_residual_matches_naive():
    rng = random.Random(40)
    for _ in range(25):
        p = rng.choice([7, 998244353])
        n = rng.randint(1, 3)
        mm, sigma = rnd_column_reduced(rng, p, n, 5, mindeg=1)
        f = rnd_residues(rng, p, rng.randint(1, 3), sigma)
        pmat = rnd_polymat(rng, p, rng.randint(1, 3), f.m, 9)
        got = residual(mm, pmat, f)
        _, want = naive_quorem(mm, naive_matmul(pmat, f))
        assert got == want


def test_residual_stacking():
    rng = random.Random(41)
    mm, sigma = rnd_column_reduced(rng, 7, 3, 4, mindeg=1)
    f = rnd_residues(rng, 7, 2, sigma)
    p1 = rnd_polymat(rng, 7, 2, 2, 6)
    p2 = rnd_polymat(rng, 7, 1, 2, 3)
    both = residual(mm, vstack(p1, p2), f)
    assert both == vstack(residual(mm, p1, f), residual(mm, p2, f))


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@settings(max_examples=12)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 4), hermite=st.booleans())
def test_division_matches_naive_at_every_prime_class(p, seed, n, hermite):
    # Hermite moduli with unit diagonal but the last entry, the shape
    # relation_basis_general hands over, and column reduced ones
    rng = random.Random(seed)
    if hermite:
        mm = hermite_last_column(rng, p, n, rng.randint(1, 40))
        sigma = cdeg(mm)
    else:
        mm, sigma = rnd_column_reduced(rng, p, n, 12)
    f = rnd_polymat(rng, p, rng.randint(1, 3), n, 40)
    assert quorem_auto(mm, f) == naive_quorem(mm, f)
    res = rnd_residues(rng, p, rng.randint(1, 3), sigma)
    pmat = rnd_polymat(rng, p, rng.randint(1, 3), res.m, 20)
    _, want = naive_quorem(mm, naive_matmul(pmat, res))
    assert residual(mm, pmat, res) == want
    # one high-degree column beside zero and constant ones: the high one
    # is cut into alphas > 1 chunks, the others into one each
    res = rnd_residues(rng, p, rng.randint(3, 5), sigma)
    degs = [rng.randint(30, 80), NEG_INF, 0] + [
        rng.randint(0, 5) for _ in range(res.m - 3)]
    rng.shuffle(degs)
    pmat = PolyMat(p, [[Poly(p) if d is NEG_INF else rnd_poly_deg(rng, p, d)
                        for d in degs] for _ in range(rng.randint(1, 3))])
    _, want = naive_quorem(mm, naive_matmul(pmat, res))
    assert residual(mm, pmat, res) == want


def expansion_modulus(rng, p, n, kind):
    """A square modulus with M(0) invertible: a column-reversed Hermite
    form (M(0) = I), the reversal of hermite_last_column (M = I mod x^k
    for several steps), or a generic matrix."""
    if kind == "generic":
        while True:
            mm = rnd_polymat(rng, p, n, n, rng.randint(0, 30))
            if not not_invertible_at_zero(mm):
                return mm
    if kind == "hermite":
        h = rnd_hermite(rng, p, n, rng.randint(n, 40))
    else:
        h = hermite_last_column(rng, p, n, rng.randint(1, 40))
    mm = column_reversal(h, cdeg(h))
    assert mm.truncate(1) == PolyMat.identity(p, n)
    return mm


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@settings(max_examples=10)
@given(seed=st.integers(0, 2**32), n=st.integers(1, 4),
       t=st.integers(1, 70),
       kind=st.sampled_from(("hermite", "last", "generic")))
def test_truncated_expansion_at_every_prime_class(p, seed, n, t, kind):
    # the Newton loop's arrays are int64 below 2^31 and Python ints above;
    # t odd, a power of two or neither ends the doubling at every offset
    rng = random.Random(seed)
    mm = expansion_modulus(rng, p, n, kind)
    f = rnd_polymat(rng, p, rng.randint(1, 3), n, 30)
    z = truncated_expansion(f, mm, t)
    assert z.m == f.m and z.n == n
    assert z.max_degree() < t
    assert naive_matmul(z, mm).truncate(t) == f.truncate(t)


def test_identity_array_check():
    eye = np.eye(3, dtype=np.int64)[..., None]
    assert is_identity_array(eye)
    assert is_identity_array(np.concatenate((eye, 0 * eye), axis=2))
    assert is_identity_array(np.eye(2, dtype=object)[..., None])
    assert not is_identity_array(np.concatenate((eye, eye), axis=2))
    assert not is_identity_array(2 * eye)
    assert not is_identity_array(np.zeros((3, 3, 0), np.int64))
    assert not is_identity_array(np.ones((2, 3, 1), np.int64))


def test_no_product_has_an_identity_factor(monkeypatch):
    # a column-reversed Hermite modulus has M(0) = I, so Newton inversion
    # starts at the identity: neither its steps nor a one-term expansion
    # may spend a product on it, in either kernel (the PolyMat product, or
    # the operands the coefficient-array product actually packs, so that a
    # factor that is I only after the product's truncation counts too)
    factors, arrays = [], []
    orig, orig_pack = polymat_mod._matmul, polymat_mod._pack_array

    def spy(a, b):
        factors.extend((a, b))
        return orig(a, b)

    def pack_spy(p, arr, w):
        arrays.append(arr)
        return orig_pack(p, arr, w)

    monkeypatch.setattr(polymat_mod, "_matmul", spy)
    monkeypatch.setattr(polymat_mod, "_pack_array", pack_spy)
    rng = random.Random(43)
    p = 1000003
    h = rnd_hermite(rng, p, 4, 48)
    f = rnd_residues(rng, p, 3, cdeg(h))
    relations_mod_hermite(h, f, (0, 2, -1))
    relations_mod_hermite(h, f, (5, -3, 0))
    quorem_auto(h, rnd_polymat(rng, p, 3, 4, 30))
    residual(h, rnd_polymat(rng, p, 2, 3, 12), f)
    # a one-term expansion by a column-reversed Hermite modulus
    quorem_auto(h, rnd_residues(rng, p, 2, cdeg(h)))
    assert len(factors) + len(arrays) > 100
    assert not [a for a in factors
                if a.m == a.n and a == PolyMat.identity(p, a.n)]
    assert not [a for a in arrays if is_identity_array(a)]


def test_block_triangular_remainder_split():
    # remainder against a block triangular modulus splits column-wise
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(2, 4)
        h = rnd_hermite(rng, 7, n, rng.randint(n, 10))
        n1 = rng.randint(1, n - 1)
        m1 = h.submatrix(tuple(range(n1)), tuple(range(n1)))
        a = h.submatrix(tuple(range(n1)), tuple(range(n1, n)))
        m2 = h.submatrix(tuple(range(n1, n)), tuple(range(n1, n)))
        f = rnd_polymat(rng, 7, 2, n, 9)
        f1 = f.submatrix((0, 1), tuple(range(n1)))
        f2 = f.submatrix((0, 1), tuple(range(n1, n)))
        _, r = quorem_auto(h, f)
        q1, r1 = quorem_auto(m1, f1)
        _, r2 = quorem_auto(m2, f2 - matmul(q1, a))
        left = r.submatrix((0, 1), tuple(range(n1)))
        right = r.submatrix((0, 1), tuple(range(n1, n)))
        assert left == r1 and right == r2


@pytest.mark.parametrize("p", (2, 7, 2**61 - 1))
@pytest.mark.parametrize("sigma", [(0,), (0, 0, 0), (0, 3), (2, 0, 5),
                                   (0, 1, 40)],
                         ids=lambda s: "-".join(map(str, s)))
def test_remainder_edge_moduli(p, sigma):
    # R is read from (F - Q*M) mod x^sigma_j column by column: a constant
    # column keeps no coefficient of it, a constant modulus none at all,
    # and unbalanced columns keep different lengths of one product
    rng = random.Random(repr((p, sigma)))
    mm = column_reduced_with_degrees(rng, p, sigma)
    assert cdeg(mm) == sigma
    for delta in (1, 45):
        f = PolyMat(p, [[rnd_poly(rng, p, sj + delta - 1) for sj in sigma]
                        for _ in range(3)])
        q, r = pm_quorem(mm, f, delta)
        assert (q, r) == naive_quorem(mm, f)
        assert r.n == len(sigma)
        if max(sigma) == 0:
            assert r.is_zero()
    res = rnd_residues(rng, p, 2, sigma)
    for delta, k in ((1, 2), (45, 1)):
        for r_idx, got in enumerate(rem_of_shifts(mm, res, delta, k)):
            shifted = PolyMat(p, [[e.shift_up(r_idx * delta) for e in row]
                                  for row in res.rows])
            assert got == naive_quorem(mm, shifted)[1]
    pmat = rnd_polymat(rng, p, 2, res.m, 50)
    _, want = naive_quorem(mm, naive_matmul(pmat, res))
    assert residual(mm, pmat, res) == want


def test_empty_row_inputs():
    mm = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = PolyMat.zero(7, 0, 2)
    q, r = pm_quorem(mm, f, 1)
    assert q.m == 0 and r.m == 0
    assert residual(mm, PolyMat.zero(7, 0, 0), f).m == 0
    # the Newton expansion under pm_quorem accepts them too
    for t in (0, 1, 5):
        assert truncated_expansion(f, mm, t) == PolyMat(7, [])
    with pytest.raises(ShapeError):
        truncated_expansion(f, PolyMat.zero(7, 2, 3), 5)


def full_dividend(rng, p, rows, sigma, delta):
    """rows x len(sigma), column j of degree exactly sigma_j + delta - 1,
    so that every slot of the reversed quotient is in play."""
    return PolyMat(p, [[rnd_poly_deg(rng, p, sj + delta - 1) for sj in sigma]
                       for _ in range(rows)])


def quotient_moduli(rng, p):
    """Moduli with max(sigma) far below and far above the degree gaps of
    QUOTIENT_GAPS; the column reversal of a generic one mostly has
    M^(0) != I, of a Hermite one M^ = I mod x^k for some k >= 1."""
    return [column_reduced_with_degrees(rng, p, (1, 2)),
            column_reduced_with_degrees(rng, p, (3, 0, 2)),
            column_reduced_with_degrees(rng, p, (250, 180)),
            rnd_hermite(rng, p, 2, 9),
            hermite_last_column(rng, p, 3, 120)]


# one term (delta - ceil(delta/2) = 0), the smallest even and odd gaps past
# it, and gaps far below and far above the moduli's degrees
QUOTIENT_GAPS = (1, 2, 3, 45, 200)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_half_inverse_quotient_matches_naive(p):
    # the quotient takes the low half of F^ * Z from Z mod x^ceil(delta/2)
    # and the rest from one correction step; int64 arrays below 2^31,
    # Python ints above
    rng = random.Random(repr(("gaps", p)))
    for mm in quotient_moduli(rng, p):
        sigma = cdeg(mm)
        for delta in QUOTIENT_GAPS:
            f = full_dividend(rng, p, 2, sigma, delta)
            q, r = pm_quorem(mm, f, delta)
            assert (q, r) == naive_quorem(mm, f)
            assert q.max_degree() == delta - 1


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_shared_inverse_rem_of_shifts_matches_naive(p):
    # every division of one call reads a truncation of the inverse built
    # by the first, at the largest shift
    rng = random.Random(repr(("shifts", p)))
    for mm in quotient_moduli(rng, p)[1:4]:
        sigma = cdeg(mm)
        res = rnd_residues(rng, p, 2, sigma)
        for delta in (1, 7):
            for k in range(4):
                got = rem_of_shifts(mm, res, delta, k)
                assert len(got) == 2 ** k
                for r_idx, rem in enumerate(got):
                    shifted = PolyMat(p, [[e.shift_up(r_idx * delta)
                                           for e in row] for row in res.rows])
                    assert rem == naive_quorem(mm, shifted)[1]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_shared_inverse_residual_matches_naive(p):
    # a small copy of the benchmark's residual shape: one column of P far
    # above the others, so its row of F is shifted through rem_of_shifts
    rng = random.Random(repr(("residual", p)))
    sigma = (4, 6, 8)
    for mm in (column_reduced_with_degrees(rng, p, sigma),
               rnd_hermite(rng, p, 3, 18)):
        res = rnd_residues(rng, p, 3, cdeg(mm))
        pmat = PolyMat(p, [[rnd_poly_deg(rng, p, d) for d in (60, 5, 7)]
                           for _ in range(3)])
        _, want = naive_quorem(mm, naive_matmul(pmat, res))
        assert residual(mm, pmat, res) == want


def inverse_spy(monkeypatch):
    """The precisions polymat._newton_inverse is asked for."""
    calls = []
    orig = polymat_mod._newton_inverse

    def spy(p, a, z, k, t):
        calls.append(t)
        return orig(p, a, z, k, t)

    monkeypatch.setattr(polymat_mod, "_newton_inverse", spy)
    return calls


def test_one_inverse_per_call(monkeypatch):
    # one rem_of_shifts or residual call builds the inverse of M^ once, to
    # half the gap of its first division and no further, whatever order
    # its divisions come in; that division, at the top shift, runs at the
    # gap its rows need, never above the shift
    calls = inverse_spy(monkeypatch)
    rng = random.Random(44)
    p = 7
    for mm in (column_reduced_with_degrees(rng, p, (4, 6, 8)),
               rnd_hermite(rng, p, 3, 18)):
        sigma = cdeg(mm)
        res = rnd_residues(rng, p, 4, sigma)

        def build(i, shift):
            """The one build that dividing x^shift times row i of res asks
            for: Z mod x is the inverse of M^(0) and needs no build."""
            gap = needed_gap(mm, PolyMat(p, [[e.shift_up(shift)
                                              for e in res.rows[i]]]))
            assert gap <= shift
            top = -(-gap // 2)
            return [] if top == 1 else [top]

        for delta, k in ((5, 3), (12, 2), (3, 1)):
            calls.clear()
            rem_of_shifts(mm, res.submatrix((0,), range(3)), delta, k)
            assert calls == build(0, delta << (k - 1))
        # rows 0 and 1 of F are shifted 2 and 3 times: the row with more
        # shifts comes second, and its division still goes first
        pmat = PolyMat(p, [[rnd_poly_deg(rng, p, d) for d in (70, 200, 0, 0)]
                           for _ in range(2)])
        # w = ceil(270 / 4) = 68 and alphas (2, 3, 1, 1)
        calls.clear()
        got = residual(mm, pmat, res)
        assert calls == build(1, 2 * 68)
        _, want = naive_quorem(mm, naive_matmul(pmat, res))
        assert got == want


def test_residual_lifts_each_shift_once(monkeypatch):
    # alphas (6, 3, 1, ...): one lifting division per doubling step, at
    # shifts 4w, 2w and w on 1, 2 and 4 rows, which computes exactly the
    # offsets r < alpha of every row and none past them; then the final
    # division of the product
    rng = random.Random(45)
    p = 7
    # w = ceil(220 / 8) = 28
    degs = (150, 70, 0, 0, 0, 0, 0, 0)
    mm = column_reduced_with_degrees(rng, p, (4, 6, 8))
    res = rnd_residues(rng, p, len(degs), cdeg(mm))
    pmat = PolyMat(p, [[rnd_poly_deg(rng, p, d) for d in degs]
                       for _ in range(2)])
    seen = []
    orig = division_mod._divide

    def spy(div, f, delta):
        seen.append((f.m, delta))
        return orig(div, f, delta)

    monkeypatch.setattr(division_mod, "_divide", spy)
    got = residual(mm, pmat, res)
    w = 28
    assert seen == [(1, 4 * w), (2, 2 * w), (4, w), (2, w)]
    _, want = naive_quorem(mm, naive_matmul(pmat, res))
    assert got == want
