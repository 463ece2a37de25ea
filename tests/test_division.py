import random

import pytest
from hypothesis import given, settings, strategies as st

import pmat.polymat as polymat_mod
from pmat import (
    NEG_INF,
    Poly,
    PolyMat,
    PreconditionError,
    cdeg,
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
from pmat.division import auto_delta, truncated_expansion

from .helpers import (
    naive_matmul,
    rnd_column_reduced,
    rnd_hermite,
    rnd_polymat,
    rnd_residues,
)

M = PolyMat.from_coeffs


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
        assert auto_delta(mm, f) >= 1


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


# every prime class of the product kernel: numpy batch packing below 2^32,
# per-entry packing from 2^32 up, slots from one byte to several limbs
KERNEL_PRIMES = (2, 7, 1000003, 2**31 - 1, 4294967311, 2**61 - 1,
                 2**127 - 1)


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


def test_no_product_has_an_identity_factor(monkeypatch):
    # a column-reversed Hermite modulus has M(0) = I, so Newton inversion
    # starts at the identity: neither its first step nor a one-term
    # expansion may spend a product on it
    factors = []
    orig = polymat_mod._matmul

    def spy(a, b, trunc):
        factors.extend((a, b))
        return orig(a, b, trunc)

    monkeypatch.setattr(polymat_mod, "_matmul", spy)
    rng = random.Random(43)
    p = 1000003
    h = rnd_hermite(rng, p, 4, 48)
    f = rnd_residues(rng, p, 3, cdeg(h))
    relations_mod_hermite(h, f, (0, 2, -1))
    quorem_auto(h, rnd_polymat(rng, p, 3, 4, 30))
    residual(h, rnd_polymat(rng, p, 2, 3, 12), f)
    assert len(factors) > 100
    assert not [a for a in factors
                if a.m == a.n and a == PolyMat.identity(p, a.n)]


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


def test_empty_row_inputs():
    mm = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = PolyMat.zero(7, 0, 2)
    q, r = pm_quorem(mm, f, 1)
    assert q.m == 0 and r.m == 0
    assert residual(mm, PolyMat.zero(7, 0, 0), f).m == 0
