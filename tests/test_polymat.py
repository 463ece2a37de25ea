import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pmat import (
    NEG_INF,
    ConstMat,
    InternalInvariantError,
    Poly,
    PolyMat,
    PreconditionError,
    ShapeError,
    cdeg,
    column_leading_matrix,
    column_reversal,
    determinant,
    is_column_reduced,
    is_hermite,
    is_popov,
    is_reduced,
    leading_matrix_shifted,
    matmul,
    matmul_trunc,
    popov_form,
    rdeg_shifted,
    reduce_vector_mod_rowspace,
    residual,
    vstack,
)
from pmat import ntt
import pmat.poly as poly_mod
from pmat.poly import _NEWTON_LEN as N
from pmat.polymat import (
    const_mul,
    matmul_unbalanced,
    _array_of,
    _bareiss,
    _exact_div,
    _from_array,
    _reverse_columns,
)

from .helpers import (
    column_reduced_with_degrees,
    diag_degrees,
    expansion_matrix,
    naive_matmul,
    poly_of_length,
    rnd_column_reduced,
    rnd_hermite,
    rnd_polymat,
    rnd_shift,
    schoolbook_mul,
    spy_calls,
    spy_linearization,
    staircase_shift,
)

M = PolyMat.from_coeffs
PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)


def test_cdeg_examples():
    m = M(7, [[[1, 0, 1], [0, 1]], [[3], [0, 0, 0, 1]]])
    assert cdeg(m) == (2, 3)
    assert cdeg(PolyMat.zero(7, 2, 2)) == (NEG_INF, NEG_INF)
    assert cdeg(PolyMat.identity(7, 3)) == (0, 0, 0)


def test_rdeg_shifted_examples():
    # max(deg(x) + 0, deg(1) + 5) = 5
    m = M(7, [[[0, 1], [1]]])
    assert rdeg_shifted(m, (0, 5)) == (5,)
    assert rdeg_shifted(PolyMat.identity(7, 2), (3, 7)) == (3, 7)
    w = M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert rdeg_shifted(w) == (1, 1)
    with pytest.raises(ShapeError):
        rdeg_shifted(m, (0,))


def test_rdeg_shift_translation():
    rng = random.Random(11)
    for _ in range(25):
        m = rnd_polymat(rng, 7, 3, 3, 6)
        s = rnd_shift(rng, 3)
        c = rng.randint(-4, 4)
        base = rdeg_shifted(m, s)
        moved = rdeg_shifted(m, tuple(x + c for x in s))
        for a, b in zip(base, moved):
            if a is NEG_INF:
                assert b is NEG_INF
            else:
                assert b == a + c


def test_leading_matrix_examples():
    assert leading_matrix_shifted(PolyMat.identity(7, 3), (2, 0, -1)) == \
        ConstMat(7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    w = M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert leading_matrix_shifted(w) == ConstMat(7, [[1, 0], [0, 1]])
    d = M(7, [[[0, 2], []], [[], [0, 1]]])
    assert leading_matrix_shifted(d) == ConstMat(7, [[2, 0], [0, 1]])
    z = M(7, [[[0, 1], [1]], [[], []]])
    assert leading_matrix_shifted(z, (0, 3)) == ConstMat(7, [[0, 1], [0, 0]])


def test_popov_reduced_examples():
    assert is_popov(PolyMat.identity(7, 3), (4, -1, 0))
    w = M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert is_popov(w)
    d = M(7, [[[0, 2], []], [[], [0, 1]]])
    assert is_reduced(d)
    assert not is_popov(d)   # pivot 2x is not monic
    # more rows than columns: no full row rank; a non-square Popov or
    # Hermite form does not exist
    assert not is_reduced(M(7, [[[1]], [[0, 1]]]))
    assert not is_popov(M(7, [[[1]], [[0, 1]]]))
    assert not is_hermite(M(7, [[[1], []]]))


def test_popov_regression_row_vs_column_degrees():
    # shifted pivots sit off the plain-degree positions here; the column
    # dominance test must look at shifted row degrees of the transpose
    m = M(7, [[[0, 1], [6, 2, 6]], [[6], [4, 1, 2, 1]]])
    assert is_popov(m, (1, -2))


def test_popov_shift_translation():
    rng = random.Random(12)
    for _ in range(20):
        h = rnd_hermite(rng, 7, 3, rng.randint(3, 9))
        d = sum(diag_degrees(h)) + 1
        s = staircase_shift(3, d)
        c = rng.randint(-3, 3)
        assert is_popov(h, s) == is_popov(h, tuple(x + c for x in s))


def test_hermite_examples():
    assert is_hermite(M(7, [[[0, 1], [1]], [[], [0, 1]]]))
    assert not is_hermite(M(7, [[[0, 1], [0, 1]], [[], [0, 1]]]))
    assert is_hermite(PolyMat.identity(7, 4))


def test_hermite_is_staircase_popov():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        h = rnd_hermite(rng, 7, n, rng.randint(n, 12))
        assert is_hermite(h)
        d = sum(diag_degrees(h)) + 1
        assert is_popov(h, staircase_shift(n, d))
        assert is_reduced(h, staircase_shift(n, d))


def test_popov_implies_reduced():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 4)
        h = rnd_hermite(rng, 7, n, rng.randint(n, 10))
        s = staircase_shift(n, sum(diag_degrees(h)) + 1)
        assert is_popov(h, s) and is_reduced(h, s)


def test_column_reduced_predicate():
    rng = random.Random(15)
    for _ in range(15):
        m, _ = rnd_column_reduced(rng, 7, 3, 5)
        assert is_column_reduced(m)
    assert not is_column_reduced(M(7, [[[0, 1], [0, 1]], [[0, 1], [0, 1]]]))
    assert not is_column_reduced(M(7, [[[1], [0, 1]]]))  # more columns


def test_matmul_examples():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    assert matmul(h, PolyMat.identity(7, 2)) == h
    assert -h == M(7, [[[0, 6], [6]], [[], [0, 6]]])
    assert h + -h == PolyMat.zero(7, 2, 2)
    assert matmul(h, h) == M(7, [[[0, 0, 1], [0, 2]], [[], [0, 0, 1]]])


def test_matmul_against_naive():
    rng = random.Random(16)
    for _ in range(15):
        p = rng.choice([7, 998244353])
        a = rnd_polymat(rng, p, rng.randint(1, 3), rng.randint(1, 3), 8)
        b = rnd_polymat(rng, p, a.n, rng.randint(1, 3), 8)
        assert matmul(a, b) == naive_matmul(a, b)


@pytest.mark.parametrize("p", PRIMES + (2**127 - 1,))
def test_matmul_large_degree_paths(p):
    # long entries, at slot widths from 1 byte to multi-word
    rng = random.Random(17)
    a = rnd_polymat(rng, p, 2, 3, 90)
    b = rnd_polymat(rng, p, 3, 2, 85)
    assert matmul(a, b) == naive_matmul(a, b)
    # all-(p-1) entries fill every slot: at p = 2^61-1 with 40 coefficients
    # and inner dimension 4, a slot holds 160 products (130 bits); a budget
    # that left out the inner dimension would give 128 bits and carry
    top = Poly(p, [p - 1] * 40)
    a = PolyMat(p, [[top] * 4] * 2)
    b = PolyMat(p, [[top] * 2] * 4)
    assert matmul(a, b) == naive_matmul(a, b)


# shapes (m, k, n, maxdeg); the last one always runs as an example
SHAPES = ((1, 1, 1, 0), (1, 3, 2, 5), (2, 2, 2, 12), (3, 2, 3, 40),
          (2, 3, 2, 70))


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15)
@given(rng=st.randoms(use_true_random=False), shape=st.sampled_from(SHAPES))
@example(rng=random.Random(26), shape=SHAPES[-1])
def test_matmul_trunc_matches_truncated_product(p, rng, shape):
    m, k, n, deg = shape
    a = rnd_polymat(rng, p, m, k, deg)
    b = rnd_polymat(rng, p, k, n, deg)
    full = naive_matmul(a, b)
    for t in range(1, 2 * deg + 3):
        assert matmul_trunc(a, b, t) == full.truncate(t)


@pytest.mark.parametrize("p", PRIMES)
@settings(max_examples=15)
@given(rng=st.randoms(use_true_random=False), shape=st.sampled_from(SHAPES))
@example(rng=random.Random(26), shape=SHAPES[-1])
def test_const_mul_matches_lifted_product(p, rng, shape):
    m, k, n, deg = shape
    c = ConstMat(p, [[rng.randrange(p) for _ in range(k)] for _ in range(m)])
    b = rnd_polymat(rng, p, k, n, deg)
    lifted = PolyMat(p, [[Poly.const(p, v) for v in r] for r in c.rows])
    assert const_mul(c, b) == naive_matmul(lifted, b)


@pytest.mark.parametrize("dims", ((4, 4, 4), (8, 8, 8), (2, 3, 5)))
def test_const_mul_long_entries_skip_transform(monkeypatch, dims):
    # Kronecker substitution takes every product, with a constant side or
    # not, at lengths a word-size transform would serve; none reaches the
    # tracer's ntt anchors
    p = 998244353
    m, k, n = dims
    rng = random.Random(31)
    c = ConstMat(p, [[rng.randrange(p) for _ in range(k)] for _ in range(m)])
    b = rnd_polymat(rng, p, k, n, 69 + 40 * (m % 3))
    assert b.max_degree() >= 69
    calls = [spy_calls(monkeypatch, (ntt,), f)
             for f in ("matmul_ntt", "mul_ntt")]
    lifted = PolyMat(p, [[Poly.const(p, v) for v in r] for r in c.rows])
    assert const_mul(c, b) == naive_matmul(lifted, b)
    a = rnd_polymat(rng, p, m, k, 3)
    assert a.max_degree() >= 1
    assert matmul(a, b) == naive_matmul(a, b)
    assert calls == [[], []]


@pytest.mark.parametrize("p", (7, 1000003, 998244353, 3 * 2**30 + 1,
                               2**61 - 1))
def test_ntt_anchors_match_the_kernel(p):
    # the two names the benchmark's tracer looks up hold at every prime:
    # one with no root of unity of the product's order, an empty operand
    # and a prime above 2^31 included
    rng = random.Random(p)
    for la, lb in ((20, 33), (7, 2), (1, 1), (0, 3), (3, 0)):
        a, b = poly_of_length(rng, p, la), poly_of_length(rng, p, lb)
        want = list(schoolbook_mul(a, b).c)
        assert ntt.mul_ntt(list(a.c), list(b.c), p) == want
        assert len(want) == (la + lb - 1 if la and lb else 0)
    lens = (0, 1, 3, 20, 33)
    a_grid = [[list(poly_of_length(rng, p, lens[(3 * i + k) % 5]).c)
               for k in range(3)] for i in range(2)]
    b_grid = [[list(poly_of_length(rng, p, lens[(2 * k + j + 2) % 5]).c)
               for j in range(2)] for k in range(3)]
    full = 33 + 33 - 1  # A[1][1] * B[1][0], the longest term product
    want = naive_matmul(M(p, a_grid), M(p, b_grid))
    for out_len in (full - 5, full, full + 4):
        assert ntt.matmul_ntt(a_grid, b_grid, p, out_len) == [
            [list(e.c[:out_len]) + [0] * (out_len - len(e.c)) for e in row]
            for row in want.rows]


def test_non_prime_modulus_rejected_at_construction():
    grid = [[[1, 2, 3], [0, 4]], [[5], [2, 0, 6]]]
    with pytest.raises(PreconditionError, match="not prime"):
        M(8, grid)
    with pytest.raises(PreconditionError, match="not prime"):
        PolyMat(8, [])
    with pytest.raises(PreconditionError, match="not prime"):
        PolyMat.identity(8, 2)
    with pytest.raises(PreconditionError, match="not prime"):
        ConstMat(8, [[3, 0], [0, 3]])
    with pytest.raises(PreconditionError, match="not prime"):
        popov_form(M(8, grid))


def test_matmul_unbalanced_equals_matmul():
    rng = random.Random(18)
    for _ in range(20):
        p = rng.choice([7, 998244353])
        k = rng.randint(1, 3)
        mm = rng.randint(1, 3)
        n = rng.randint(1, 3)
        b = rnd_polymat(rng, p, mm, n, 9)
        a = rnd_polymat(rng, p, k, mm, 5)
        degs = tuple(0 if d is NEG_INF else d for d in cdeg(b))
        assert matmul_unbalanced(a, b, degs) == matmul(a, b)
    with pytest.raises(ShapeError):
        matmul_unbalanced(a, b, degs + (0,))


def test_column_reversal_examples():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    assert column_reversal(h, (1, 1)) == M(7, [[[1], [0, 1]], [[], [1]]])
    i3 = PolyMat.identity(7, 3)
    assert column_reversal(i3, (0, 0, 0)) == i3
    with pytest.raises(PreconditionError):
        column_reversal(h, (0, 1))


def test_column_reversal_involution():
    rng = random.Random(19)
    for _ in range(15):
        m, sigma = rnd_column_reduced(rng, 7, 3, 6)
        assert column_reversal(column_reversal(m, sigma), sigma) == m


def test_array_column_reversal_matches_column_reversal():
    # the index map division runs on, against the entrywise reversal; a
    # shorter length keeps the low slots, a longer one pads with zeros
    rng = random.Random(20)
    for p in (7, 2**61 - 1):
        for _ in range(10):
            m = rnd_polymat(rng, p, rng.randint(1, 3), 3, 6)
            offs = [d + rng.randint(0, 3) if d is not NEG_INF
                    else rng.randint(0, 3) for d in cdeg(m)]
            want = column_reversal(m, offs)
            top = max(offs) + 1
            for length in (top, top + 2, 1):
                got = _reverse_columns(_array_of(m), offs, length)
                assert got.shape == (m.m, 3, length)
                assert _from_array(p, got) == want.truncate(length)


# partial column linearization, as residual cuts P into chunks: seen
# through the chunk matrix it multiplies and the layout it lifts F with


def linearize(monkeypatch, pm):
    """(Pbar, width, alphas) of residual(M, P, F) for M = [x^N] of degree
    above P's and F a column of ones, so that the residual is P*F."""
    p = pm.p
    mm = PolyMat(p, [[Poly.mono(p, max(0, pm.max_degree()) + 1)]])
    f = PolyMat(p, [[Poly.one(p)]] * pm.n)
    seen = spy_linearization(monkeypatch)
    got = residual(mm, pm, f)
    monkeypatch.undo()
    assert got == pm * f
    (layout,) = seen
    return tuple(layout)


def test_expand_columns_trivial(monkeypatch):
    p1 = M(7, [[[0, 0, 1]]])
    assert linearize(monkeypatch, p1) == (p1, 2, (1,))
    z = PolyMat.zero(7, 2, 2)
    pbar, _, alphas = linearize(monkeypatch, z)
    assert pbar.is_zero() and alphas == (1, 1)


def test_expand_columns_worked_example(monkeypatch):
    pm = M(7, [[[0, 0, 0, 1], [1]]])
    pbar, width, alphas = linearize(monkeypatch, pm)
    assert width == 2 and alphas == (2, 1)
    assert pbar == M(7, [[[], [0, 1], [1]]])
    e = expansion_matrix(width, alphas, 7)
    assert e == M(7, [[[1], []], [[0, 0, 1], []], [[], [1]]])
    assert matmul(pbar, e) == pm


def test_expand_collapse_round_trip(monkeypatch):
    rng = random.Random(20)
    for _ in range(25):
        k = rng.randint(1, 3)
        n = rng.randint(1, 4)
        pm = rnd_polymat(rng, 7, k, n, 11)
        pbar, width, alphas = linearize(monkeypatch, pm)
        e = expansion_matrix(width, alphas, 7)
        assert matmul(pbar, e) == pm
        # every chunk holds at most width + 1 coefficients, the last of a
        # column the rest
        assert all(d is NEG_INF or d <= width for d in cdeg(pbar))


def test_plan_shape_bounds(monkeypatch):
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(1, 5)
        degs = tuple(rng.randint(0, 12) for _ in range(n))
        pm = PolyMat(7, [[Poly.mono(7, d) for d in degs]])
        _, width, alphas = linearize(monkeypatch, pm)
        assert width == max(1, -(-sum(degs) // n))
        assert n <= sum(alphas) < 2 * n
        assert all(a >= 1 for a in alphas)


def test_reduce_vector_examples():
    w = M(7, [[[0, 1], [6]], [[], [0, 1]]])
    assert reduce_vector_mod_rowspace(w.rows[0], w) == (Poly(7), Poly(7))
    out = reduce_vector_mod_rowspace((Poly(7, (0, 0, 1)), Poly(7)), w)
    assert all(e.is_zero for e in out)
    out = reduce_vector_mod_rowspace((Poly.one(7), Poly(7)), w)
    assert not all(e.is_zero for e in out)
    # the leading term (0, x) reaches row 0's degree, but row 0 cannot
    # cancel it and row 1 is of higher degree
    d = M(7, [[[0, 1], []], [[], [0, 0, 1]]])
    v = (Poly(7), Poly(7, (0, 1)))
    assert reduce_vector_mod_rowspace(v, d) == v
    bad = M(7, [[[0, 1], [1]], [[1, 1], [1]]])
    with pytest.raises(PreconditionError):
        reduce_vector_mod_rowspace((Poly.one(7), Poly(7)), bad)


def test_reduce_vector_membership():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(1, 3)
        h = rnd_hermite(rng, 7, n, rng.randint(n, 8))
        s = staircase_shift(n, sum(diag_degrees(h)) + 1)
        combo = [Poly(7)] * n
        for i in range(n):
            f = rnd_poly_local(rng, 7, 3)
            combo = [c + f * e for c, e in zip(combo, h.rows[i])]
        out = reduce_vector_mod_rowspace(combo, h, s)
        assert all(e.is_zero for e in out)


def rnd_poly_local(rng, p, maxdeg):
    c = [rng.randrange(p) for _ in range(maxdeg + 1)]
    return Poly(p, c)


def test_determinant():
    h = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    assert determinant(h) == Poly(7, (0, 0, 1))
    rng = random.Random(23)
    for _ in range(10):
        a = rnd_polymat(rng, 7, 3, 3, 4)
        b = rnd_polymat(rng, 7, 3, 3, 4)
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)
    tri = rnd_hermite(rng, 7, 3, 7)
    prod = Poly.one(7)
    for i in range(3):
        prod = prod * tri[i, i]
    assert determinant(tri) == prod


def permutation_sum(m):
    """det M as the sum over permutations, sharing no code with
    determinant."""
    p, n = m.p, m.n
    total = Poly.zero(p)
    for perm in itertools.permutations(range(n)):
        term = Poly.one(p)
        for i, j in enumerate(perm):
            term = term * m.rows[i][j]
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        total = total - term if inversions % 2 else total + term
    return total


@pytest.mark.parametrize("p", (2, 7, 2**61 - 1))
def test_determinant_matches_permutation_sum(p):
    rng = random.Random(repr(("det", p)))
    for n in range(6):
        for _ in range(4):
            a = rnd_polymat(rng, p, n, n, 3)
            assert determinant(a) == permutation_sum(a)
    # a zero pivot that needs a row swap, and a repeated row
    a = rnd_polymat(rng, p, 4, 4, 2)
    rows = [list(r) for r in a.rows]
    rows[0][0] = rows[1][0] = Poly.zero(p)
    swap = PolyMat(p, rows)
    assert determinant(swap) == permutation_sum(swap)
    twice = PolyMat(p, rows[:3] + [rows[2]])
    assert determinant(twice).is_zero and permutation_sum(twice).is_zero


def test_determinant_memory_is_polynomial():
    # at n = 16 only an elimination that holds O(n^2) entries at a time
    # stays under the bound; C(16, 8) partial sums would not
    rng = random.Random(24)
    a = rnd_polymat(rng, 7, 16, 16, 2)
    b = rnd_polymat(rng, 7, 16, 16, 2)
    ab = matmul(a, b)
    tracemalloc.start()
    try:
        da, db, dab = determinant(a), determinant(b), determinant(ab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dab == da * db
    assert not dab.is_zero
    assert peak < 2 << 20


@pytest.mark.parametrize("p", (7, 2**61 - 1))
def test_exact_div_with_a_shared_inverse(p):
    # numerators that outgrow the inverse's precision extend it; a nonzero
    # remainder still raises, at Newton sizes too
    rng = random.Random(repr(("exact", p)))
    b = poly_of_length(rng, p, N + 8)
    inv, need = [], 0
    for t in (N, 3 * N, N + 2, 5 * N):
        q = poly_of_length(rng, p, t)
        assert _exact_div(q * b, b, inv) == q
        need = max(need, t)
        assert len(inv) == need
    for extra in (Poly.one(p), poly_of_length(rng, p, N + 7)):
        with pytest.raises(InternalInvariantError):
            _exact_div(q * b + extra, b, inv)
    with pytest.raises(InternalInvariantError):
        _exact_div(q * b + Poly.one(p), b)


@pytest.mark.parametrize("p, n, d", ((7, 4, 24), (2**61 - 1, 6, 16),
                                     (2**127 - 1, 6, 16)))
def test_bareiss_at_newton_sizes(monkeypatch, p, n, d):
    # M*v = det(M)*e_col, and every step 1 <= k <= n - 2 (the last step
    # has no row below it) divides by one pivot with one inverse list,
    # built once when that pivot is long enough
    rng = random.Random(repr(("bareiss", p, n, d)))
    m = column_reduced_with_degrees(rng, p, (d,) * n)
    det, v = _bareiss(m, n - 1)
    assert det.degree == n * d and det == permutation_sum(m)
    z = Poly.zero(p)
    assert naive_matmul(m, PolyMat(p, [[e] for e in v])) == PolyMat(
        p, [[det if i == n - 1 else z] for i in range(n)])
    divisions, builds = [], []
    divmod_orig, grow_orig = Poly._divmod, poly_mod._grow_inverse

    def divmod_spy(a, b, inv):
        divisions.append((b, inv))
        return divmod_orig(a, b, inv)

    def grow_spy(a, zinv, t, q):
        builds.extend([zinv] if len(zinv) == 1 else [])
        return grow_orig(a, zinv, t, q)

    monkeypatch.setattr(Poly, "_divmod", divmod_spy)
    monkeypatch.setattr(poly_mod, "_grow_inverse", grow_spy)
    assert _bareiss(m)[0] == det
    shared = {}
    for b, inv in divisions:
        shared.setdefault(id(inv), set()).add(b)
    assert len(shared) == n - 2 and all(len(b) == 1 for b in shared.values())
    # the pivot of step k has degree k*d on these generic inputs
    assert len(builds) == sum(k * d + 1 >= N for k in range(1, n - 1)) > 0
    assert len({id(inv) for inv in builds}) == len(builds)


def test_vstack_and_submatrix():
    a = M(7, [[[1], [2]]])
    b = M(7, [[[3], [4]], [[5], [6]]])
    s = vstack(a, b)
    assert s.m == 3 and s.n == 2
    assert s[2, 1] == Poly(7, (6,))
    assert s.submatrix((0, 2), (1,)) == M(7, [[[2]], [[6]]])


def test_column_leading_matrix():
    m, sigma = rnd_column_reduced(random.Random(24), 7, 3, 5)
    lm = column_leading_matrix(m)
    assert lm.is_invertible()
    for j in range(3):
        for i in range(3):
            assert lm[i, j] == m[i, j].coeff(sigma[j])
