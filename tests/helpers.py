"""Seeded instance generators shared across the test modules.

Every generator takes an explicit random.Random so a failing case can be
replayed from the seed written in the test that drew it.  The Hypothesis
strategies at the end draw the same instances from Hypothesis's own
seeded random, with sizes and degenerate shapes Hypothesis can shrink.
"""

import numpy as np
from hypothesis import strategies as st

import pmat.approx as approx_mod
import pmat.division as division_mod
import pmat.relations as relations_mod
from pmat import (
    ConstMat,
    Poly,
    PolyMat,
    cdeg,
    determinant,
    leading_matrix_shifted,
    rdeg_shifted,
    reduce_vector_mod_rowspace,
)
from pmat.approx import _water_level


def schoolbook_mul(a, b):
    """Independent reference product, written without the library dispatch."""
    if not a.c or not b.c:
        return Poly(a.p)
    out = [0] * (len(a.c) + len(b.c) - 1)
    for i, ai in enumerate(a.c):
        for j, bj in enumerate(b.c):
            out[i + j] = (out[i + j] + ai * bj) % a.p
    return Poly(a.p, out)


def schoolbook_divmod(a, b):
    """Independent reference division: long division by b's leading term,
    one quotient coefficient at a time, without the library dispatch."""
    p, r, bc = a.p, list(a.c), b.c
    lead = pow(bc[-1], -1, p)
    q = [0] * max(len(r) - len(bc) + 1, 0)
    for k in reversed(range(len(q))):
        q[k] = r[k + len(bc) - 1] * lead % p
        for j, bj in enumerate(bc):
            r[k + j] = (r[k + j] - q[k] * bj) % p
    return Poly(p, q), Poly(p, r[:len(bc) - 1])


def poly_of_length(rng, p, n, top=False):
    """A polynomial with exactly n coefficients (the zero polynomial for
    n <= 0): random ones, or all p - 1 with top."""
    if n <= 0:
        return Poly(p)
    c = [p - 1 if top else rng.randrange(p) for _ in range(n - 1)]
    return Poly(p, c + [p - 1 if top else rng.randrange(1, p)])


def is_identity_array(a):
    """An n x n coefficient array whose only nonzero slot is I at x^0."""
    n = a.shape[0]
    return (a.shape[1] == n and a.shape[2] >= 1
            and not a[..., 1:].any()
            and (a[..., 0] == np.eye(n, dtype=a.dtype)).all())


def naive_matmul(a, b):
    """Triple-loop product on top of schoolbook_mul; test oracle only."""
    assert a.n == b.m
    rows = []
    for i in range(a.m):
        row = []
        for j in range(b.n):
            acc = Poly(a.p)
            for k in range(a.n):
                acc = acc + schoolbook_mul(a[i, k], b[k, j])
            row.append(acc)
        rows.append(row)
    return PolyMat(a.p, rows)


# every prime class of the product kernel: numpy batch packing below 2^32,
# per-entry packing from 2^32 up, slots from one byte to several limbs
KERNEL_PRIMES = (2, 7, 1000003, 2**31 - 1, 4294967311, 2**61 - 1,
                 2**127 - 1)


def rnd_poly(rng, p, maxdeg, nonzero=False):
    """Random polynomial of degree <= maxdeg; maxdeg < 0 gives the zero poly."""
    lo = 0 if nonzero else -1
    d = rng.randint(lo, maxdeg) if maxdeg >= lo else -1
    if d < 0:
        return Poly(p)
    c = [rng.randrange(p) for _ in range(d)]
    c.append(rng.randrange(1, p))
    return Poly(p, c)


def rnd_polymat(rng, p, m, n, maxdeg):
    return PolyMat(p, [[rnd_poly(rng, p, maxdeg) for _ in range(n)]
                       for _ in range(m)])


def rnd_invertible_const(rng, p, n):
    while True:
        c = ConstMat(p, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
        if c.is_invertible():
            return c


def rnd_column_reduced(rng, p, n, maxdeg, mindeg=0):
    """Column reduced n x n matrix with cdeg = sigma; returns (M, sigma).

    Entries below the column degree are random; the degree-sigma_j
    coefficients form a random invertible matrix, which is exactly the
    column leading matrix of the result."""
    sigma = tuple(rng.randint(mindeg, maxdeg) for _ in range(n))
    return column_reduced_with_degrees(rng, p, sigma), sigma


def column_reduced_with_degrees(rng, p, sigma):
    """Column reduced square matrix with cdeg = sigma, drawn as
    rnd_column_reduced draws it; M(0) may be singular."""
    n = len(sigma)
    lead = rnd_invertible_const(rng, p, n)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            e = rnd_poly(rng, p, sigma[j] - 1)
            if lead[i, j]:
                e = e + Poly.mono(p, sigma[j], lead[i, j])
            row.append(e)
        rows.append(row)
    return PolyMat(p, rows)


def rnd_hermite(rng, p, n, total, balanced=False):
    """Triangular canonical-form matrix: monic diagonal with degrees >= 1
    summing to total, entries above the diagonal of smaller degree.
    balanced=True puts total/n on every diagonal entry."""
    assert total >= n >= 1
    if balanced:
        assert total % n == 0
        degs = [total // n] * n
    else:
        degs = [1] * n
        for _ in range(total - n):
            degs[rng.randrange(n)] += 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                e = rnd_poly(rng, p, degs[j] - 1) + Poly.mono(p, degs[j], 1)
            elif i < j:
                e = rnd_poly(rng, p, degs[j] - 1)
            else:
                e = Poly(p)
            row.append(e)
        rows.append(row)
    return PolyMat(p, rows)


def rnd_residues(rng, p, m, sigma):
    """m x len(sigma) matrix with column degrees strictly below sigma."""
    return PolyMat(p, [[rnd_poly(rng, p, sj - 1) for sj in sigma]
                       for _ in range(m)])


def rnd_nonsingular(rng, p, n, maxdeg):
    while True:
        m = rnd_polymat(rng, p, n, n, maxdeg)
        if not determinant(m).is_zero:
            return m


def rnd_unimodular(rng, p, n, steps, maxdeg=2):
    """Product of random elementary row operations applied to the identity."""
    rows = [[Poly.one(p) if i == j else Poly(p) for j in range(n)]
            for i in range(n)]
    for _ in range(steps):
        op = rng.randrange(3) if n > 1 else 2
        if op == 0:
            i, j = rng.sample(range(n), 2)
            f = rnd_poly(rng, p, maxdeg)
            rows[j] = [rows[j][k] + f * rows[i][k] for k in range(n)]
        elif op == 1:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(n)
            c = rng.randrange(1, p)
            rows[i] = [e.scale(c) for e in rows[i]]
    return PolyMat(p, rows)


def rnd_shift(rng, n, lo=-5, hi=5):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def staircase_shift(n, d):
    """(d*n, d*(n-1), ..., d), the shift turning triangular form into a
    shifted Popov form."""
    return tuple(d * (n - i) for i in range(n))


def degree_budget(m):
    """min(sum cdeg M, sum rdeg M), a bound on deg det M."""
    return min(sum(cdeg(m)), sum(rdeg_shifted(m)))


def edge_shifts(n, dmax):
    """Zero, gaps of dmax + 1 (kept by the compression) and dmax + 2
    (shrunk by one), a uniform 10^18 and spreads of 10^18."""
    up = (0,) * (n - 1)
    return [
        None,
        up + (dmax + 1,),
        tuple(i * (dmax + 2) for i in range(n)),
        (10**18,) * n,
        up + (10**18,),
        (-10**18,) + up,
    ]


def diag_degrees(m):
    return tuple(m[i, i].degree for i in range(m.m))


def is_ordered_weak_popov(m, s):
    """s-leading matrix lower triangular with a nonzero diagonal: the
    s-pivot of row i, ties going right, is at column i."""
    lm = leading_matrix_shifted(m, s)
    return all(lm[i, j] == 0 for i in range(m.m) for j in range(i + 1, m.n)) \
        and all(lm[i, i] != 0 for i in range(m.m))


def reduces_to_zero(row, basis, s=None):
    rem = reduce_vector_mod_rowspace(row, basis, s)
    return all(e.is_zero for e in rem)


def rect_popov_ok(m, s=None):
    """Shifted Popov structure for possibly rectangular bases: per row the
    rightmost entry reaching the shifted row degree is the pivot; pivots sit
    in strictly increasing columns, are monic, and strictly dominate the
    degrees of everything else in their column."""
    from pmat import NEG_INF, rdeg_shifted
    if s is None:
        s = (0,) * m.n
    d = rdeg_shifted(m, s)
    pivots = []
    for i, row in enumerate(m.rows):
        if d[i] is NEG_INF:
            return False
        piv = None
        for j, e in enumerate(row):
            if not e.is_zero and e.degree + s[j] == d[i]:
                piv = j
        if row[piv].leading_coeff() != 1:
            return False
        pivots.append((piv, row[piv].degree))
    cols = [c for c, _ in pivots]
    if any(b <= a for a, b in zip(cols, cols[1:])):
        return False
    for i, (c, dd) in enumerate(pivots):
        for i2 in range(m.m):
            if i2 != i and m[i2, c].degree >= dd:
                return False
    return True


def brute_force_approximants(g, tau, dmax):
    """K-basis, as 1 x r PolyMat rows, of every row p with deg <= dmax and
    p * G = 0 mod x^tau_j in each column j.  Plain coefficient kernel."""
    p = g.p
    r = g.m
    width = dmax + 1
    rows = []
    for i in range(r):
        for k in range(width):
            vec = []
            for j in range(g.n):
                e = g[i, j]
                for t in range(tau[j]):
                    vec.append(e.coeff(t - k) if t >= k else 0)
            rows.append(vec)
    out = []
    for krow in ConstMat(p, rows).left_nullspace():
        entries = [list(krow[i * width:(i + 1) * width]) for i in range(r)]
        out.append(PolyMat.from_coeffs(p, [entries]))
    return out


def spy_calls(monkeypatch, modules, attr):
    """Count the calls to modules[0].attr, rebinding it in every module
    listed (a module that imported the function by name holds its own
    reference).  Returns the list of recorded argument tuples."""
    calls = []
    orig = getattr(modules[0], attr)

    def spy(*args):
        calls.append(args)
        return orig(*args)

    for mod in modules:
        monkeypatch.setattr(mod, attr, spy)
    return calls


def spy_leaves(monkeypatch):
    """Per leaf call, [tau0, tau, orders]: the certified order d + 2 + t -
    min(s) capped at the worst-case order tau = 2d + 1 + max(s) - min(s),
    and the orders of the leaf's own column passes (not their halvings)."""
    leaves = []
    in_leaf, depth = [False], [0]
    orig_leaf, orig_col = approx_mod._relation_leaf, approx_mod._col_basis

    def leaf(g, s):
        d, lo = g[len(s), 0].degree, min(s)
        tau = 2 * d + 1 + max(s) - lo
        leaves.append([min(tau, d + 2 + _water_level(s, d) - lo), tau, []])
        in_leaf[0] = True
        try:
            return orig_leaf(g, s)
        finally:
            in_leaf[0] = False

    def col_basis(p, g, sigma, d):
        if in_leaf[0] and not depth[0]:
            leaves[-1][2].append(sigma)
        depth[0] += 1
        try:
            return orig_col(p, g, sigma, d)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(relations_mod, "_relation_leaf", leaf)
    monkeypatch.setattr(approx_mod, "_col_basis", col_basis)
    return leaves


def spy_linearization(monkeypatch):
    """Per residual call, (Pbar, width, alphas): the chunks of P, taken
    from the call's one PolyMat product Pbar * Fbar, and the layout its
    lifting loop is given."""
    seen = []
    orig_rows, orig_mul = division_mod._shift_rem_rows, PolyMat.__mul__

    def rows(div, f, width, alphas):
        seen.append([None, width, tuple(alphas)])
        return orig_rows(div, f, width, alphas)

    def mul(a, b):
        if seen and seen[-1][0] is None:
            seen[-1][0] = a
        return orig_mul(a, b)

    monkeypatch.setattr(division_mod, "_shift_rem_rows", rows)
    monkeypatch.setattr(PolyMat, "__mul__", mul)
    return seen


def expansion_matrix(width, alphas, p):
    """The sum(alphas)-by-len(alphas) matrix whose row for chunk k of
    column i is x^{k*width} e_i; any column expansion Pbar of P with this
    layout satisfies Pbar * E = P."""
    rows = []
    for i, a in enumerate(alphas):
        for k in range(a):
            row = [Poly.zero(p)] * len(alphas)
            row[i] = Poly.mono(p, k * width)
            rows.append(row)
    return PolyMat(p, rows)


# Hypothesis strategies: Hermite moduli, residues reduced modulo them and
# shifts.  Each takes the prime, so a test can sweep the prime classes.

@st.composite
def hermite_moduli(draw, p, max_n=4, max_total=24):
    """A Hermite modulus with n <= max_n coordinates and deg det between n
    and max(n, max_total), drawn by rnd_hermite."""
    n = draw(st.integers(1, max_n))
    total = draw(st.integers(n, max(n, max_total)))
    rng = draw(st.randoms(use_true_random=False))
    h = rnd_hermite(rng, p, n, total)
    if not draw(st.booleans()):
        return h
    # the last diagonal entry with a root below 50, for residues that
    # share a factor with it (reduced_residues)
    rows = [list(r) for r in h.rows]
    deg = rows[-1][-1].degree
    rows[-1][-1] = Poly(p, (-rng.randrange(min(p, 50)), 1)) * Poly(
        p, [rng.randrange(p) for _ in range(deg - 1)] + [1])
    return PolyMat(p, rows)


@st.composite
def reduced_residues(draw, h, max_rows=4):
    """Residues reduced modulo the Hermite h, 1 to max_rows rows: random,
    or with a repeated row, a zero row or every row sharing a factor of
    h's last diagonal entry in the last column."""
    p = h.p
    rng = draw(st.randoms(use_true_random=False))
    m = draw(st.integers(1, max_rows))
    f = rnd_residues(rng, p, m, cdeg(h))
    rows = [list(r) for r in f.rows]
    kind = draw(st.sampled_from(("random", "repeated", "zero", "factor")))
    if kind == "repeated":
        rows[-1] = list(rows[0])
    elif kind == "zero":
        rows[rng.randrange(m)] = [Poly(p)] * h.n
    elif kind == "factor":
        # the last column a multiple of h_nn / (x - r) for a root r below
        # 50 (hermite_moduli makes one), else the draw stays random
        last = h[h.n - 1, h.n - 1]
        root = next((r for r in range(min(p, 50)) if not last(r)), None)
        if root is not None:
            a = last // Poly(p, (-root, 1))
            for row in rows:
                row[-1] = a * Poly(p, (rng.randrange(p),))
    return PolyMat(p, rows)


def shifts(m, max_spread=10**18):
    """Shifts of length m with entries in [-spread, spread], the spread
    drawn from 0, 3, 100, 10^6 and 10^18 (capped at max_spread)."""
    spreads = sorted({min(v, max_spread) for v in (0, 3, 100, 10**6, 10**18)})
    return st.sampled_from(spreads).flatmap(
        lambda spread: st.tuples(*[st.integers(-spread, spread)] * m))
