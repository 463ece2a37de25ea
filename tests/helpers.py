"""Seeded instance generators shared across the test modules.

Every generator takes an explicit random.Random so a failing case can be
replayed from the seed written in the test that drew it.
"""

from pmat import (
    ConstMat,
    Poly,
    PolyMat,
    determinant,
    leading_matrix_shifted,
    reduce_vector_mod_rowspace,
)


def schoolbook_mul(a, b):
    """Independent reference product, written without the library dispatch."""
    if not a.c or not b.c:
        return Poly(a.p)
    out = [0] * (len(a.c) + len(b.c) - 1)
    for i, ai in enumerate(a.c):
        for j, bj in enumerate(b.c):
            out[i + j] = (out[i + j] + ai * bj) % a.p
    return Poly(a.p, out)


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
    return PolyMat(p, rows), sigma


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


def expansion_matrix(plan, p):
    """The sum(alphas)-by-original matrix of a linearization plan whose
    row for chunk k of column i is x^{k*width} e_i; any column expansion
    Pbar of P satisfies Pbar * E = P."""
    rows = []
    for i, a in enumerate(plan.alphas):
        for k in range(a):
            row = [Poly.zero(p)] * len(plan.degrees)
            row[i] = Poly.mono(p, k * plan.width)
            rows.append(row)
    return PolyMat(p, rows)
