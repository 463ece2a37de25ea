"""Division with remainder for polynomial matrices.

Everything here is row-sided: a remainder of F modulo a column reduced
square M is the unique R with F = Q*M + R and cdeg(R) < cdeg(M).
"""

from .errors import PreconditionError, ShapeError
from .poly import NEG_INF
from .polymat import (
    PolyMat,
    cdeg,
    column_leading_matrix,
    column_reversal,
    make_linearization_plan,
    matmul_trunc,
    vstack,
    _expand_with_plan,
)
from .constmat import ConstMat


def _constant_term(m):
    return ConstMat(m.p, [[e.coeff(0) for e in row] for row in m.rows])


def _newton_inverse(m, t):
    """Inverse of M as a power series mod x^t; M(0) must be invertible."""
    p = m.p
    z0 = _constant_term(m).inverse()
    z = PolyMat.from_coeffs(p, [[[v] for v in row] for row in z0.rows])
    prec = 1
    ident = PolyMat.identity(p, m.n)
    while prec < t:
        prec = min(2 * prec, t)
        mz = matmul_trunc(m, z, prec)
        # z <- z*(2I - M z) mod x^prec
        corr = (ident + ident) - mz
        z = matmul_trunc(z, corr, prec)
    return z


def truncated_expansion(f, m, t):
    """F * M^{-1} mod x^t for square M with invertible constant term: one
    Newton inverse of M, then one truncated product."""
    if m.m != m.n:
        raise ShapeError("series inverse of non-square matrix")
    if f.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (f.n, m.m))
    if t <= 0:
        return PolyMat.zero(f.p, f.m, m.n)
    return matmul_trunc(f, _newton_inverse(m, t), t)


def _validated_sigma(m):
    if m.m != m.n:
        raise ShapeError("modulus matrix must be square")
    sigma = cdeg(m)
    if any(d is NEG_INF for d in sigma):
        raise PreconditionError("matrix is not column reduced (zero column)")
    if not column_leading_matrix(m).is_invertible():
        raise PreconditionError("matrix is not column reduced")
    return sigma


def _check_reduced(f, sigma):
    """Check that F is reduced modulo a modulus of column degrees sigma:
    F has len(sigma) columns (else ShapeError) and column j of F has
    degree below sigma_j (else PreconditionError).  Every routine that
    requires reduced residues checks them here."""
    if f.n != len(sigma):
        raise ShapeError("residues have %d columns, expected %d"
                         % (f.n, len(sigma)))
    for dj, sj in zip(cdeg(f), sigma):
        if dj is not NEG_INF and dj >= sj:
            raise PreconditionError("input is not reduced modulo M")


def pm_quorem(m, f, delta):
    """Quotient and remainder of F modulo column reduced M.

    Requires delta >= 1 and cdeg(F) < cdeg(M) + delta.  Returns (Q, R) with
    F = Q*M + R, cdeg(R) < cdeg(M) and deg(Q) < delta.  Q comes from one
    truncated expansion of the column reversals; R = F - Q*M is one plain
    product, whose kernel packs each entry of M at its own length, so M's
    unbalanced column degrees need no slicing."""
    if delta < 1:
        raise PreconditionError("degree gap must be >= 1")
    sigma = _validated_sigma(m)
    if f.m == 0:
        # empty matrices carry no column count, so this is all of the shape
        return PolyMat(f.p, []), PolyMat(f.p, [])
    if f.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (f.n, m.m))
    fd = cdeg(f)
    for dj, sj in zip(fd, sigma):
        if dj is not NEG_INF and dj >= sj + delta:
            raise PreconditionError(
                "column degree %d not below %d + %d" % (dj, sj, delta)
            )
    mhat = column_reversal(m, sigma)
    fhat = column_reversal(f, [delta + sj - 1 for sj in sigma])
    qhat = truncated_expansion(fhat, mhat, delta)
    q = column_reversal(qhat, [delta - 1] * m.n)
    return q, f - q * m


def auto_delta(m, f):
    """Smallest valid degree gap for pm_quorem(M, F, .)."""
    sigma = _validated_sigma(m)
    delta = 1
    for dj, sj in zip(cdeg(f), sigma):
        if dj is not NEG_INF and dj - sj + 1 > delta:
            delta = dj - sj + 1
    return delta


def quorem_auto(m, f):
    return pm_quorem(m, f, auto_delta(m, f))


def rem_of_shifts(m, f, delta, k):
    """The remainders rem(x^{r*delta} F, M) for r = 0 .. 2^k - 1, computed
    by repeated halving: one division at the top shift, then both halves
    share the recursion on a doubled row block.  Requires cdeg F < cdeg M."""
    if delta < 1:
        raise PreconditionError("shift step must be >= 1")
    if k < 0:
        raise PreconditionError("shift count must be >= 0")
    sigma = _validated_sigma(m)
    if f.m:
        # empty matrices carry no column count, as in pm_quorem
        _check_reduced(f, sigma)
    return _rem_of_shifts(m, f, delta, k)


def _rem_of_shifts(m, f, delta, k):
    if k == 0:
        return [f]
    half = 1 << (k - 1)
    shifted = PolyMat(
        f.p, [[e.shift_up(half * delta) for e in row] for row in f.rows]
    )
    _, g = pm_quorem(m, shifted, half * delta)
    both = _rem_of_shifts(m, vstack(f, g), delta, k - 1)
    mrows = f.m
    tops = [
        PolyMat(f.p, b.rows[:mrows]) for b in both
    ]
    bottoms = [
        PolyMat(f.p, b.rows[mrows:]) for b in both
    ]
    return tops + bottoms


def _shift_rem_rows(m, f, width, alphas):
    """Row l of the table holds rem(x^{k*width} F[l,:], M) for k < alphas[l]."""
    table = [[list(f.rows[l])] for l in range(f.m)]
    groups = {}
    for l, a in enumerate(alphas):
        if a > 1:
            kk = (a - 1).bit_length()
            groups.setdefault(kk, []).append(l)
    for kk, idxs in groups.items():
        sub = PolyMat(f.p, [f.rows[l] for l in idxs])
        rems = _rem_of_shifts(m, sub, width, kk)
        for pos, l in enumerate(idxs):
            table[l] = [list(rems[r].rows[pos]) for r in range(alphas[l])]
    return table


def residual(m, pmat, f):
    """rem(P*F, M) without forming P*F: P's columns are sliced to balanced
    chunks, the matching shifted remainders of F's rows are tabulated, and
    one short division finishes.  Requires cdeg F < cdeg M."""
    sigma = _validated_sigma(m)
    if pmat.n != f.m:
        raise ShapeError("inner dimensions %d vs %d" % (pmat.n, f.m))
    if pmat.m == 0:
        return PolyMat(f.p, [])
    if f.m == 0:
        return PolyMat.zero(f.p, pmat.m, m.m)
    _check_reduced(f, sigma)
    deltas = [0 if d is NEG_INF else d for d in cdeg(pmat)]
    plan = make_linearization_plan(deltas)
    pbar = _expand_with_plan(pmat, plan)
    table = _shift_rem_rows(m, f, plan.width, plan.alphas)
    fbar = PolyMat(f.p, [row for rows in table for row in rows])
    g = pbar * fbar
    _, r = pm_quorem(m, g, plan.width)
    return r
