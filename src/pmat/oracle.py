"""Slow reference implementations used to cross-check the fast routines.

Nothing here calls the division, approximant or relation machinery, or
the fraction-free elimination: the quotient loop peels leading
coefficients one excess degree at a time, relation modules are searched by
plain F_p linear algebra on coefficient vectors, and determinant degrees
are sums of degrees.  Keep it that way, these are the independent
witnesses.

The one thing shared with the fast routines, on purpose, is the constant
elimination constmat.rref (through ConstMat.inverse, ConstMat.left_nullspace
and the vector reduction in polymat).  It is the trusted base: a few lines,
checked exhaustively on every small matrix by tests/test_constmat.py.  A
private naive copy here would only be a second elimination to keep."""

from .errors import PreconditionError, ShapeError, SingularMatrixError
from .poly import NEG_INF, Poly
from .polymat import (
    PolyMat,
    cdeg,
    column_leading_matrix,
    is_popov,
    reduce_vector_mod_rowspace,
)
from .constmat import ConstMat, vec_mat


def _column_data(m):
    if m.m != m.n:
        raise ShapeError("modulus matrix must be square")
    sigma = cdeg(m)
    if any(d is NEG_INF for d in sigma):
        raise PreconditionError("matrix is not column reduced (zero column)")
    try:
        lcinv = column_leading_matrix(m).inverse()
    except SingularMatrixError:
        raise PreconditionError("matrix is not column reduced") from None
    return sigma, lcinv


def naive_quorem(m, f):
    """Quotient and remainder by leading-coefficient elimination: while some
    entry of a row reaches column degree sigma_j plus excess e, cancel the
    whole excess-e slice of that row with one row of multiples of M."""
    sigma, lcinv = _column_data(m)
    if f.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (f.n, m.m))
    p = f.p
    q = [[Poly.zero(p)] * m.n for _ in range(f.m)]
    r = [list(row) for row in f.rows]
    for i in range(f.m):
        while True:
            e = NEG_INF
            for j in range(m.n):
                c = r[i][j].c
                if c and len(c) - 1 - sigma[j] > e:
                    e = len(c) - 1 - sigma[j]
            if e is NEG_INF or e < 0:
                break
            top = [r[i][j].coeff(sigma[j] + e) for j in range(m.n)]
            lam = vec_mat(top, lcinv.rows, p)
            for l, lam_l in enumerate(lam):
                if lam_l:
                    q[i][l] = q[i][l] + Poly.mono(p, e, lam_l)
                    for j in range(m.n):
                        mlj = m.rows[l][j]
                        if mlj.c:
                            r[i][j] = r[i][j] - mlj.scale(lam_l).shift_up(e)
    return PolyMat(p, q), PolyMat(p, r)


def _embed(row, sigma):
    out = []
    for e, sj in zip(row, sigma):
        block = list(e.c)
        block.extend([0] * (sj - len(block)))
        out.extend(block)
    return out


def brute_force_relations(m, f, s, dmax=None):
    """Spanning set of all relation rows of degree at most dmax, found by a
    kernel computation on the coefficient vectors of the residues of
    x^k F_i.  dmax defaults to sum cdeg M, the determinant degree of the
    column reduced M, which covers every row of any minimal relation
    basis.  The shift cannot change the module, so s is accepted only to
    mirror the fast calls."""
    sigma, _ = _column_data(m)
    if f.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (f.n, m.m))
    p = f.p
    mm = f.m
    if dmax is None:
        dmax = sum(sigma)
    rows = []
    cur = naive_quorem(m, f)[1]
    for k in range(dmax + 1):
        if k > 0:
            shifted = PolyMat(
                p, [[e.shift_up(1) for e in row] for row in cur.rows]
            )
            cur = naive_quorem(m, shifted)[1]
        for i in range(mm):
            rows.append(_embed(cur.rows[i], sigma))
    kernel = ConstMat(p, rows).left_nullspace() if rows else []
    out = []
    for vec in kernel:
        row = []
        for i in range(mm):
            coeffs = [vec[k * mm + i] for k in range(dmax + 1)]
            row.append(Poly(p, coeffs))
        out.append(row)
    return PolyMat(p, out) if out else PolyMat.zero(p, 0, mm)


def verify_relation_basis(pbasis, m, f, s):
    """Full independent audit of a claimed relation basis: shifted Popov
    shape, rows annihilate F modulo M, determinant degree within the budget,
    and every brute-force relation reduces to zero against the basis.  The
    degrees of det M and det P are sum cdeg M and P's diagonal degrees."""
    if pbasis.m != pbasis.n or pbasis.n != f.m:
        return False
    if not is_popov(pbasis, s):
        return False
    prod = pbasis * f
    if not naive_quorem(m, prod)[1].is_zero():
        return False
    dmax = sum(_column_data(m)[0])
    if sum(len(pbasis.rows[i][i].c) - 1 for i in range(f.m)) > dmax:
        return False
    span = brute_force_relations(m, f, s, dmax)
    for row in span.rows:
        reduced = reduce_vector_mod_rowspace(row, pbasis, s)
        if any(not e.is_zero for e in reduced):
            return False
    return True
