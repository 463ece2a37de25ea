"""Shifted Popov bases of approximant and kernel modules.

The engine computes ordered weak Popov order bases: starting from the
identity and always eliminating against the nonzero-residual row with the
smallest (shifted degree, index) pair keeps the pivot of row i at column i
throughout, and that property survives the products used by the
divide-and-conquer splitting.  The engine forms only what its caller
reads: a degrees-only pass (keep = ()) skips the products down the right
spine of the splitting and the final product.  approximant_basis_popov
runs such a pass first; a second pass with the negated pivot degrees as
shift brings every row to shifted degree zero, and one constant inverse
of the leading matrix (normalize_leading) yields the canonical basis.
The relation pipeline in relations.py calls the engine directly: one
pass finds the pivot degrees of a single-coordinate leaf, forming its
relation block only where the recursion needs a basis, and the
known-degree step, whose shift already is the negation of those
degrees on the rows that matter, gets those rows out of one pass at
degree zero with only their block formed.

kernel_basis_popov, relations_via_kernel and relations_mod_single_poly
are the kernel route.  The relation pipeline never reaches them, so the
tests use them as an independent check of its results."""

import numpy as np

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import NEG_INF, Poly
from .polymat import (
    PolyMat,
    cdeg,
    const_mul,
    leading_matrix_shifted,
    matmul_trunc,
    vstack,
    _shift_or_zero,
)
from .division import _check_reduced

_BASE_ORDER = 48
# below this bound a residue product lam * b is under 2^62, so a - lam * b
# fits in signed 64 bits
_INT64_PRIMES = 1 << 31


def _iter_col_basis(p, gcol, sigma, d):
    """M-Basis for a single column at order sigma, vectorized over rows.

    gcol is a list of Poly; d the current shifted row degrees.  Row i is one
    flat array: k basis entries of sigma + 1 slots, then sigma residual
    slots, so multiplying a row by x shifts it by one slot.  Each order
    eliminates against the nonzero-residual row of smallest (degree, index).
    Returns the basis and the updated degrees."""
    k = len(gcol)
    width = sigma + 1
    base = k * width
    rows = np.zeros((k, base + sigma),
                    dtype=np.int64 if p < _INT64_PRIMES else object)
    for i, e in enumerate(gcol):
        rows[i, i * width] = 1
        c = e.c[:sigma]
        rows[i, base:base + len(c)] = c
    dd = list(d)
    for o in range(base, base + sigma):
        nz = rows[:, o].nonzero()[0].tolist()
        if not nz:
            continue
        piv = min(nz, key=lambda i: (dd[i], i))
        nz.remove(piv)
        if nz:
            lam = rows[nz, o] * pow(int(rows[piv, o]), p - 2, p) % p
            rows[nz] = (rows[nz] - np.multiply.outer(lam, rows[piv])) % p
        rows[piv, 1:] = rows[piv, :-1].copy()
        rows[piv, 0] = 0
        dd[piv] += 1
    block = rows[:, :base].reshape(k, k, width)
    nonzero = block != 0
    lens = np.where(nonzero.any(axis=2),
                    width - nonzero[:, :, ::-1].argmax(axis=2), 0)
    mat = PolyMat(p, [[Poly._make(p, tuple(e[:n])) for e, n in zip(row, ln)]
                      for row, ln in zip(block.tolist(), lens.tolist())])
    return mat, dd


def _rows_of(a, rows):
    """Rows `rows` of a (all if None); None stands for the identity, and
    for no rows at all."""
    if rows == ():
        return None
    if a is None or rows is None:
        return a
    return a.submatrix(rows, range(a.n))


def _col_basis(p, gcol, sigma, d, rows=None):
    """Order basis for one column, halving the order above the base size.

    Returns the rows `rows` of the basis (all if None), or None when they
    are the identity's, which always holds for rows == (); plus the updated
    degrees.  Only the right spine of the recursion sees `rows`, so rows
    nobody reads are never multiplied out."""
    if all(e.truncate(sigma).is_zero for e in gcol):
        return None, list(d)
    if sigma <= _BASE_ORDER:
        basis, dd = _iter_col_basis(p, gcol, sigma, d)
        return _rows_of(basis, rows), dd
    s1 = sigma // 2
    p1, d1 = _col_basis(p, [e.truncate(s1) for e in gcol], s1, d)
    if p1 is not None:
        gmat = PolyMat(p, [[e] for e in gcol])
        gcol = [row[0] for row in matmul_trunc(p1, gmat, sigma).rows]
    gtail = [e.slice_coeffs(s1, sigma) for e in gcol]
    p2, d2 = _col_basis(p, gtail, sigma - s1, d1, rows)
    if p2 is None:
        return _rows_of(p1, rows), d2
    return (p2 if p1 is None else p2 * p1), d2


def _order_basis(g, tau, u, keep=None):
    """Ordered weak Popov basis of the approximants of G at column orders
    tau, starting shift u.  Returns (basis, final shifted degrees).

    keep lists the rows and columns the caller reads: the basis returned is
    its keep x keep block, the whole basis if keep is None and None if keep
    is empty.  The last column's product forms only those rows and
    columns."""
    p = g.p
    k = g.m
    keep = None if keep is None else tuple(keep)
    cols = [j for j in range(g.n) if tau[j] > 0]
    pacc = None  # None stands for the identity
    pj = None
    d = list(u)
    for pos, j in enumerate(cols):
        if pj is not None:
            pacc = pj if pacc is None else pj * pacc
        gj = [g.rows[i][j] for i in range(k)]
        if pacc is not None:
            col = PolyMat(p, [[e] for e in gj])
            gj = [row[0] for row in matmul_trunc(pacc, col, tau[j]).rows]
        last = pos == len(cols) - 1
        pj, d = _col_basis(p, gj, tau[j], d, keep if last else None)
    if keep == ():
        return None, d
    idx = range(k) if keep is None else keep
    if pj is None:
        full = PolyMat.identity(p, k) if pacc is None else pacc
        return full.submatrix(idx, idx), d
    if pacc is None:
        return pj.submatrix(range(pj.m), idx), d
    return pj * pacc.submatrix(range(k), idx), d


def normalize_leading(basis, shift):
    """Left-multiply a basis by the inverse of its shift-leading matrix.

    For a square basis whose rows all have shift-degree zero with their
    pivots on the diagonal, the result is its shift-Popov form."""
    return const_mul(leading_matrix_shifted(basis, shift).inverse(), basis)


def approximant_basis_popov(g, tau, u):
    """The shifted Popov basis of all rows q with q * G = 0 mod x^tau_j in
    every column j, plus its pivot degrees.

    Two engine passes: the first returns the pivot degrees only (no basis
    is formed), the second runs with those degrees negated as shift, after
    which the basis rows all have shifted degree zero and normalize_leading
    makes them canonical."""
    tau = [int(t) for t in tau]
    if len(tau) != g.n:
        raise ShapeError("order count %d, expected %d" % (len(tau), g.n))
    if any(t < 1 for t in tau):
        raise PreconditionError("orders must be >= 1")
    u = _shift_or_zero(u, g.m)
    _, dfin = _order_basis(g, tau, u, ())
    delta = [a - b for a, b in zip(dfin, u)]
    neg = [-dv for dv in delta]
    p2, _ = _order_basis(g, tau, neg)
    basis = normalize_leading(p2, neg)
    for i in range(basis.m):
        piv = basis.rows[i][i]
        if piv.is_zero or len(piv.c) - 1 != delta[i] or piv.leading_coeff() != 1:
            raise InternalInvariantError("pivot degrees drifted between passes")
    return basis, tuple(delta)


def kernel_basis_popov(a, u, dbound):
    """Shifted Popov basis of the left kernel of A, assuming the sum of its
    pivot degrees is at most dbound.

    One approximant call at a uniform order high enough that every
    approximant row of shifted degree within the kernel's reach must
    annihilate A exactly; the spread of u enters the order because a skewed
    shift can hide that reach inside a larger engine degree."""
    if dbound < 0:
        raise PreconditionError("degree budget must be >= 0")
    u = _shift_or_zero(u, a.m)
    maxdeg = a.max_degree()
    if maxdeg is NEG_INF:
        return PolyMat.identity(a.p, a.m)
    spread = max(u) - min(u) if u else 0
    tau = dbound + maxdeg + 1 + spread
    basis, _ = approximant_basis_popov(a, [tau] * a.n, u)
    prod = basis * a
    keep = [i for i in range(basis.m)
            if all(e.is_zero for e in prod.rows[i])]
    return PolyMat(a.p, [basis.rows[i] for i in keep])


def relations_via_kernel(h, f, s):
    """Relation basis through one kernel computation on the stacked matrix
    [F; H]: the kernel rows hide the quotients in their tail columns and the
    leading block is the shifted Popov relation basis."""
    m, n = f.m, f.n
    if h.m != h.n or h.n != n:
        raise ShapeError("modulus block must be square and match F")
    s = _shift_or_zero(s, m)
    dbound = 0
    for dj in cdeg(h):
        if dj is NEG_INF:
            raise PreconditionError("matrix is not column reduced (zero column)")
        dbound += dj
    w = min(s) if s else 0
    u = s + [w] * n
    kern = kernel_basis_popov(vstack(f, h), u, dbound)
    if kern.m != m:
        raise InternalInvariantError("kernel rank %d, expected %d" % (kern.m, m))
    block = kern.submatrix(range(m), range(m))
    for i in range(m):
        piv = block.rows[i][i]
        if piv.is_zero or piv.leading_coeff() != 1:
            raise InternalInvariantError("kernel pivots left the leading block")
    return block


def relations_mod_single_poly(mpoly, f, s):
    """Relation basis for a single-column residue system: F is m x 1 with
    entries reduced modulo mpoly, by one kernel computation on [F; mpoly].

    The relation pipeline does not use this: it rebuilds such leaves at
    known degrees (relations.relations_mod_hermite).  It stays as the
    independent kernel route the tests compare that leaf against."""
    if f.n != 1:
        raise ShapeError("expected a single column, got %d" % f.n)
    if mpoly.is_zero:
        raise PreconditionError("zero modulus polynomial")
    p = f.p
    m = f.m
    s = _shift_or_zero(s, m)
    d = len(mpoly.c) - 1
    _check_reduced(f, [d])
    if d == 0:
        return PolyMat.identity(p, m)
    return relations_via_kernel(PolyMat(p, [[mpoly]]), f, s)
