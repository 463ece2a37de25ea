"""Shifted Popov bases of approximant and kernel modules.

The engine computes ordered weak Popov order bases: starting from the
identity and always eliminating against the nonzero-residual row with the
smallest (shifted degree, index) pair keeps the pivot of row i at column i
throughout, and that property survives the products used by the
divide-and-conquer splitting.  The engine forms only the rows and
columns its caller reads (keep), and the last column's product only
those.  An ordered weak Popov basis already has the canonical pivot
degrees, so one pass plus _normalize, which reduces every row by the
pivots of the others, yields the shifted Popov basis:
approximant_basis_popov does exactly that, and the relation pipeline in
relations.py normalizes the weak Popov relation basis its recursion
builds from engine passes on [F; h] in the same way.

Inside the engine a matrix is a rows x cols x length coefficient array
reduced mod p (polymat._array_of): int64 below polymat._INT64_PRIMES,
Python ints from there up.  G enters that layout once and the basis
leaves it once, as a PolyMat; in between, truncations and coefficient
slices are array slices, the zero test is any(), and products go
through polymat._array_mul, which packs and unpacks the arrays with the
same cores as the PolyMat product.  The M-Basis base case reduces
lazily: an update subtracts products of two residues, each at most
(p - 1)^2, so an int64 slot that started in [0, p) stays above -2^63
for (2^63 - p) // (p - 1)^2 updates (9 at p = 998244353, 2 at
2^31 - 1).  The column read at each order and the pivot row are reduced
when used, and the whole array once that many updates have piled up;
arrays of Python ints reduce at every update.

kernel_basis_popov, relations_via_kernel and relations_mod_single_poly
are the kernel route.  The relation pipeline never reaches them, so the
tests use them as an independent check of its results."""

import numpy as np

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import NEG_INF, Poly
from .polymat import (
    PolyMat,
    cdeg,
    is_popov,
    vstack,
    _array_mul,
    _array_of,
    _from_array,
    _shift_or_zero,
)
from .division import _check_reduced

_BASE_ORDER = 48


def _iter_col_basis(p, g, sigma, d):
    """M-Basis for a single column at order sigma, vectorized over rows.

    g is the column as a k x L coefficient array, d the current shifted row
    degrees.  Row i is one flat array: k basis entries of sigma + 1 slots,
    then sigma residual slots, so multiplying a row by x shifts it by one
    slot.  Each order eliminates against the nonzero-residual row of
    smallest (degree, index).  Reduction is lazy: the column read at each
    order and the pivot row are reduced mod p, the other rows only once
    headroom updates have piled up (see the module docstring).  Returns the
    k x k x (sigma + 1) basis array and the updated degrees."""
    k = len(g)
    width = sigma + 1
    base = k * width
    rows = np.zeros((k, base + sigma), g.dtype)
    rows[range(k), range(0, base, width)] = 1
    res = g[:, :sigma]
    rows[:, base:base + res.shape[1]] = res
    headroom = 1 if g.dtype == object else (2**63 - p) // (p - 1) ** 2
    pending = 0
    dd = list(d)
    for o in range(base, base + sigma):
        col = rows[:, o] % p
        nz = col.nonzero()[0].tolist()
        if not nz:
            continue
        piv = min(nz, key=dd.__getitem__)  # nz is ascending: ties go low
        nz.remove(piv)
        prow = rows[piv] % p
        if nz:
            if pending == headroom:
                rows %= p
                pending = 0
            lam = col[nz] * pow(int(col[piv]), p - 2, p) % p
            rows[nz] -= np.multiply.outer(lam, prow)
            pending += 1
        rows[piv, 1:] = prow[:-1]
        rows[piv, 0] = 0
        dd[piv] += 1
    return (rows[:, :base] % p).reshape(k, k, width), dd


def _rows_of(a, rows):
    """Rows `rows` of the array a (all if None); None stands for the
    identity."""
    if a is None or rows is None:
        return a
    return a[list(rows)]


def _col_basis(p, g, sigma, d, rows=None):
    """Order basis for one column, given as a k x L array, halving the
    order above the base size.

    Returns the rows `rows` of the basis array (all if None), or None when
    the basis is the identity; plus the updated degrees.  Only the right
    spine of the recursion sees `rows`, so rows nobody reads are never
    multiplied out."""
    g = g[:, :sigma]
    if not g.any():
        return None, list(d)
    if sigma <= _BASE_ORDER:
        basis, dd = _iter_col_basis(p, g, sigma, d)
        return _rows_of(basis, rows), dd
    s1 = sigma // 2
    p1, d1 = _col_basis(p, g, s1, d)
    if p1 is not None:
        g = _array_mul(p, p1, g[:, None], sigma)[:, 0]
    p2, d2 = _col_basis(p, g[:, s1:], sigma - s1, d1, rows)
    if p2 is None:
        return _rows_of(p1, rows), d2
    return (p2 if p1 is None else _array_mul(p, p2, p1)), d2


def _order_basis(g, tau, u, keep=None):
    """Ordered weak Popov basis of the approximants of G at column orders
    tau, starting shift u.  Returns (basis, final shifted degrees).

    keep lists the rows and columns the caller reads: the basis returned is
    its keep x keep block, the whole basis if keep is None.  The last
    column's product forms only those rows and columns.  G goes into a
    coefficient array once and the basis comes out of one; every step in
    between works on arrays."""
    p = g.p
    k = g.m
    keep = None if keep is None else tuple(keep)
    cols = [j for j in range(g.n) if tau[j] > 0]
    garr = _array_of(g, max((tau[j] for j in cols), default=0))
    pacc = None  # None stands for the identity
    pj = None
    d = list(u)
    for pos, j in enumerate(cols):
        if pj is not None:
            pacc = pj if pacc is None else _array_mul(p, pj, pacc)
        gj = garr[:, j, :tau[j]]
        if pacc is not None:
            gj = _array_mul(p, pacc, gj[:, None], tau[j])[:, 0]
        last = pos == len(cols) - 1
        pj, d = _col_basis(p, gj, tau[j], d, keep if last else None)
    idx = list(range(k) if keep is None else keep)
    if pj is None:
        if pacc is None:
            return PolyMat.identity(p, k).submatrix(idx, idx), d
        return _from_array(p, pacc[idx][:, idx]), d
    if pacc is None:
        return _from_array(p, pj[:, idx]), d
    return _from_array(p, _array_mul(p, pj, pacc[:, idx])), d


def _normalize(basis, delta, u):
    """The u-Popov form of a u-ordered weak Popov basis whose diagonal
    entries have degrees delta, by rounds of reduction.

    Each round sets Q_ij = P_ij quo P_jj wherever i != j and
    deg P_ij >= delta_j, and replaces P by P - Q*P; the loop stops when
    Q = 0.  The pivots are made monic first, which changes no Q's support.

    Termination.  Order the terms x^k e_j of a row by (k + u_j, j), the
    order in which is_popov breaks ties, and call x^k e_j reducible in
    row i if j != i and k >= delta_j.  Row j's largest term is
    x^delta_j e_j.  A round removes every reducible term of row i: of
    P_ij it keeps P_ij rem P_jj, of degree below delta_j, so below
    x^(deg P_ij) e_j.  For each term x^a of Q_ij it adds x^a times the
    other terms of row j, each below x^(a + delta_j) e_j, which is at
    most x^(deg P_ij) e_j.  So every term a round leaves or adds lies
    strictly below the largest reducible term of the row before it, and so
    below x^delta_i e_i: every row keeps its largest term (the diagonal
    keeps its degree and leading coefficient), and the largest reducible
    term of a row strictly falls while the row has any.  The reducible
    terms below x^delta_i e_i number
        c_i = sum over j != i of max(0, delta_i + u_i - u_j - delta_j + [j < i])
    (k runs from delta_j to delta_i + u_i - u_j, less one if j > i), so
    row i takes part in at most c_i rounds with Q != 0, and the loop in at
    most max_i c_i.  A further round raises InternalInvariantError.  The
    result keeps the u-leading matrix unit lower triangular, so its
    determinant has degree sum(delta), that of det P: the transformation
    is unimodular and the rows span the same module.

    The result must have diagonal degrees delta and be in u-Popov form;
    otherwise InternalInvariantError."""
    p = basis.p
    k = basis.m
    bound = max((sum(max(0, delta[i] + u[i] - u[j] - delta[j] + (j < i))
                     for j in range(k) if j != i) for i in range(k)),
                default=0)
    rows = []
    for i, row in enumerate(basis.rows):
        piv = row[i]
        if piv.is_zero or len(piv.c) - 1 != delta[i]:
            raise InternalInvariantError("basis is off its pivot degrees")
        rows.append(tuple(e.scale(pow(piv.c[-1], p - 2, p)) for e in row))
    zero = Poly.zero(p)
    rounds = 0
    while True:
        active = []
        quotients = []
        for i, row in enumerate(rows):
            q = [e // rows[j][j] if j != i and len(e.c) > delta[j] else zero
                 for j, e in enumerate(row)]
            if any(q):
                active.append(i)
                quotients.append(q)
        if not active:
            break
        if rounds == bound:
            raise InternalInvariantError(
                "normalization passed its round bound %d" % bound)
        rounds += 1
        qp = PolyMat._make(p, tuple(map(tuple, quotients))) \
            * PolyMat._make(p, tuple(rows))
        for i, sub in zip(active, qp.rows):
            rows[i] = tuple(a - b for a, b in zip(rows[i], sub))
    result = PolyMat._make(p, tuple(rows))
    if any(len(rows[i][i].c) - 1 != delta[i] for i in range(k)) \
            or not is_popov(result, u):
        raise InternalInvariantError("normalization went off its pivots")
    return result


def approximant_basis_popov(g, tau, u):
    """The shifted Popov basis of all rows q with q * G = 0 mod x^tau_j in
    every column j, plus its pivot degrees.

    One engine pass gives an ordered weak Popov basis with the canonical
    pivot degrees; _normalize brings it to shifted Popov form."""
    tau = [int(t) for t in tau]
    if len(tau) != g.n:
        raise ShapeError("order count %d, expected %d" % (len(tau), g.n))
    if any(t < 1 for t in tau):
        raise PreconditionError("orders must be >= 1")
    u = _shift_or_zero(u, g.m)
    weak, dfin = _order_basis(g, tau, u)
    delta = [a - b for a, b in zip(dfin, u)]
    return _normalize(weak, delta, u), tuple(delta)


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

    The relation pipeline does not use this: it reads such leaves off one
    engine pass (relations.relations_mod_hermite).  It stays as the
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
