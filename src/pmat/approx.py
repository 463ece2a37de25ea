"""Shifted Popov bases of approximant and kernel modules.

The engine computes ordered weak Popov order bases: starting from the
identity and always eliminating against the nonzero-residual row with the
smallest (shifted degree, index) pair keeps the pivot of row i at column i
throughout, and that property survives the products used by the
divide-and-conquer splitting.  A second pass with the negated pivot degrees
as shift brings every row to shifted degree zero, and one constant inverse
of the leading matrix (normalize_leading) yields the canonical basis.  When
the pivot degrees are known in advance and the shift already is their
negation on the rows that matter, as in the known-degree step of
relations.py, those rows come out of the first pass at degree zero and the
second pass is skipped."""

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import NEG_INF, Poly
from .polymat import (
    PolyMat,
    cdeg,
    const_mul,
    leading_matrix_shifted,
    matmul_trunc,
    vstack,
)
from . import linalg

_BASE_ORDER = 48


def _iter_col_basis(p, gcol, sigma, d):
    """Iterative order basis for a single column at order sigma.

    gcol is a list of Poly; d the current shifted row degrees.  Returns the
    basis rows as mutable coefficient grids along with the updated degrees."""
    k = len(gcol)
    gc = []
    for e in gcol:
        c = list(e.c[:sigma])
        c.extend([0] * (sigma - len(c)))
        gc.append(c)
    prows = [[[1] if i == j else [] for j in range(k)] for i in range(k)]
    dd = list(d)
    for o in range(sigma):
        nz = [i for i in range(k) if gc[i][o]]
        if not nz:
            continue
        piv = min(nz, key=lambda i: (dd[i], i))
        inv = pow(gc[piv][o], p - 2, p)
        gpiv = gc[piv]
        ppiv = prows[piv]
        for i in nz:
            if i == piv:
                continue
            lam = gc[i][o] * inv % p
            gi = gc[i]
            for t in range(o, sigma):
                if gpiv[t]:
                    gi[t] = (gi[t] - lam * gpiv[t]) % p
            pi = prows[i]
            for j in range(k):
                src = ppiv[j]
                if src:
                    dst = pi[j]
                    if len(dst) < len(src):
                        dst.extend([0] * (len(src) - len(dst)))
                    for idx, v in enumerate(src):
                        if v:
                            dst[idx] = (dst[idx] - lam * v) % p
        gc[piv] = [0] + gpiv[: sigma - 1]
        for j in range(k):
            if ppiv[j]:
                ppiv[j] = [0] + ppiv[j]
        dd[piv] += 1
    mat = PolyMat(p, [[Poly(p, e) for e in row] for row in prows])
    return mat, dd


def _col_basis(p, gcol, sigma, d):
    """Order basis for one column, halving the order above the base size."""
    if all(e.truncate(sigma).is_zero for e in gcol):
        return PolyMat.identity(p, len(gcol)), list(d)
    if sigma <= _BASE_ORDER:
        return _iter_col_basis(p, gcol, sigma, d)
    s1 = sigma // 2
    p1, d1 = _col_basis(p, [e.truncate(s1) for e in gcol], s1, d)
    gmat = PolyMat(p, [[e] for e in gcol])
    prod = matmul_trunc(p1, gmat, sigma)
    gtail = [row[0].slice_coeffs(s1, sigma) for row in prod.rows]
    p2, d2 = _col_basis(p, gtail, sigma - s1, d1)
    return p2 * p1, d2


def _order_basis(g, tau, u):
    """Ordered weak Popov basis of the approximants of G at column orders
    tau, starting shift u.  Returns (basis, final shifted degrees)."""
    p = g.p
    k = g.m
    pacc = PolyMat.identity(p, k)
    d = list(u)
    for j in range(g.n):
        t = tau[j]
        if t <= 0:
            continue
        col = PolyMat(p, [[g.rows[i][j]] for i in range(k)])
        gj = [row[0] for row in matmul_trunc(pacc, col, t).rows]
        pj, d = _col_basis(p, gj, t, d)
        pacc = pj * pacc
    return pacc, d


def normalize_leading(basis, shift):
    """Left-multiply a basis by the inverse of its shift-leading matrix.

    For a square basis whose rows all have shift-degree zero with their
    pivots on the diagonal, the result is its shift-Popov form."""
    return const_mul(leading_matrix_shifted(basis, shift).inverse(), basis)


def approximant_basis_popov(g, tau, u):
    """The shifted Popov basis of all rows q with q * G = 0 mod x^tau_j in
    every column j, plus its pivot degrees.

    Two engine passes: the first finds the pivot degrees, the second runs
    with those degrees negated as shift, after which the basis rows all have
    shifted degree zero and normalize_leading makes them canonical."""
    tau = [int(t) for t in tau]
    if len(tau) != g.n:
        raise ShapeError("order count %d, expected %d" % (len(tau), g.n))
    if any(t < 1 for t in tau):
        raise PreconditionError("orders must be >= 1")
    u = [int(v) for v in u]
    if len(u) != g.m:
        raise ShapeError("shift length %d, expected %d" % (len(u), g.m))
    _, dfin = _order_basis(g, tau, u)
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
    u = [int(v) for v in u]
    if len(u) != a.m:
        raise ShapeError("shift length %d, expected %d" % (len(u), a.m))
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
    s = [int(v) for v in s]
    if len(s) != m:
        raise ShapeError("shift length %d, expected %d" % (len(s), m))
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
    entries reduced modulo mpoly.

    Small moduli go through the multiplication-matrix sweep; otherwise one
    kernel computation on [F; mpoly] does it."""
    if f.n != 1:
        raise ShapeError("expected a single column, got %d" % f.n)
    if mpoly.is_zero:
        raise PreconditionError("zero modulus polynomial")
    p = f.p
    m = f.m
    s = [int(v) for v in s]
    if len(s) != m:
        raise ShapeError("shift length %d, expected %d" % (len(s), m))
    d = len(mpoly.c) - 1
    for row in f.rows:
        e = row[0]
        if e.c and len(e.c) - 1 >= d:
            raise PreconditionError("input is not reduced modulo the modulus")
    if d == 0:
        return PolyMat.identity(p, m)
    if d <= m:
        hm = PolyMat(p, [[mpoly.monic()]])
        x = linalg.multiplication_matrix(hm)
        emb = linalg.coefficient_embedding(f, (d,))
        return linalg.relations_from_linear_algebra(emb, x, s)
    return relations_via_kernel(PolyMat(p, [[mpoly]]), f, s)
