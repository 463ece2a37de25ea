"""Shifted Popov bases of approximant and kernel modules.

The engine computes ordered weak Popov order bases: starting from the
identity and always eliminating against the nonzero-residual row with the
smallest (shifted degree, index) pair keeps the pivot of row i at column i
throughout, and that property survives the products used by the
divide-and-conquer splitting.  An ordered weak Popov basis already has
the canonical pivot degrees, so one pass plus _normalize yields the shifted
Popov basis: each row cancels its largest term reducible by another
row's pivot (_cancel_leading, the leading-term elimination
relations._weak_popov shares) until none is left.
approximant_basis_popov does exactly that; relations.py normalizes its
weak Popov bases the same way.

Inside the engine a matrix is a rows x cols x length coefficient array
reduced mod p (polymat._array_of): int64 below polymat._INT64_PRIMES,
Python ints from there up.  G enters that layout once and the basis
leaves it once, as a PolyMat; in between, truncations and coefficient
slices are array slices, the zero test is any(), and products go
through polymat._array_mul, the package's one product (the PolyMat
product runs it too): one exact float64 matrix product for small int64
arrays, Kronecker packing for the rest.  The M-Basis base case takes each
order's pivot and multipliers on Python ints, then updates all rows in
one rank-1 step if at least half need an update, else each such row.  It
reduces lazily: an update subtracts products of two residues, each at
most (p - 1)^2, so an int64 slot that started in [0, p) stays above
-2^63 for (2^63 - p) // (p - 1)^2 updates (9 at p = 998244353, 2 at
2^31 - 1).  The column and the pivot row are reduced when read, and
the whole array once that many updates have piled up; arrays of Python
ints reduce at every update.

_relation_leaf is the relation pipeline's single-coordinate leaf: one
pass on [F; h] that stops at the order a degree certificate needs and
resumes only when the certificate fails (its docstring has the proof).

kernel_basis_popov, relations_via_kernel and relations_mod_single_poly
are the kernel route.  The relation pipeline never reaches them, so the
tests use them as an independent check of its results."""

import numpy as np

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import NEG_INF, Poly, check_int
from .polymat import (
    PolyMat,
    cdeg,
    is_popov,
    vstack,
    _array_mul,
    _array_of,
    _from_array,
    _lengths,
    _shift_or_zero,
)
from .division import MAX_ENTRIES, _check_reduced

_BASE_ORDER = 48


def _iter_col_basis(p, g, sigma, d):
    """M-Basis for a single column at order sigma, vectorized over rows.

    g is the column as a k x L coefficient array, d the current shifted row
    degrees.  Row i is one flat array: a zero slot, k basis entries of
    sigma + 1 slots, then sigma residual slots, so multiplying a row by x
    is one write.  Each order reads its column as Python ints and
    eliminates against the nonzero-residual row of smallest (degree,
    index); the other nonzero rows need an update, made and reduced as the
    module docstring says.  The update of all rows gives the zero rows
    multiplier 0 and the pivot row 1, and the shift then rewrites it.
    Returns the k x k x (sigma + 1) basis array and the updated degrees."""
    k = len(g)
    width = sigma + 1
    base = 1 + k * width
    rows = np.zeros((k, base + sigma), g.dtype)
    rows[range(k), range(1, base, width)] = 1
    rows[:, base:base + min(sigma, g.shape[1])] = g[:, :sigma]
    headroom = 1 if g.dtype == object else (2**63 - p) // (p - 1) ** 2
    pending = 0
    dd = list(d)
    for o in range(base, base + sigma):
        col = [c % p for c in rows[:, o].tolist()]
        nz = [i for i, c in enumerate(col) if c]
        if not nz:
            continue
        piv = min(nz, key=dd.__getitem__)  # nz is ascending: ties go low
        nz.remove(piv)
        prow = rows[piv] % p
        if nz:
            if pending == headroom:
                rows %= p
                pending = 0
            inv = pow(col[piv], -1, p)
            if 2 * len(nz) >= k:
                lam = np.array([c * inv % p for c in col], rows.dtype)
                rows -= np.multiply.outer(lam, prow)
            else:
                for i in nz:
                    rows[i] -= col[i] * inv % p * prow
            pending += 1
        rows[piv, 1:] = prow[:-1]
        dd[piv] += 1
    return (rows[:, 1:base] % p).reshape(k, k, width), dd


def _extend(p, g, basis, d, s1, sigma):
    """Continue a basis B of column g at order s1, with shifted degrees d,
    to order sigma: the column pass B2 of the residual (B*g) at slots
    s1..sigma - 1, returned as B2*B with B2's final degrees.

    The split point does not matter.  Each elimination on B2 is the one a
    single pass would make on B2*B, with the same pivot rule on the same
    degrees, so the array is the same whatever s1 is."""
    res = _array_mul(p, basis, g[:, None], sigma)[:, 0, s1:]
    b2, d2 = _col_basis(p, res, sigma - s1, d)
    return _array_mul(p, b2, basis), d2


def _col_basis(p, g, sigma, d):
    """Order basis for one column, given as a k x L array, halving the
    order above the base size: the identity when g is zero mod x^sigma,
    plus the updated degrees."""
    g = g[:, :sigma]
    if not g.any():
        return np.eye(len(g), dtype=g.dtype)[..., None], list(d)
    if sigma <= _BASE_ORDER:
        return _iter_col_basis(p, g, sigma, d)
    s1 = sigma // 2
    return _extend(p, g, *_col_basis(p, g, s1, d), s1, sigma)


def _order_basis(g, tau, u):
    """Ordered weak Popov basis of the approximants of G at column orders
    tau, starting shift u.  Returns (basis, final shifted degrees).

    G goes into a coefficient array once and the basis comes out of one;
    every step in between works on arrays."""
    garr = _array_of(g, max(tau, default=0))
    basis = np.eye(g.m, dtype=garr.dtype)[..., None]
    d = list(u)
    for j in range(g.n):
        basis, d = _extend(g.p, garr[:, j], basis, d, 0, tau[j])
    return _from_array(g.p, basis), d


def _water_level(s, d):
    """The least t with sum_i max(0, t - s_i) >= d (d >= 1): on the k
    smallest entries of s, sum_i (t - s_i) >= d from t = ceil((d + their
    sum) / k), the answer once that t is at most the next entry."""
    srt = sorted(s)
    total = 0
    for k, a in enumerate(srt, 1):
        total += a
        t = -(-(d + total) // k)
        if k == len(srt) or t <= srt[k]:
            return t


def _relation_leaf(g, s):
    """The relation rows of one approximant pass on g = [F; h], h a
    polynomial of degree d >= 1 and F an m x 1 block reduced modulo h,
    under the shift s + [min(s)]: an s-ordered weak Popov basis P of the p
    with p*F = 0 mod h, and the final shifted degrees of the pass.

    The order tau = 2d + 1 + max(s) - min(s) suffices even when one row
    takes all d degrees.  A generic relation basis spreads them over the
    rows, to about the water level t of s (_water_level), so the pass
    first stops at tau0 = min(tau, d + 2 + t - min(s)) and certifies
    there.  Certificate: each row [P_i | Q_i] (i < m) of the order-tau0
    basis has deg P_ij + d - 1 < tau0 and deg Q_i + d < tau0.  Then
    P_i*F + Q_i*h has degree below tau0 and is 0 mod x^tau0, so it is 0:
    the first m rows are relations.  They also generate every relation r:
    r = sum c_i B_i over the basis B of the order-tau0 approximants, which
    contain the relations, and r*[F; h] = c_m B_m*[F; h] with
    B_m*[F; h] != 0 (otherwise all m + 1 rows would be relations, whose
    module has rank m), so c_m = 0.  Rows 0..m-1 of an ordered weak Popov
    basis have their pivots at the diagonal, and a relation has
    deg Q_i + d = deg P_i*F, so deg Q_i < max_j deg P_ij: P is an
    s-ordered weak Popov relation basis, whose pivot degrees are the
    canonical ones.

    The proof holds at any tau0; the margin 2 only trades the order a
    certified leaf pays for against how often a leaf resumes, and it is
    measured, not derived.  Of the 308 leaves of the benchmark's stored
    seeds, margin 0 leaves 4 uncertified and 1, 2 and 3 none; of 1005
    leaves of seeded random inputs, degenerate ones included, 241, 158,
    116 and 82 resume at margins 0 to 3 (CHANGES.md has the timings).

    If the certificate fails, the pass resumes from the order-tau0 basis
    to tau with no restart (_extend)."""
    p = g.p
    m = len(s)
    d = g.rows[m][0].degree
    lo = min(s)
    tau = 2 * d + 1 + max(s) - lo
    tau0 = min(tau, d + 2 + _water_level(s, d) - lo)
    garr = _array_of(g, tau)[:, 0]
    basis, dd = _col_basis(p, garr, tau0, list(s) + [lo])
    if tau0 < tau:
        lens = _lengths(basis[:m])  # degrees plus one
        if lens[:, :m].max() > tau0 - d + 1 or lens[:, m].max() > tau0 - d:
            basis, dd = _extend(p, garr, basis, dd, tau0, tau)
    return _from_array(p, basis[:m, :m]), dd


def _cancel_leading(a, b, j, p):
    """Row a minus c*x^k times row b, for the c and k that cancel the
    leading term of a[j] against that of b[j] (deg a[j] >= deg b[j]).
    Rows are lists of trimmed coefficient lists; a changes in place.  The
    one leading-term elimination of _normalize and relations._weak_popov."""
    k = len(a[j]) - len(b[j])
    c = a[j][-1] * pow(b[j][-1], p - 2, p) % p
    for at, bt in zip(a, b):
        if not bt:
            continue
        if len(at) < k + len(bt):
            at.extend([0] * (k + len(bt) - len(at)))
        for t, v in enumerate(bt, k):
            at[t] = (at[t] - c * v) % p
        while at and not at[-1]:
            at.pop()


def _normalize(basis, delta, u):
    """The u-Popov form of a u-ordered weak Popov basis whose diagonal
    entries have degrees delta.  Order the terms x^k e_j of a row by
    (k + u_j, j), the order in which is_popov breaks ties; x^k e_j is
    reducible in row i if j != i and k >= delta_j.  With the pivots made
    monic, each row cancels its largest reducible term against row j
    (_cancel_leading) until it has none.

    Termination.  Row j's largest term is its pivot x^delta_j e_j, so a
    cancellation adds only terms below the one it removes: row i keeps its
    pivot x^delta_i e_i, and its largest reducible term strictly falls.
    The reducible terms below x^delta_i e_i number
        c_i = sum over j != i of max(0, delta_i + u_i - u_j - delta_j + [j < i])
    (k runs from delta_j to delta_i + u_i - u_j, less one if j > i), so
    row i needs at most c_i cancellations; one more raises
    InternalInvariantError.  Each cancellation is unimodular.

    The result must have diagonal degrees delta and be in u-Popov form;
    otherwise InternalInvariantError."""
    p = basis.p
    k = basis.m
    rows = []
    for i, row in enumerate(basis.rows):
        piv = row[i]
        if piv.is_zero or len(piv.c) - 1 != delta[i]:
            raise InternalInvariantError("basis is off its pivot degrees")
        inv = pow(piv.c[-1], p - 2, p)
        rows.append([[v * inv % p for v in e.c] for e in row])
    for i, row in enumerate(rows):
        bound = sum(max(0, delta[i] + u[i] - u[j] - delta[j] + (j < i))
                    for j in range(k) if j != i)
        for steps in range(bound + 1):
            top = max(((len(e) + u[j], j) for j, e in enumerate(row)
                       if j != i and len(e) > delta[j]), default=None)
            if top is None:
                break
            if steps == bound:
                raise InternalInvariantError(
                    "row %d needs over %d cancellations" % (i, bound))
            _cancel_leading(row, rows[top[1]], top[1], p)
    result = PolyMat._make(p, tuple(
        tuple(Poly._make(p, tuple(e)) for e in row) for row in rows))
    if any(len(rows[i][i]) - 1 != delta[i] for i in range(k)) \
            or not is_popov(result, u):
        raise InternalInvariantError("normalization went off its pivots")
    return result


def approximant_basis_popov(g, tau, u):
    """The shifted Popov basis of all rows q with q * G = 0 mod x^tau_j in
    every column j, plus its pivot degrees.

    One engine pass gives an ordered weak Popov basis with the canonical
    pivot degrees; _normalize's leading-term cancellations, with no
    product or division, bring it to shifted Popov form.  PreconditionError
    if rows times the sum of the orders exceeds division.MAX_ENTRIES."""
    tau = [check_int(t, "order") for t in tau]
    if len(tau) != g.n:
        raise ShapeError("order count %d, expected %d" % (len(tau), g.n))
    if any(t < 1 for t in tau):
        raise PreconditionError("orders must be >= 1")
    if g.m * sum(tau) > MAX_ENTRIES:
        raise PreconditionError("%d rows times orders summing to %d exceed %d "
                                "coefficients" % (g.m, sum(tau), MAX_ENTRIES))
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
    dbound = check_int(dbound, "degree budget", 0)
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
