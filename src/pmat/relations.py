"""Shifted Popov bases of relation modules, Hermite and Popov forms.

The main entry points take a nonsingular modulus matrix M and a residue
block F and return the canonical basis of all rows p with p*F = 0 modulo
the row space of M.  The core works modulo triangular (Hermite) matrices,
and takes every one: a coordinate whose diagonal entry is 1 (all but the
last, in the Hermite form of a generic M) constrains nothing and is
trimmed inside.  The core first compresses the shift, so that the cost
is set by deg det M and not by the size of the shift.  A divide and
conquer on the coordinates then finds the pivot degrees: a
single-coordinate leaf reads them off one approximant pass on [F; h], and
a split solves the first half, shifts the second half by the first half's
pivot degrees and adds the two.  Each first half also forms an ordered
weak Popov basis (the left spine), which gives the split its residual and
stays weak Popov when multiplied; the chain of second halves from the top
(the right spine) computes degrees only.  One known-degree reconstruction
per call then yields the canonical basis.

Set PMAT_VERIFY=1 (or call set_verify) to re-check every produced basis:
shifted Popov shape, vanishing residual, determinant degree budget; and,
for each weak Popov basis of the left spine, the vanishing residual."""

import os

from .errors import (
    InternalInvariantError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from .poly import poly_xgcd
from .polymat import (
    PolyMat,
    collapse_columns,
    expanded_degree_bounds,
    is_hermite,
    is_popov,
    make_linearization_plan,
    vstack,
    _shift_or_zero,
)
from .division import (
    quorem_auto,
    residual,
    _check_reduced,
    _shift_rem_rows,
    _validated_sigma,
)
from .approx import _order_basis, normalize_leading
from .linalg import (
    coefficient_embedding,
    multiplication_matrix,
    relations_from_linear_algebra,
)

_VERIFY = os.environ.get("PMAT_VERIFY", "") not in ("", "0")


def set_verify(enabled):
    """Toggle post-hoc self-checks on every relation basis computation."""
    global _VERIFY
    _VERIFY = bool(enabled)


def _pivot_degrees(p):
    out = []
    for i in range(p.m):
        e = p.rows[i][i]
        if e.is_zero:
            raise InternalInvariantError("zero diagonal entry in a basis")
        out.append(len(e.c) - 1)
    return out


def _verify_basis(p, h, f, s, dmax):
    if not is_popov(p, s):
        raise InternalInvariantError("result is not in shifted Popov form")
    if sum(_pivot_degrees(p)) > dmax:
        raise InternalInvariantError("pivot degrees exceed the modulus size")
    if not f.is_zero() and not residual(h, p, f).is_zero():
        raise InternalInvariantError("result rows are not relations")


def known_degree_relations(m, f, s, delta):
    """Relation basis when the pivot degrees delta are already known.

    The rows of the sought basis are sliced entrywise into chunks of the
    average pivot degree; the matching shifted residues of F's rows and the
    modulus itself are stacked into one approximant problem whose order just
    clears the exact relations, and the canonical basis of that problem
    contains the sliced relation rows at the last chunk of each block.

    One engine pass suffices.  The shift u is already minus the chunk
    degree bounds on the relation columns, so the relation rows come out of
    the pass at u-degree 0 and the modulus rows at u-degree 1.  By the
    predictable-degree property the canonical relation rows are then a
    constant combination of the relation rows alone: the inverse of their
    leading matrix, applied by normalize_leading.  A wrong delta shows up
    as a nonzero degree on a relation row, or as a result off its pivots;
    both raise InternalInvariantError."""
    sigma = _validated_sigma(m)
    _check_reduced(f, sigma)
    mm = f.m
    s = _shift_or_zero(s, mm)
    delta = [int(v) for v in delta]
    if len(delta) != mm:
        raise ShapeError("pivot degree count %d, expected %d"
                         % (len(delta), mm))
    if any(d < 0 for d in delta):
        raise PreconditionError("pivot degrees must be >= 0")
    plan = make_linearization_plan(delta)
    table = _shift_rem_rows(m, f, plan.width, plan.alphas)
    fbar = PolyMat(f.p, [row for rows in table for row in rows])
    system = vstack(fbar, m)
    u = [-b for b in expanded_degree_bounds(plan)] + [-plan.width] * m.n
    tau = [sj + plan.width + 1 for sj in sigma]
    pbig, dfin = _order_basis(system, tau, u, range(plan.total))
    if any(dfin[:plan.total]):
        raise InternalInvariantError(
            "relation rows left shifted degree zero at known degrees"
        )
    pbar = normalize_leading(pbig, u[:plan.total])
    collapsed = collapse_columns(pbar, plan)
    rows = [plan.offsets[i] + plan.alphas[i] - 1 for i in range(mm)]
    result = PolyMat(f.p, [collapsed.rows[r] for r in rows])
    if _pivot_degrees(result) != delta or not is_popov(result, s):
        raise InternalInvariantError(
            "reconstruction at known degrees went off its pivots"
        )
    if _VERIFY:
        _verify_basis(result, m, f, s, sum(sigma))
    return result


def _compress_shift(s, dmax):
    """A shift with the same Popov comparisons as s on entries of degree at
    most dmax: sorted, every gap above dmax + 1 shrunk to dmax + 1, the
    minimum at 0.  A comparison a + s_i vs b + s_j with 0 <= a, b <= dmax
    keeps its sign, so a basis with entries of degree at most dmax is in
    s-Popov form exactly when it is in Popov form at the new shift."""
    order = sorted(range(len(s)), key=s.__getitem__)
    out = [0] * len(s)
    for a, b in zip(order, order[1:]):
        out[b] = out[a] + min(s[b] - s[a], dmax + 1)
    return out


def _relation_pivots(h, f, s, basis):
    """Pivot degrees delta of the s-Popov relation basis of F modulo the
    triangular H, plus, if basis is set, an s-ordered weak Popov relation
    basis with diagonal degrees delta (None otherwise).

    A modulus of total degree at most the row count goes through the
    multiplication-matrix sweep, whose s-Popov basis is returned whether
    basis is set or not.  A single coordinate h takes delta from one
    approximant pass on [F; h], at an order where the relations [p, q]
    (p*F + q*h = 0) are the rows holding the first pivots; their p block
    is the weak Popov basis.  Otherwise the first half of the coordinates
    yields a basis P1, whose residual rem(P1*F, H) is supported on the
    second half; that half is solved under the shift rdeg_s(P1) =
    s + delta1, and P2*P1 is again s-ordered weak Popov with pivot degrees
    delta1 + delta2."""
    mm = f.m
    dims = [len(h.rows[j][j].c) - 1 for j in range(h.n)]
    total = sum(dims)
    if total <= mm:
        p = relations_from_linear_algebra(
            coefficient_embedding(f, dims), multiplication_matrix(h), s)
        return _pivot_degrees(p), p
    if h.n == 1:
        lo = min(s)
        tau = 2 * total + 1 + max(s) - lo
        p, dfin = _order_basis(vstack(f, h), [tau], s + [lo],
                               range(mm) if basis else ())
        delta = [a - b for a, b in zip(dfin, s)]
    else:
        n1 = h.n // 2
        idx1 = range(n1)
        idx2 = range(n1, h.n)
        d1, p1 = _relation_pivots(h.submatrix(idx1, idx1),
                                  f.submatrix(range(mm), idx1), s, True)
        g = residual(h, p1, f).submatrix(range(mm), idx2)
        d2, p2 = _relation_pivots(h.submatrix(idx2, idx2), g,
                                  [a + b for a, b in zip(s, d1)], basis)
        delta = [a + b for a, b in zip(d1, d2)]
        p = p2 * p1 if basis else None
    if basis:
        if _pivot_degrees(p) != delta:
            raise InternalInvariantError(
                "weak Popov relation basis went off its pivot degrees"
            )
        if _VERIFY and not residual(h, p, f).is_zero():
            raise InternalInvariantError("basis rows are not relations")
    return delta, p


def relations_mod_hermite(h, f, s):
    """Relation basis modulo a triangular modulus, by divide and conquer on
    the coordinates, with one known-degree reconstruction at the end.

    Every Hermite H is accepted, and so is an F without rows, whose basis
    is 0 x 0.  A unit diagonal entry makes its column of H a unit vector,
    and the reduced F is zero facing it, so the coordinate constrains
    nothing: its row and column are trimmed first.  The shift is
    then compressed: no entry of the result has degree above
    D = deg det H, so gaps in s beyond D + 1 change no Popov comparison.
    A modulus of total degree at most the row count goes through the
    multiplication-matrix sweep.  Otherwise the recursion finds the pivot
    degrees: down its left spine it carries ordered weak Popov bases,
    which give the residual for the second half and stay weak Popov when
    multiplied; down its right spine it forms no basis at all.  The pivot
    degrees then fix the s-Popov basis, which known_degree_relations
    rebuilds in one pass."""
    if not is_hermite(h):
        raise PreconditionError("modulus is not in triangular normal form")
    s = _shift_or_zero(s, f.m)
    if not f.m:
        return PolyMat(h.p, [])
    dims = [len(h.rows[j][j].c) - 1 for j in range(h.n)]
    _check_reduced(f, dims)
    total = sum(dims)
    kept = [j for j in range(h.n) if dims[j]]
    hk = h.submatrix(kept, kept)
    fk = f.submatrix(range(f.m), kept)
    u = _compress_shift(s, total)
    delta, result = _relation_pivots(hk, fk, u, False)
    if result is None:
        result = known_degree_relations(hk, fk, u, delta)
    if _VERIFY:
        _verify_basis(result, h, f, s, total)
    return result


def hermite_form(m):
    """Triangular canonical form of a nonsingular matrix: upper triangular,
    monic diagonal, above-diagonal entries reduced below the diagonal
    degree.  Row operations only, so the row space is preserved."""
    if m.m != m.n:
        raise ShapeError("matrix must be square")
    p = m.p
    n = m.n
    rows = [list(r) for r in m.rows]
    for j in range(n):
        piv = next(
            (i for i in range(j, n) if not rows[i][j].is_zero), None
        )
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        rows[j], rows[piv] = rows[piv], rows[j]
        for i in range(j + 1, n):
            if rows[i][j].is_zero:
                continue
            g, u, v = poly_xgcd(rows[j][j], rows[i][j])
            a = rows[j][j] // g
            b = rows[i][j] // g
            rj, ri = rows[j], rows[i]
            rows[j] = [u * x + v * y for x, y in zip(rj, ri)]
            rows[i] = [a * y - b * x for x, y in zip(rj, ri)]
    for j in range(n):
        lc = rows[j][j].leading_coeff()
        if lc != 1:
            inv = pow(lc, p - 2, p)
            rows[j] = [e.scale(inv) for e in rows[j]]
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if not q.is_zero:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    return PolyMat(p, rows)


def popov_form(m, s=None):
    """Shifted Popov form of a nonsingular matrix: the canonical shifted
    reduced basis of its row space, which is the relation basis of the
    identity modulo the matrix."""
    if m.m != m.n:
        raise ShapeError("matrix must be square")
    return relation_basis_general(m, PolyMat.identity(m.p, m.n), s)


def relation_basis_general(m, f, s):
    """Relation basis for an arbitrary nonsingular modulus: the Hermite form
    H of M has the same row space, so the relations of F modulo M are those
    of rem(F, H) modulo H.  A unit diagonal entry of H, common for a generic
    M, is trimmed inside relations_mod_hermite."""
    s = _shift_or_zero(s, f.m)
    h = hermite_form(m)
    _, fred = quorem_auto(h, f)
    return relations_mod_hermite(h, fred, s)
