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
pivot degrees and adds the two.  Every call also forms an ordered weak
Popov basis with those pivot degrees: a first half's basis gives the
split its residual, and the product of the two halves' bases is again
ordered weak Popov.  Normalizing the top basis (approx._normalize) then
yields the canonical basis.

Set PMAT_VERIFY=1 (or call set_verify) to re-check every produced basis:
shifted Popov shape, vanishing residual, determinant degree budget; and,
for each weak Popov basis of the recursion, the vanishing residual."""

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
    is_hermite,
    is_popov,
    vstack,
    _shift_or_zero,
)
from .division import (
    quorem_auto,
    residual,
    _check_reduced,
    _validated_sigma,
)
from .approx import _normalize, _order_basis
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
    """Relation basis of F modulo the column reduced M, checked against
    pivot degrees delta that are already known.

    A degree check over relation_basis_general, the one relation
    pipeline.  No library code calls it; it stays while the benchmark's
    tracer names it.  F must be reduced modulo M, and delta must hold one
    nonnegative degree per row of F (typed errors otherwise).  A delta
    off the pivot degrees of the s-Popov basis raises
    InternalInvariantError."""
    _check_reduced(f, _validated_sigma(m))
    s = _shift_or_zero(s, f.m)
    delta = [int(v) for v in delta]
    if len(delta) != f.m:
        raise ShapeError("pivot degree count %d, expected %d"
                         % (len(delta), f.m))
    if any(d < 0 for d in delta):
        raise PreconditionError("pivot degrees must be >= 0")
    result = relation_basis_general(m, f, s)
    if _pivot_degrees(result) != delta:
        raise InternalInvariantError(
            "pivot degrees differ from the known degrees"
        )
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


def _relation_pivots(h, f, s):
    """Pivot degrees delta of the s-Popov relation basis of F modulo the
    triangular H, plus an s-ordered weak Popov relation basis with diagonal
    degrees delta.

    A modulus of total degree at most the row count goes through the
    multiplication-matrix sweep, whose s-Popov basis is returned.  A single
    coordinate h takes delta from one approximant pass on [F; h], at an
    order where the relations [p, q] (p*F + q*h = 0) are the rows holding
    the first pivots; their p block is the weak Popov basis.  Otherwise the
    first half of the coordinates yields a basis P1, whose residual
    rem(P1*F, H) is supported on the second half; that half is solved under
    the shift rdeg_s(P1) = s + delta1, and P2*P1 is again s-ordered weak
    Popov with pivot degrees delta1 + delta2."""
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
        p, dfin = _order_basis(vstack(f, h), [tau], s + [lo], range(mm))
        delta = [a - b for a, b in zip(dfin, s)]
    else:
        n1 = h.n // 2
        idx1 = range(n1)
        idx2 = range(n1, h.n)
        d1, p1 = _relation_pivots(h.submatrix(idx1, idx1),
                                  f.submatrix(range(mm), idx1), s)
        g = residual(h, p1, f).submatrix(range(mm), idx2)
        d2, p2 = _relation_pivots(h.submatrix(idx2, idx2), g,
                                  [a + b for a, b in zip(s, d1)])
        delta = [a + b for a, b in zip(d1, d2)]
        p = p2 * p1
    if _pivot_degrees(p) != delta:
        raise InternalInvariantError(
            "weak Popov relation basis went off its pivot degrees"
        )
    if _VERIFY and not residual(h, p, f).is_zero():
        raise InternalInvariantError("basis rows are not relations")
    return delta, p


def relations_mod_hermite(h, f, s):
    """Relation basis modulo a triangular modulus, by divide and conquer on
    the coordinates, with one normalization at the end.

    Every Hermite H is accepted, and so is an F without rows, whose basis
    is 0 x 0.  A unit diagonal entry makes its column of H a unit vector,
    and the reduced F is zero facing it, so the coordinate constrains
    nothing: its row and column are trimmed first.  The shift is
    then compressed: no entry of the result has degree above
    D = deg det H, so gaps in s beyond D + 1 change no Popov comparison.
    A modulus of total degree at most the row count goes through the
    multiplication-matrix sweep.  Otherwise the recursion finds the pivot
    degrees together with an ordered weak Popov basis on them: the first
    half's basis gives the residual for the second half, and the two
    halves' bases multiply to the basis of the whole.  _normalize reduces
    the top basis to the s-Popov basis."""
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
    delta, weak = _relation_pivots(hk, fk, u)
    result = _normalize(weak, delta, u)
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
