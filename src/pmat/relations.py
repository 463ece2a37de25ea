"""Shifted Popov bases of relation modules, Hermite and Popov forms.

The main entry points take a nonsingular modulus matrix M and a residue
block F and return the canonical basis of all rows p with p*F = 0 modulo
the row space of M.  The core works modulo triangular (Hermite) matrices,
and takes every one: a coordinate whose diagonal entry is 1 constrains
nothing and is trimmed inside.  The core first compresses the shift, so
that the cost is set by deg det M and not by the size of the shift.  A
divide and conquer on the coordinates then finds the pivot degrees: a
single-coordinate leaf reads them off one approximant pass on [F; h],
which stops at the order a degree certificate needs
(approx._relation_leaf has the proof); a block of several coordinates
with D <= m, D its total degree and m the row count, goes through the
multiplication-matrix sweep (the paper's linear-algebra base case); and
a split solves the first half, shifts the second half by the first
half's pivot degrees and adds the two.

Every call also forms an ordered weak Popov basis with those pivot
degrees: a first half's basis gives the split its residual, and the
product of the two halves' bases is again ordered weak Popov.
Normalizing the top basis (approx._normalize, by leading-term
cancellations) then yields the canonical basis.

relation_basis_general reaches the core without a Hermite form of M: one
adjugate column v gives the part d1 of d = det M coprime to gcd(d, v) as
a diagonal modulus (Neiger), and a Hermite form modulo the rest d2, mostly
1, gives the other part (Domich-Kannan-Trotter); CRT joins the two.

popov_form needs no Hermite form either.  Its shift is compressed the same way,
with dmax = min(sum cdeg M, sum rdeg M) >= deg det M in place of D,
which is sound because no entry of the s-Popov form has degree above
deg det M.  Mulders-Storjohann simple transformations then bring M
itself to weak Popov form and _normalize makes it canonical; both
eliminate with the one approx._cancel_leading.

Set PMAT_VERIFY=1 (or call set_verify) to re-check every produced basis:
shifted Popov shape, vanishing residual, determinant degree budget; and,
for each weak Popov basis of the recursion, the vanishing residual.
popov_form's result must also equal the relation basis of the identity
modulo M."""

import os
from functools import reduce

from .errors import (
    InternalInvariantError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from .poly import Poly, check_int, poly_xgcd
from .polymat import (
    PolyMat,
    cdeg,
    is_hermite,
    is_popov,
    rdeg_shifted,
    vstack,
    _bareiss,
    _shift_or_zero,
)
from .division import (
    quorem_auto,
    residual,
    _check_reduced,
    _validated_sigma,
)
from .approx import _cancel_leading, _normalize, _relation_leaf
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
    delta = [check_int(v, "pivot degree") for v in delta]
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

    A single coordinate h takes delta from one approximant pass on [F; h]
    (approx._relation_leaf, which holds the certificate for the order it
    stops at): the relations [p, q] (p*F + q*h = 0) are the rows holding
    the first pivots, and their p block is the weak Popov basis.  Several
    coordinates of total degree at most the row count, and the empty
    block, go through the multiplication-matrix sweep, whose s-Popov
    basis is returned.  Otherwise the first half of the coordinates
    yields a basis P1, whose residual rem(P1*F, H) is supported on the
    second half; that half is solved under the shift rdeg_s(P1) =
    s + delta1, and P2*P1 is again s-ordered weak Popov with pivot
    degrees delta1 + delta2."""
    mm = f.m
    dims = [len(h.rows[j][j].c) - 1 for j in range(h.n)]
    total = sum(dims)
    if h.n != 1 and total <= mm:
        p = relations_from_linear_algebra(
            coefficient_embedding(f, dims), multiplication_matrix(h), s)
        return _pivot_degrees(p), p
    if h.n == 1:
        p, dfin = _relation_leaf(vstack(f, h), s)
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
    Several coordinates with D <= m, m the row count, go through the
    multiplication-matrix sweep, and a single coordinate through one
    certified approximant pass.  Otherwise the recursion finds the pivot
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
    return _hermite_sweep(m.p, [list(r) for r in m.rows], m.n)


def _hermite_sweep(p, rows, n, mod=None):
    """Hermite form of the row space of the stacked rows, n columns, by xgcd
    eliminations.  With mod, the stack holds mod*e_k, untouched until
    column k, so entries right of the current column may be reduced modulo
    mod: degrees stay below 2*deg mod (Domich-Kannan-Trotter)."""
    for j in range(n):
        piv = next(
            (i for i in range(j, len(rows)) if not rows[i][j].is_zero), None
        )
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        rows[j], rows[piv] = rows[piv], rows[j]
        for i in range(j + 1, len(rows)):
            if rows[i][j].is_zero:
                continue
            g, u, v = poly_xgcd(rows[j][j], rows[i][j])
            a = rows[j][j] // g
            b = rows[i][j] // g
            rj, ri = rows[j], rows[i]
            rows[j] = [u * x + v * y for x, y in zip(rj, ri)]
            rows[i] = [a * y - b * x for x, y in zip(rj, ri)]
            if mod is not None:
                for r in (rows[i], rows[j]):
                    r[j + 1:] = [e % mod for e in r[j + 1:]]
    for j in range(n):
        lc = rows[j][j].leading_coeff()
        if lc != 1:
            inv = pow(lc, p - 2, p)
            rows[j] = [e.scale(inv) for e in rows[j]]
        for i in range(j):
            q = rows[i][j] // rows[j][j]
            if not q.is_zero:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[j])]
    return PolyMat(p, rows[:n])


def _weak_popov(m, u):
    """An ordered u-weak Popov basis of the row space of the square M, by
    Mulders-Storjohann simple transformations.

    While two rows share a u-pivot column, the one of larger pivot degree
    loses its leading term to c*x^k times the other.  That lowers its
    u-row degree or moves its pivot left, and no u-row degree ever grows,
    so no entry exceeds deg M plus the spread of u.  A zero row means M
    is singular (SingularMatrixError).  Once the pivots are distinct, row
    i is the row with pivot column i."""
    p = m.p
    rows = [[list(e.c) for e in row] for row in m.rows]
    owner = {}  # pivot column -> row
    todo = list(range(m.m))
    while todo:
        i = todo.pop()
        # the u-pivot: largest (degree + u_j, j), so ties go right
        piv = max(((len(e) + uj, j) for j, (e, uj)
                   in enumerate(zip(rows[i], u)) if e), default=None)
        if piv is None:
            raise SingularMatrixError("matrix is singular")
        j = piv[1]
        k = owner.setdefault(j, i)
        if k == i:
            continue
        if len(rows[i][j]) < len(rows[k][j]):
            owner[j] = i
            i, k = k, i
        _cancel_leading(rows[i], rows[k], j, p)
        todo.append(i)
    return PolyMat._make(p, tuple(
        tuple(Poly._make(p, tuple(e)) for e in rows[owner[j]])
        for j in range(m.n)))


def popov_form(m, s=None):
    """Shifted Popov form of a nonsingular matrix: the canonical shifted
    reduced basis of its row space, which is the relation basis of the
    identity modulo the matrix.

    Every entry of the s-Popov form has degree at most deg det M, which
    is at most dmax = min(sum cdeg M, sum rdeg M); so the shift is
    compressed to gaps of at most dmax + 1 (_compress_shift) with no
    change to the result.  Simple transformations bring M to weak Popov
    form at the compressed shift (_weak_popov) and _normalize makes that
    canonical.  A singular M raises SingularMatrixError.  Under
    PMAT_VERIFY the result must equal relation_basis_general(M, I, s)."""
    if m.m != m.n:
        raise ShapeError("matrix must be square")
    s = _shift_or_zero(s, m.n)
    # a zero row or column adds 0; M is singular then, and _weak_popov
    # raises
    dmax = min(sum(max(d, 0) for d in degs)
               for degs in (cdeg(m), rdeg_shifted(m)))
    u = _compress_shift(s, dmax)
    weak = _weak_popov(m, u)
    result = _normalize(weak, _pivot_degrees(weak), u)
    if _VERIFY and result != relation_basis_general(
            m, PolyMat.identity(m.p, m.n), s):
        raise InternalInvariantError(
            "weak Popov route differs from the relation basis of I")
    return result


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a.monic()


def relation_basis_general(m, f, s):
    """Relation basis for any nonsingular modulus M, without its Hermite
    form.  One fraction-free solve gives d = det M (monic) and v =
    adj(M)*e_{n-1}; d = d1*d2 with d1 the largest divisor of d coprime to
    gcd(d, v).  L = rowspace(M) contains d*K[x]^n, so by CRT L is
    (L + d1*K[x]^n) meet (L + d2*K[x]^n).  The first is {q : q*v = 0 mod
    d1}: it lies inside, and both have index deg d1, as gcd(v, d1) = 1.
    The second has Hermite form H2 (_hermite_sweep on [M; d2*I] mod d2).
    So F's relations are those of [rem(F, H2) | F*v mod d1] modulo
    diag(H2, d1); d2 = 1 for a generic M (H2 = I, rem(F, H2) = 0, no
    sweep), and the call is one leaf on [d].
    Under PMAT_VERIFY the result must equal the hermite_form(M) route."""
    s = _shift_or_zero(s, f.m)
    p, n, zero = m.p, m.n, Poly.zero(m.p)
    if f.m and f.n != n:
        raise ShapeError("residues have %d columns, expected %d" % (f.n, n))
    d, v = _bareiss(m, n - 1)
    if d.is_zero:
        raise SingularMatrixError("matrix is singular")
    d = d.monic()
    d1, g = d, reduce(_gcd, v, d)
    while g.degree > 0:
        d1 = d1 // g
        g = _gcd(d1, g)
    d2 = d // d1
    if d2.degree:
        h2 = _hermite_sweep(p, [[e % d2 for e in row] for row in m.rows] + [
            [e * d2 for e in row] for row in PolyMat.identity(p, n).rows],
            n, d2)
        r2 = quorem_auto(h2, f)[1].rows
    else:
        h2, r2 = PolyMat.identity(p, n), [[zero] * n] * f.m
    fv = f * PolyMat(p, [[e] for e in v]) if f.n else PolyMat.zero(p, f.m, 1)
    r1 = quorem_auto(PolyMat(p, [[d1]]), fv)[1].rows
    f2 = [list(a) + list(b) for a, b in zip(r2, r1)]
    result = relations_mod_hermite(
        PolyMat(p, [list(r) + [zero] for r in h2.rows] + [[zero] * n + [d1]]),
        PolyMat(p, f2), s)
    if _VERIFY:
        hm = hermite_form(m)
        if result != relations_mod_hermite(hm, quorem_auto(hm, f)[1], s):
            raise InternalInvariantError("the two routes differ")
    return result
