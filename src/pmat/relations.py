"""Shifted Popov bases of relation modules, Hermite and Popov forms.

The main entry points take a nonsingular modulus matrix M and a residue
block F and return the canonical basis of all rows p with p*F = 0 modulo
the row space of M.  The recursive core works modulo triangular (Hermite)
matrices, halving the modulus, shifting by the first half's pivot degrees,
and stitching the halves back with one approximant call at known degrees.
A single-coordinate leaf finds its degrees with one degrees-only
approximant pass and is rebuilt by the same known-degree call.

Set PMAT_VERIFY=1 (or call set_verify) to re-check every produced basis:
shifted Popov shape, vanishing residual, determinant degree budget."""

import os

from .errors import (
    InternalInvariantError,
    PreconditionError,
    ShapeError,
    SingularMatrixError,
)
from .poly import Poly, poly_xgcd
from .polymat import (
    PolyMat,
    collapse_columns,
    expanded_degree_bounds,
    is_hermite,
    is_popov,
    make_linearization_plan,
    vstack,
)
from .division import (
    quorem_auto,
    residual,
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


def _check_reduced(h, f):
    if f.n != h.n:
        raise ShapeError("residues have %d columns, modulus has %d"
                         % (f.n, h.n))
    for j in range(h.n):
        dj = len(h.rows[j][j].c) - 1
        for i in range(f.m):
            e = f.rows[i][j]
            if e.c and len(e.c) - 1 >= dj:
                raise PreconditionError("input is not reduced modulo M")


def _verify_basis(p, h, f, s, dmax):
    if not is_popov(p, s):
        raise InternalInvariantError("result is not in shifted Popov form")
    if sum(_pivot_degrees(p)) > dmax:
        raise InternalInvariantError("pivot degrees exceed the modulus size")
    if not f.is_zero() and not residual(h, p, f).is_zero():
        raise InternalInvariantError("result rows are not relations")


def clean_identity_columns(m, f):
    """Drop the coordinates where M's column is a unit vector.

    Such a column constrains nothing once residues are reduced; the facing
    column of F must therefore already be zero, and removing the matching
    row and column of M leaves the relation module untouched.  Returns the
    trimmed pair plus the indices kept."""
    if m.m != m.n:
        raise ShapeError("modulus matrix must be square")
    if f.n != m.n:
        raise ShapeError("residues have %d columns, modulus has %d"
                         % (f.n, m.n))
    kept = []
    for j in range(m.n):
        col_is_unit = all(
            (m.rows[i][j] == Poly.one(m.p)) if i == j else m.rows[i][j].is_zero
            for i in range(m.m)
        )
        if not col_is_unit:
            kept.append(j)
        else:
            for i in range(f.m):
                if not f.rows[i][j].is_zero:
                    raise PreconditionError(
                        "nonzero residue against a trivial column"
                    )
    n = m.submatrix(kept, kept)
    g = f.submatrix(range(f.m), kept)
    return n, g, tuple(kept)


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
    _check_reduced(m, f)
    mm = f.m
    s = [int(v) for v in s]
    delta = [int(v) for v in delta]
    if len(s) != mm or len(delta) != mm:
        raise ShapeError("shift and degree data must match the row count")
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


def relations_mod_hermite(h, f, s):
    """Relation basis modulo a triangular modulus, by divide and conquer on
    the coordinates.

    A modulus of total degree at most the row count goes through the
    multiplication-matrix sweep.  Every other case finds the pivot degrees
    and then makes one known-degree reconstruction.  A single coordinate h
    takes them from one degrees-only approximant pass on [F; h], at an
    order where the relation rows [p, q] (p*F + q*h = 0) hold the first
    pivots.  Otherwise the first half of the coordinates is solved
    directly; its basis times F leaves a residual supported on the second
    half, which is solved under the shift raised by the first half's pivot
    degrees; the two halves' pivot degrees add up to the exact ones, so the
    halves are never multiplied together."""
    if not is_hermite(h):
        raise PreconditionError("modulus is not in triangular normal form")
    _check_reduced(h, f)
    mm = f.m
    s = [int(v) for v in s]
    if len(s) != mm:
        raise ShapeError("shift length %d, expected %d" % (len(s), mm))
    n = h.n
    dims = [len(h.rows[j][j].c) - 1 for j in range(n)]
    if any(d == 0 for d in dims):
        raise PreconditionError(
            "zero diagonal degree present, clean identity columns first"
        )
    total = sum(dims)
    if n == 0:
        return PolyMat.identity(f.p, mm)
    if total <= mm:
        x = multiplication_matrix(h)
        emb = coefficient_embedding(f, dims)
        result = relations_from_linear_algebra(emb, x, s)
    else:
        if n == 1:
            # kernel_basis_popov's order for [F; h]: at it, the relations
            # [p, q] (p*F + q*h = 0) are the rows holding the first pivots
            lo = min(s)
            tau = 2 * total + 1 + max(s) - lo
            _, dfin = _order_basis(vstack(f, h), [tau], s + [lo], ())
            delta = [a - b for a, b in zip(dfin, s)]
        else:
            n1 = n // 2
            idx1 = range(n1)
            idx2 = range(n1, n)
            h1 = h.submatrix(idx1, idx1)
            p1 = relations_mod_hermite(h1, f.submatrix(range(mm), idx1), s)
            d1 = _pivot_degrees(p1)
            g = residual(h, p1, f).submatrix(range(mm), idx2)
            h2 = h.submatrix(idx2, idx2)
            p2 = relations_mod_hermite(h2, g, [a + b for a, b in zip(s, d1)])
            delta = [a + b for a, b in zip(d1, _pivot_degrees(p2))]
        result = known_degree_relations(h, f, s, delta)
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
    if s is None:
        s = [0] * m.n
    return relation_basis_general(m, PolyMat.identity(m.p, m.n), s)


def relation_basis_general(m, f, s):
    """Relation basis for an arbitrary nonsingular modulus: triangularize,
    reduce F, strip trivial coordinates, then recurse."""
    s = [int(v) for v in s]
    if len(s) != f.m:
        raise ShapeError("shift length %d, expected %d" % (len(s), f.m))
    h = hermite_form(m)
    _, fred = quorem_auto(h, f)
    ncln, g, _ = clean_identity_columns(h, fred)
    if ncln.n == 0:
        result = PolyMat.identity(f.p, f.m)
    else:
        result = relations_mod_hermite(ncln, g, s)
    if _VERIFY:
        _verify_basis(result, h, fred, s,
                      sum(len(h.rows[j][j].c) - 1 for j in range(h.n)))
    return result
