"""Relation bases through plain linear algebra over F_p.

For a modulus whose residue space has small dimension D, multiplication by
x is a D x D scalar matrix; relations then fall out of a Gaussian sweep
over the terms x^k e_i, visited in increasing shifted order, which lands
directly on the shifted Popov basis."""

import heapq

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import Poly
from .polymat import PolyMat, _shift_or_zero
from .constmat import ConstMat, vec_mat
from .division import _check_reduced


def _column_degrees_checked(m):
    """Per-column degree of the diagonal entry, validating that it is monic
    and strictly dominates its column.  This holds for both Hermite forms
    and 0-Popov matrices, the two shapes fed to the residue machinery."""
    if m.m != m.n:
        raise ShapeError("modulus matrix must be square")
    sigma = []
    for j in range(m.n):
        d = m.rows[j][j]
        if d.is_zero or d.leading_coeff() != 1:
            raise PreconditionError("diagonal entry %d is not monic" % j)
        dd = len(d.c) - 1
        if dd < 1:
            raise PreconditionError("diagonal entry %d is constant" % j)
        for i in range(m.m):
            e = m.rows[i][j]
            if i != j and e.c and len(e.c) - 1 >= dd:
                raise PreconditionError(
                    "column %d is not dominated by its diagonal entry" % j
                )
        sigma.append(dd)
    return tuple(sigma)


def multiplication_matrix(m):
    """The D x D matrix of multiplication by x on residues modulo M, in the
    coefficient basis that stacks, per coordinate i, the monomials
    x^0 e_i .. x^{sigma_i - 1} e_i."""
    p = m.p
    sigma = _column_degrees_checked(m)
    n = m.n
    offs = []
    acc = 0
    for sj in sigma:
        offs.append(acc)
        acc += sj
    dim = acc
    rows = []
    for i in range(n):
        si = sigma[i]
        for k in range(si):
            if k + 1 < si:
                row = [0] * dim
                row[offs[i] + k + 1] = 1
            else:
                # x^{sigma_i} e_i reduces to x^{sigma_i} e_i - row i of M
                row = []
                for j in range(n):
                    e = m.rows[i][j]
                    block = [(-v) % p for v in e.c]
                    if j == i:
                        block = block[: sigma[j]]  # drop the monic top term
                    block.extend([0] * (sigma[j] - len(block)))
                    row.extend(block)
            rows.append(row)
    return ConstMat(p, rows)


def coefficient_embedding(f, sigma):
    """Rows of F dumped into coefficient vectors: entry (i,j) contributes
    its sigma_j coefficients.  Entries must satisfy deg F[i][j] < sigma_j."""
    sigma = [int(v) for v in sigma]
    _check_reduced(f, sigma)
    rows = []
    for frow in f.rows:
        row = []
        for e, sj in zip(frow, sigma):
            row.extend(e.c)
            row.extend([0] * (sj - len(e.c)))
        rows.append(row)
    return ConstMat(f.p, rows)


def relations_from_linear_algebra(e, x, s):
    """Shifted Popov relation basis from the embedded rows E and the
    multiplication matrix X.

    Terms x^k e_i are swept in increasing (k + s_i, i) order.  Each term's
    vector E_i X^k is reduced against the staircase collected so far; a
    vanishing reduction closes position i and its tracked combination is the
    basis row, monic with tail supported on strictly smaller terms.

    This online sweep is deliberately not constmat.rref: it reduces one
    vector at a time, in an order that depends on which positions have
    closed, and carries polynomial expressions along with the vectors."""
    p = e.p
    m = e.m
    dim = e.n
    if x.m != x.n or x.n != dim:
        raise ShapeError("multiplication matrix is %dx%d, expected %dx%d"
                         % (x.m, x.n, dim, dim))
    s = _shift_or_zero(s, m)
    cur = [list(r) for r in e.rows]
    emitted = [None] * m
    stored = []  # (pivot column, vector, expression), mutually Jordan-reduced
    heap = [(s[i], i, 0) for i in range(m)]
    heapq.heapify(heap)
    done = 0
    while done < m:
        if not heap:
            raise InternalInvariantError("term queue drained early")
        _, i, k = heapq.heappop(heap)
        if k > dim:
            raise InternalInvariantError(
                "term degree passed the residue dimension"
            )
        vred = list(cur[i])
        expr = [[] for _ in range(m)]
        expr[i] = [0] * k + [1]
        for c, vec, vexpr in stored:
            lam = vred[c]
            if lam:
                for t in range(dim):
                    if vec[t]:
                        vred[t] = (vred[t] - lam * vec[t]) % p
                _expr_sub(expr, vexpr, lam, p)
        if any(vred):
            piv = next(t for t in range(dim) if vred[t])
            inv = pow(vred[piv], p - 2, p)
            vred = [v * inv % p for v in vred]
            expr = [[c * inv % p for c in col] for col in expr]
            for c, vec, vexpr in stored:
                lam = vec[piv]
                if lam:
                    for t in range(dim):
                        if vred[t]:
                            vec[t] = (vec[t] - lam * vred[t]) % p
                    _expr_sub(vexpr, expr, lam, p)
            stored.append((piv, vred, expr))
            cur[i] = vec_mat(cur[i], x.rows, p)
            heapq.heappush(heap, (k + 1 + s[i], i, k + 1))
        else:
            emitted[i] = expr
            done += 1
    return PolyMat(p, [[Poly(p, col) for col in expr] for expr in emitted])


def _expr_sub(dst, src, lam, p):
    for col_d, col_s in zip(dst, src):
        if col_s:
            if len(col_d) < len(col_s):
                col_d.extend([0] * (len(col_s) - len(col_d)))
            for idx, v in enumerate(col_s):
                if v:
                    col_d[idx] = (col_d[idx] - lam * v) % p
