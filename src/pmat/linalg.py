"""Relation bases through plain linear algebra over F_p.

For a modulus whose residue space has small dimension D, multiplication by
x is a D x D scalar matrix; relations then fall out of a Gaussian sweep
over the terms x^k e_i, visited in increasing shifted order, which lands
directly on the shifted Popov basis."""

import heapq

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import Poly, check_int
from .polymat import PolyMat, _shift_or_zero, is_hermite
from .constmat import ConstMat, vec_mat
from .division import _check_reduced


def _column_degrees_checked(m):
    """Degrees of the diagonal entries of M, which must be in Hermite form
    (is_hermite) with no constant diagonal entry, PreconditionError
    otherwise.  Callers trim unit-diagonal coordinates first."""
    if not is_hermite(m):
        raise PreconditionError("modulus is not in Hermite form")
    sigma = tuple(len(m.rows[j][j].c) - 1 for j in range(m.n))
    if 0 in sigma:
        raise PreconditionError("diagonal entry %d is constant"
                                % sigma.index(0))
    return sigma


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
    sigma = [check_int(v, "degree bound") for v in sigma]
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
    vector E_i X^k is reduced in one forward pass against the echelon
    staircase collected so far; a vanishing reduction closes position i.
    Its tracked combination is x^k e_i minus stored terms, the standard
    monomials smaller in that order, so it is already the unique s-Popov
    row with that leading term and the stored vectors need no back
    reduction.

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
    # (pivot column, vector, expression); each vector vanishes at every
    # earlier pivot, so one pass in storage order reduces a new vector
    stored = []
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
