"""Division with remainder for polynomial matrices.

Everything here is row-sided: a remainder of F modulo a column reduced
square M is the unique R with F = Q*M + R and cdeg(R) < cdeg(M).

Each public call checks M once and builds one polymat._Divisor for it (the
relation recursion one per block of its checked modulus), which holds
sigma = cdeg(M), the coefficient arrays of M and of its column reversal
M^, and one Newton inverse Z = M^^-1 that every division of the call
shares: the lifting loop of rem_of_shifts and residual divides at its
largest degree gap first, and later divisions read a truncation of Z.  A
block over another prime than M's, or with rows not of M's width, raises
ShapeError where it meets the divisor (_Divisor.check).  The divisor
picks each division's gap delta itself, the one F needs, max(1, cdeg F -
sigma + 1); only pm_quorem takes a gap, its public delta, and checks F
against it at its door.  A division at gap delta needs Z only mod
x^ceil(delta/2): the low half of the reversed quotient is F^ * Z, and one
Newton step on the quotient itself gives the rest.  Since cdeg(R) <
cdeg(M), the remainder needs only the coefficients of Q*M below sigma_j in
column j: one product truncated at max(sigma), not the whole Q*M.
residual slices P into chunks of balanced degree itself (partial column
linearization), and rem_of_shifts and truncated_expansion refuse, before
they allocate, an output larger than MAX_ENTRIES (poly.MAX_ENTRIES), the
size cap the CLI applies to its inputs too.
"""

from .errors import PreconditionError, ShapeError
from .poly import MAX_ENTRIES, NEG_INF, check_int
from .polymat import PolyMat, cdeg, is_column_reduced, _Divisor


def truncated_expansion(f, m, t):
    """F * M^{-1} mod x^t for square M with invertible constant term: the
    quotient step of polymat._Divisor, from an inverse of M mod
    x^ceil(t/2).  rows(F) * cols(M) * t is at most MAX_ENTRIES."""
    t = check_int(t, "order")
    if m.m != m.n:
        raise ShapeError("series inverse of non-square matrix")
    if f.m == 0:
        # empty matrices carry no column count, as in pm_quorem
        return PolyMat(f.p, [])
    if f.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (f.n, m.m))
    if t <= 0:
        return PolyMat.zero(f.p, f.m, m.n)
    if f.m * m.n * t > MAX_ENTRIES:
        raise PreconditionError("expansion exceeds %d coefficients"
                                % MAX_ENTRIES)
    return _Divisor(m, length=t).expansion(f, t)


def _validated_sigma(m):
    if m.m != m.n:
        raise ShapeError("modulus matrix must be square")
    sigma = cdeg(m)
    if not is_column_reduced(m):
        raise PreconditionError("matrix is not column reduced")
    return sigma


def _check_reduced(f, sigma):
    """Check that F is reduced modulo a modulus of column degrees sigma:
    F has len(sigma) columns (else ShapeError) and column j of F has
    degree below sigma_j (else PreconditionError).  Every routine that
    requires reduced residues checks them here."""
    if f.n != len(sigma):
        raise ShapeError("residues have %d columns, expected %d"
                         % (f.n, len(sigma)))
    for dj, sj in zip(cdeg(f), sigma):
        if dj is not NEG_INF and dj >= sj:
            raise PreconditionError("input is not reduced modulo M")


def pm_quorem(m, f, delta):
    """Quotient and remainder of F modulo column reduced M.

    Requires delta >= 1 and cdeg(F) < cdeg(M) + delta.  Returns (Q, R) with
    F = Q*M + R, cdeg(R) < cdeg(M) and deg(Q) < delta, by the division of
    the module docstring."""
    delta = check_int(delta, "degree gap", 1)
    div = _Divisor(m, _validated_sigma(m))
    if f.m:  # empty matrices carry no column count, as in _Divisor.quorem
        for dj, sj in zip(cdeg(div.check(f)), div.sigma):
            if dj >= sj + delta:
                raise PreconditionError("column degree %d not below %d + %d"
                                        % (dj, sj, delta))
    return div.quorem(f)


def quorem_auto(m, f):
    """pm_quorem with no bound on deg F, at the gap F needs."""
    return _Divisor(m, _validated_sigma(m)).quorem(f)


def rem_of_shifts(m, f, delta, k):
    """The remainders rem(x^{r*delta} F, M) for r = 0 .. 2^k - 1, from the
    lifting loop of _shift_rem_rows with 2^k offsets for every row.
    Requires cdeg F < cdeg M.  With e the entry count of F (at least 1),
    the output's e*2^k entries and the e*(2^k - 1)*delta coefficients of
    F shifted by the largest shift must each be at most MAX_ENTRIES
    (PreconditionError, raised before anything is allocated)."""
    delta = check_int(delta, "shift step", 1)
    k = check_int(k, "shift count", 0)
    cells = max(1, f.m * f.n)
    if (k >= MAX_ENTRIES.bit_length() or cells << k > MAX_ENTRIES
            or cells * ((1 << k) - 1) * delta > MAX_ENTRIES):
        raise PreconditionError("shift table exceeds %d" % MAX_ENTRIES)
    sigma = _validated_sigma(m)
    if f.m:
        # empty matrices carry no column count, as in pm_quorem
        _check_reduced(f, sigma)
    table = _shift_rem_rows(_Divisor(m, sigma), f, delta, [1 << k] * f.m)
    return [PolyMat._make(f.p, tuple(rems[r] for rems in table))
            for r in range(1 << k)]


def _shift_rem_rows(div, f, width, alphas):
    """Row l of the table holds rem(x^{r*width} F[l,:], M) for r < alphas[l],
    by high-order lifting: for each step 2^j, largest first, one division
    shifts every remainder found so far whose offset r has r + 2^j <
    alphas[l].  Each offset is reached through its high-bit prefixes, so
    each remainder is computed once, and the first division has the call's
    largest gap and builds the whole inverse."""
    found = [{0: row} for row in div.check(f).rows]
    for j in reversed(range((max(alphas, default=1) - 1).bit_length())):
        step = 1 << j
        todo = [(l, r) for l, rems in enumerate(found) for r in rems
                if r + step < alphas[l]]
        block = PolyMat._make(f.p, tuple(
            tuple(e.shift_up(step * width) for e in found[l][r])
            for l, r in todo))
        _, g = div.quorem(block)
        for (l, r), row in zip(todo, g.rows):
            found[l][r + step] = row
    return [[rems[r] for r in range(a)] for rems, a in zip(found, alphas)]


def residual(m, pmat, f):
    """rem(P*F, M) without forming P*F, for cdeg F < cdeg M: _residual."""
    sigma = _validated_sigma(m)
    if pmat.m == 0:
        # empty matrices carry no column count, as in pm_quorem
        return PolyMat(f.p, [])
    if pmat.n != f.m:
        raise ShapeError("inner dimensions %d vs %d" % (pmat.n, f.m))
    if f.m == 0:
        return PolyMat.zero(f.p, pmat.m, m.m)
    _check_reduced(f, sigma)
    return _residual(_Divisor(m, sigma), pmat, f)


def _residual(div, pmat, f):
    """rem(P*F, M) by M's divisor, for P with rows and F reduced modulo M
    with P.n rows, by partial column linearization (Gupta, Sarkar,
    Storjohann and Valeriote 2012).  With delta_j the degree of column j of
    P (0 if it is zero), w = max(1, ceil(sum(delta) / n)) and alpha_j =
    max(1, ceil(delta_j / w)), each entry of column j is cut into alpha_j
    chunks of w coefficients, the last one holding the rest: at most w + 1
    coefficients, as delta_j <= alpha_j*w.  _shift_rem_rows tabulates the
    matching remainders rem(x^{r*w} F[j,:], M), r < alpha_j, and one
    division of the product of the chunks by that table finishes."""
    deltas = [0 if d is NEG_INF else d for d in cdeg(pmat)]
    w = max(1, -(-sum(deltas) // len(deltas)))
    alphas = [max(1, -(-d // w)) for d in deltas]
    pbar = PolyMat._make(pmat.p, tuple(
        tuple(e.slice_coeffs(r * w, (r + 1) * w if r < a - 1 else len(e.c))
              for e, a in zip(row, alphas) for r in range(a))
        for row in pmat.rows))
    table = _shift_rem_rows(div, f, w, alphas)
    fbar = PolyMat._make(f.p, tuple(row for rows in table for row in rows))
    return div.quorem(pbar * fbar)[1]
