"""Matrices over F_p[x]: shapes, degrees, shifted forms, products.

Shifted row degrees, leading matrices and the reduced/Popov/Hermite
predicates all follow the same convention: a shift s weights column j by
s_j, the s-degree of a row is max_j(deg M[i][j] + s_j), and zero rows get
the NEG_INF sentinel.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import mul

import numpy as np

from .errors import PreconditionError, ShapeError
from .poly import NEG_INF, Poly, check_modulus, pack, slot_width, unpack
from .constmat import ConstMat, rref


class PolyMat:
    __slots__ = ("p", "m", "n", "rows")

    def __init__(self, p, rows):
        rows = tuple(tuple(r) for r in rows)
        self.p = check_modulus(p)
        self.m = len(rows)
        self.n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.n:
                raise ShapeError("ragged rows")
            for e in r:
                if not isinstance(e, Poly) or e.p != p:
                    raise ShapeError("entry is not a polynomial mod %d" % p)
        self.rows = rows

    @classmethod
    def _make(cls, p, rows):
        # internal: rows a tuple of equal-length tuples of Poly mod p
        self = object.__new__(cls)
        self.p = p
        self.m = len(rows)
        self.n = len(rows[0]) if rows else 0
        self.rows = rows
        return self

    @classmethod
    def zero(cls, p, m, n):
        z = Poly.zero(p)
        return cls(p, [[z] * n for _ in range(m)])

    @classmethod
    def identity(cls, p, n):
        z, o = Poly.zero(p), Poly.one(p)
        return cls(p, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_coeffs(cls, p, grid):
        """Build from a grid of low-to-high coefficient lists."""
        return cls(p, [[Poly(p, e) for e in row] for row in grid])

    def to_coeffs(self):
        return [[list(e.c) for e in row] for row in self.rows]

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMat)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return "PolyMat(%d, %r)" % (self.p, self.to_coeffs())

    def _check(self, other):
        if self.p != other.p:
            raise ShapeError("modulus mismatch")

    def __add__(self, other):
        self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError("shape mismatch in add")
        return PolyMat(
            self.p,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        if (self.m, self.n) != (other.m, other.n):
            raise ShapeError("shape mismatch in sub")
        return PolyMat(
            self.p,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        return PolyMat(self.p, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        self._check(other)
        if self.n != other.m:
            raise ShapeError("inner dimensions %d vs %d" % (self.n, other.m))
        return _matmul(self, other, None)

    def transpose(self):
        if not self.rows:
            return PolyMat(self.p, [])
        return PolyMat(self.p, list(zip(*self.rows)))

    def submatrix(self, row_idx, col_idx):
        rows = self.rows
        return PolyMat._make(self.p, tuple(
            tuple(rows[i][j] for j in col_idx) for i in row_idx))

    def truncate(self, t):
        """Entrywise reduction mod x^t."""
        return PolyMat._make(self.p, tuple(
            tuple(e.truncate(t) for e in r) for r in self.rows))

    def max_degree(self):
        d = NEG_INF
        for r in self.rows:
            for e in r:
                if e.c and len(e.c) - 1 > d:
                    d = len(e.c) - 1
        return d

    def is_zero(self):
        return all(e.is_zero for r in self.rows for e in r)


def vstack(a, b):
    if a.p != b.p or a.n != b.n:
        raise ShapeError("stack mismatch")
    return PolyMat._make(a.p, a.rows + b.rows)


def matmul(a, b):
    """Plain polynomial matrix product."""
    return a * b


def _is_identity(a):
    return a.m == a.n and all(
        e.c == ((1,) if i == j else ())
        for i, row in enumerate(a.rows) for j, e in enumerate(row)
    )


def matmul_trunc(a, b, t):
    """Product mod x^t; inputs are truncated first, so cost tracks t.

    An identity factor costs no product.  Newton inversion starts at
    M(0)^-1, which is the identity for every column-reversed Hermite
    modulus."""
    a._check(b)
    if a.n != b.m:
        raise ShapeError("inner dimensions %d vs %d" % (a.n, b.m))
    if _is_identity(a):
        return b.truncate(t)
    if _is_identity(b):
        return a.truncate(t)
    return _matmul(a, b, t)


# below this bound a limb's residue times 2^(64k) mod p fits in uint64
_LIMB_PRIMES = 1 << 32
# below this bound the engine's coefficient arrays are int64: a residue
# product is below 2^62, so approx's base case can let (2^63 - p) // (p - 1)^2
# of them pile up in one slot before it reduces; from here up the arrays
# hold Python ints
_INT64_PRIMES = 1 << 31


def _pack_batch(flat, lens, w):
    """Kronecker integers of consecutive runs of lens[i] coefficients of
    the 1-D array flat (each below 2^32) at w bytes per slot, through one
    numpy buffer; empty runs give 0.  Widths up to 8 are 1, 2, 4 or 8
    (slot_width), a numpy dtype each."""
    if w <= 8:
        raw = flat.astype("<u%d" % w, copy=False)
    else:
        raw = np.zeros((len(flat), w), np.uint8)
        flat = flat.astype("<u8", copy=False)
        raw[:, :8] = flat.view(np.uint8).reshape(-1, 8)
    mv = memoryview(raw).cast("B")
    frm = int.from_bytes
    return [frm(mv[(end - n) * w:end * w], "little") if n else 0
            for n, end in zip(lens, accumulate(lens))]


def _pack_seqs(p, cs, w):
    """Kronecker integers of coefficient sequences at w bytes per slot:
    through one numpy buffer below 2^32, one by one from 2^32 up."""
    if p < _LIMB_PRIMES:
        lens = list(map(len, cs))
        flat = np.fromiter(chain.from_iterable(cs), "<u8", sum(lens))
        return _pack_batch(flat, lens, w)
    return [pack(c, w) for c in cs]


def _pack_array(p, arr, w):
    """Kronecker integers of the entries of a coefficient array, row-major."""
    runs = arr.reshape(-1, arr.shape[2])
    if p < _LIMB_PRIMES:
        return _pack_batch(runs.reshape(-1), [runs.shape[1]] * len(runs), w)
    return _pack_seqs(p, runs.tolist(), w)


def _unpack_batch(xs, w, full, out_len, p):
    """The first out_len slots of each packed product (at most full slots
    of w bytes) mod p, as a len(xs) x out_len uint64 array.  A slot wider
    than 8 bytes is read as 8-byte limbs, limb k weighted by 2^(64k) mod p."""
    count = len(xs)
    raw = b"".join([x.to_bytes(full * w, "little") for x in xs])
    q = np.uint64(p)
    if w <= 8:
        slots = np.frombuffer(raw, "<u%d" % w).reshape(count, full)
        return slots[:, :out_len] % q
    nl = -(-w // 8)
    limbs = np.zeros((count, out_len, 8 * nl), np.uint8)
    limbs[..., :w] = np.frombuffer(raw, np.uint8).reshape(
        count, full, w)[:, :out_len]
    limbs = limbs.view("<u8")
    res = limbs[..., 0] % q
    for k in range(1, nl):
        res += limbs[..., k] % q * np.uint64(pow(2, 64 * k, p)) % q
    res %= q
    return res


def _kronecker(p, pa, pb, k, n, w, full, out_len):
    """The products, row-major, of an m x k and a k x n matrix given by
    their packed entries: a 2-D array of out_len residues per entry, uint64
    below 2^32 and Python ints from 2^32 up."""
    cols = [pb[j::n] for j in range(n)]
    prods = [sum(map(mul, pa[i:i + k], col))
             for i in range(0, len(pa), k) for col in cols]
    if p < _LIMB_PRIMES:
        return _unpack_batch(prods, w, full, out_len, p)
    return np.array([unpack(x, w, out_len, p) for x in prods], object)


def _lengths(arr):
    """Length of each run along the last axis of arr, trailing zeros cut."""
    return ((arr != 0) * np.arange(1, arr.shape[-1] + 1)).max(
        axis=-1, initial=0)


def _matmul(a, b, trunc):
    p = a.p
    if a.n == 0 or a.m == 0 or b.n == 0:
        return PolyMat.zero(p, a.m, b.n)
    da, db = a.max_degree(), b.max_degree()
    if da is NEG_INF or db is NEG_INF:
        return PolyMat.zero(p, a.m, b.n)
    if trunc is not None:
        da, db = min(da, trunc - 1), min(db, trunc - 1)
        if da < 0 or db < 0:
            return PolyMat.zero(p, a.m, b.n)
    la, lb = da + 1, db + 1
    full = la + lb - 1
    out_len = full if trunc is None else min(full, trunc)
    # Kronecker substitution: each output slot sums a.n * min(la, lb) products
    w = slot_width(p, a.n * min(la, lb))
    pa = _pack_seqs(p, [e.c[:la] for r in a.rows for e in r], w)
    pb = _pack_seqs(p, [e.c[:lb] for r in b.rows for e in r], w)
    res = _kronecker(p, pa, pb, a.n, b.n, w, full, out_len)
    return _from_array(p, res.reshape(a.m, b.n, out_len))


# ---------------------------------------------------------------------------
# coefficient arrays: the order-basis engine's own layout


def _array_of(a, length=None):
    """The m x n x L coefficient array of a, L the length of its longest
    entry (at most length); int64 below _INT64_PRIMES, Python ints above."""
    size = max((len(e.c) for r in a.rows for e in r), default=0)
    if length is not None:
        size = min(size, length)
    out = np.zeros((a.m, a.n, size),
                   np.int64 if a.p < _INT64_PRIMES else object)
    for i, row in enumerate(a.rows):
        for j, e in enumerate(row):
            c = e.c[:size]
            out[i, j, :len(c)] = c
    return out


def _from_array(p, arr):
    """The PolyMat of an m x n x L coefficient array reduced mod p."""
    make = Poly._make
    return PolyMat._make(p, tuple(
        tuple(make(p, tuple(e[:n])) for e, n in zip(row, lens))
        for row, lens in zip(arr.tolist(), _lengths(arr).tolist())))


def _array_mul(p, a, b, trunc=None):
    """Product of coefficient arrays reduced mod p, a m x k x la and b
    k x n x lb, mod x^trunc if trunc is set: an m x n x L array of the same
    dtype.  It packs, multiplies and unpacks as _matmul does."""
    m, k = a.shape[:2]
    n = b.shape[1]
    la = int(_lengths(a).max(initial=0))
    lb = int(_lengths(b).max(initial=0))
    if trunc is not None:
        la, lb = min(la, trunc), min(lb, trunc)
    if not (m and n and la and lb):
        return np.zeros((m, n, 0), a.dtype)
    full = la + lb - 1
    out_len = full if trunc is None else min(full, trunc)
    w = slot_width(p, k * min(la, lb))
    pa, pb = _pack_array(p, a[..., :la], w), _pack_array(p, b[..., :lb], w)
    res = _kronecker(p, pa, pb, k, n, w, full, out_len)
    return res.reshape(m, n, out_len).astype(a.dtype, copy=False)


def const_mul(c, m):
    """Product of a scalar matrix and a polynomial matrix."""
    if c.p != m.p or c.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (c.n, m.m))
    lifted = PolyMat(m.p, [[Poly.const(m.p, v) for v in r] for r in c.rows])
    return _matmul(lifted, m, None)


# ---------------------------------------------------------------------------
# degrees, leading matrices, form predicates


def cdeg(m):
    """Column degrees; zero columns give NEG_INF."""
    out = []
    for j in range(m.n):
        d = NEG_INF
        for i in range(m.m):
            e = m.rows[i][j]
            if e.c and len(e.c) - 1 > d:
                d = len(e.c) - 1
        out.append(d)
    return tuple(out)


def _shift_or_zero(s, n):
    """The shift s as a list of n ints; None stands for the zero shift.
    Every routine taking a shift checks it here."""
    if s is None:
        return [0] * n
    s = [int(v) for v in s]
    if len(s) != n:
        raise ShapeError("shift length %d, expected %d" % (len(s), n))
    return s


def rdeg_shifted(m, s=None):
    """Shifted row degrees: max_j(deg M[i][j] + s_j), NEG_INF on zero rows."""
    s = _shift_or_zero(s, m.n)
    out = []
    for row in m.rows:
        d = NEG_INF
        for e, sj in zip(row, s):
            if e.c:
                v = len(e.c) - 1 + sj
                if v > d:
                    d = v
        out.append(d)
    return tuple(out)


def leading_matrix_shifted(m, s=None):
    """Entry (i,j) is the coefficient of M[i][j] at degree d_i - s_j,
    where d_i is the shifted row degree; zero rows give zero rows."""
    s = _shift_or_zero(s, m.n)
    d = rdeg_shifted(m, s)
    out = []
    for row, di in zip(m.rows, d):
        if di is NEG_INF:
            out.append([0] * m.n)
        else:
            out.append([e.coeff(di - sj) for e, sj in zip(row, s)])
    return ConstMat(m.p, out) if m.n else ConstMat(m.p, [[] for _ in m.rows])


def column_leading_matrix(m):
    """Entry (i,j) is the coefficient of M[i][j] at the column degree of j."""
    d = cdeg(m)
    out = []
    for row in m.rows:
        out.append(
            [e.coeff(dj) if dj is not NEG_INF else 0 for e, dj in zip(row, d)]
        )
    return ConstMat(m.p, out)


def is_reduced(m, s=None):
    """Shifted row reducedness: the s-leading matrix has full row rank."""
    if m.m > m.n:
        return False
    lm = leading_matrix_shifted(m, s)
    return lm.rank() == m.m


def is_column_reduced(m):
    if m.n > m.m:
        return False
    return column_leading_matrix(m).rank() == m.n


def is_popov(m, s=None):
    """Shifted Popov test for square matrices: the s-leading matrix is unit
    lower triangular and every diagonal entry strictly dominates the degrees
    in its column."""
    if m.m != m.n:
        return False
    if not leading_matrix_shifted(m, s).is_unit_lower_triangular():
        return False
    # column dominance: row-leading matrix of the transpose is the identity
    return leading_matrix_shifted(m.transpose()).is_identity()


def is_hermite(m):
    """Upper triangular, monic diagonal, above-diagonal entries of strictly
    smaller degree than the diagonal entry of their column."""
    if m.m != m.n:
        return False
    for j in range(m.n):
        d = m.rows[j][j]
        if d.is_zero or d.leading_coeff() != 1:
            return False
        dd = len(d.c) - 1
        for i in range(m.m):
            if i > j:
                if not m.rows[i][j].is_zero:
                    return False
            elif i < j:
                e = m.rows[i][j]
                if e.c and len(e.c) - 1 >= dd:
                    return False
    return True


def column_reversal(m, offsets):
    """Reverse column j at offset d_j: entries become x^{d_j} e(1/x)."""
    offsets = tuple(offsets)
    if len(offsets) != m.n:
        raise ShapeError("offset length %d, expected %d" % (len(offsets), m.n))
    return PolyMat(
        m.p,
        [[e.reverse(dj) for e, dj in zip(row, offsets)] for row in m.rows],
    )


def determinant(m):
    """Exact determinant by Laplace expansion over column subsets.
    Exponential in the dimension; meant for small matrices and checks."""
    if m.m != m.n:
        raise ShapeError("determinant of non-square matrix")
    p = m.p
    if m.n == 0:
        return Poly.one(p)
    dp = {0: Poly.one(p)}
    for r in range(m.n):
        ndp = {}
        for mask, val in dp.items():
            for j in range(m.n):
                bit = 1 << j
                if mask & bit:
                    continue
                e = m.rows[r][j]
                if e.is_zero:
                    continue
                inv = bin(mask >> (j + 1)).count("1")
                term = (val * e) if inv % 2 == 0 else (val * -e)
                key = mask | bit
                if key in ndp:
                    ndp[key] = ndp[key] + term
                else:
                    ndp[key] = term
        dp = ndp
        if not dp:
            return Poly.zero(p)
    return dp.get((1 << m.n) - 1, Poly.zero(p))


# ---------------------------------------------------------------------------
# partial column linearization


@dataclass(frozen=True)
class LinearizationPlan:
    """How columns get sliced into chunks of balanced degree.

    Column i of the original matrix becomes alphas[i] consecutive columns;
    every chunk but the last holds `width` coefficients and the last holds
    the rest."""

    width: int
    degrees: tuple
    alphas: tuple


def make_linearization_plan(degrees):
    """Slices of width the average degree bound, rounded up (at least 1)."""
    degrees = tuple(int(d) for d in degrees)
    if any(d < 0 for d in degrees):
        raise PreconditionError("negative degree bound in linearization plan")
    width = max(1, -(-sum(degrees) // len(degrees))) if degrees else 1
    alphas = tuple(max(1, -(-d // width)) for d in degrees)
    return LinearizationPlan(width, degrees, alphas)


def _check_plan(m, plan):
    if len(plan.degrees) != m.n:
        raise ShapeError("plan covers %d columns, matrix has %d"
                         % (len(plan.degrees), m.n))


def _expand_with_plan(m, plan):
    _check_plan(m, plan)
    w = plan.width
    rows_out = []
    for row in m.rows:
        out = []
        for e, a in zip(row, plan.alphas):
            for k in range(a):
                lo = k * w
                hi = lo + w if k < a - 1 else len(e.c)
                out.append(e.slice_coeffs(lo, max(hi, lo)))
        rows_out.append(out)
    return PolyMat(m.p, rows_out)


def matmul_unbalanced(a, b, plan):
    """Product A*B, where plan must cover B's columns (ShapeError
    otherwise).  The one kernel packs each entry at its own length, so B's
    unbalanced columns need no slicing.  No library code calls it; it
    stays while the benchmark's tracer names it."""
    _check_plan(b, plan)
    return a * b


# ---------------------------------------------------------------------------
# vector reduction against a shifted-reduced row space


def reduce_vector_mod_rowspace(v, m, s=None):
    """Repeatedly cancel the s-leading term of v against rows of M.

    M must be s-reduced.  The result has no cancellable leading term; it is
    zero exactly when v lies in the row space of M.  Returns a Poly tuple."""
    s = _shift_or_zero(s, m.n)
    v = tuple(v)
    if len(v) != m.n:
        raise ShapeError("vector length %d, expected %d" % (len(v), m.n))
    if not is_reduced(m, s):
        raise PreconditionError("matrix is not shifted-reduced")
    p = m.p
    t = rdeg_shifted(m, s)
    lm = leading_matrix_shifted(m, s)
    while True:
        d = NEG_INF
        for e, sj in zip(v, s):
            if e.c and len(e.c) - 1 + sj > d:
                d = len(e.c) - 1 + sj
        if d is NEG_INF:
            return v
        active = [i for i in range(m.m) if t[i] is not NEG_INF and t[i] <= d]
        if not active:
            return v
        lv = [e.coeff(d - sj) for e, sj in zip(v, s)]
        lam = _solve_left([lm.rows[i] for i in active], lv, p)
        if lam is None:
            return v
        new_v = list(v)
        for li, i in zip(lam, active):
            if li:
                shift = d - t[i]
                for j in range(m.n):
                    e = m.rows[i][j]
                    if e.c:
                        new_v[j] = new_v[j] - e.scale(li).shift_up(shift)
        v = tuple(new_v)


def _solve_left(rows, target, p):
    """Solve lam * rows = target over F_p; None when inconsistent."""
    k = len(rows)
    # transpose the system: rows^T * lam^T = target^T
    a = [[row[j] for row in rows] + [t] for j, t in enumerate(target)]
    pivots = rref(a, p, k)
    if any(row[k] for row in a[len(pivots):]):
        return None
    lam = [0] * k
    for row, c in zip(a, pivots):
        lam[c] = row[k]
    return lam
