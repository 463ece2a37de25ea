"""Matrices over F_p[x]: shapes, degrees, shifted forms, products.

Shifted row degrees, leading matrices and the reduced/Popov/Hermite
predicates all follow the same convention: a shift s weights column j by
s_j, the s-degree of a row is max_j(deg M[i][j] + s_j), and zero rows get
the NEG_INF sentinel.
"""

from itertools import accumulate
from operator import mul

import numpy as np

from .errors import InternalInvariantError, PreconditionError, ShapeError
from .poly import (
    NEG_INF,
    Poly,
    check_int,
    check_modulus,
    pack,
    slot_width,
    unpack,
)
from .constmat import ConstMat, rref


class PolyMat:
    __slots__ = ("p", "m", "n", "rows")

    def __init__(self, p, rows):
        rows = tuple(tuple(r) for r in rows)
        p = self.p = check_modulus(p)
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
        m, n = check_int(m, "dimension", 0), check_int(n, "dimension", 0)
        return cls(p, [[z] * n for _ in range(m)])

    @classmethod
    def identity(cls, p, n):
        z, o = Poly.zero(p), Poly.one(p)
        n = check_int(n, "dimension", 0)
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
        return _matmul(self, other)

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
        t = check_int(t, "order")
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


def matmul_trunc(a, b, t):
    """Product mod x^t; inputs are truncated first, so cost tracks t."""
    t = check_int(t, "order")
    return (a.truncate(t) * b.truncate(t)).truncate(t)


def matmul_unbalanced(a, b, degrees):
    """Product A*B, given one degree bound per column of B (ShapeError
    otherwise).  The one product (_array_mul) packs each entry at its own
    length, so B's unbalanced columns need no slicing.  No library code
    calls it; it stays while the benchmark's tracer names it."""
    if len(degrees) != b.n:
        raise ShapeError("%d degree bounds for %d columns"
                         % (len(degrees), b.n))
    return a * b


# below this bound a limb's residue times 2^(64k) mod p fits in uint64
_LIMB_PRIMES = 1 << 32
# below this bound the engine's coefficient arrays are int64: a residue
# product is below 2^62, so approx's base case can let (2^63 - p) // (p - 1)^2
# of them pile up in one slot before it reduces; from here up the arrays
# hold Python ints
_INT64_PRIMES = 1 << 31
# below _INT64_PRIMES, a product of at most this many multiply-adds,
# m*n*k*min(la, lb)*out_len, is one float64 matrix product (_dense_mul);
# 2^20 ran faster with one BLAS thread, but with BLAS threads free such
# products at 998244353 (2 pieces) ran several times slower
_DENSE_MAX = 1 << 18


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


def _pack_array(p, arr, w):
    """Kronecker integers of the entries of a coefficient array, row-major,
    each packed at its own length (_lengths), so no zero padding is packed:
    through one numpy buffer below 2^32, one by one from 2^32 up."""
    runs, lens = arr.reshape(-1, arr.shape[2]), _lengths(arr).reshape(-1)
    if p < _LIMB_PRIMES:
        mask = np.arange(runs.shape[1]) < lens[:, None]
        return _pack_batch(runs[mask], lens.tolist(), w)
    return [pack(c[:n], w) for c, n in zip(runs.tolist(), lens.tolist())]


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
    below 2^32 and Python ints from 2^32 up.  _array_mul sends every
    product from _INT64_PRIMES up and every product past _DENSE_MAX here."""
    cols = [pb[j::n] for j in range(n)]
    prods = [sum(map(mul, pa[i:i + k], col))
             for i in range(0, len(pa), k) for col in cols]
    if p < _LIMB_PRIMES:
        return _unpack_batch(prods, w, full, out_len, p)
    return np.array([unpack(x, w, out_len, p) for x in prods], object)


def _dense_mul(p, a, b, out_len):
    """The first out_len coefficients of the product of int64 coefficient
    arrays a (m x k x la) and b (k x n x lb) with entries in [0, p), as one
    float64 matrix product: the shorter operand (roles swapped by
    transposition when la > lb) is the m x K row block, K = k*la, and the
    other the K x (n*out_len) Toeplitz block whose row (l, s), column
    (j, t) holds b[l, j, t - s], one window view and one copy.

    Exact: each output is a sum of K products x*y, x in [0, 2^w) and y in
    [0, p).  With K*(2^w - 1)*(p - 1) < 2^53, every product and every
    partial sum of these nonnegative terms is an integer below 2^53, which
    float64 holds exactly; so the result is exact in any summation order,
    with or without fused multiply-adds.  w is the largest width meeting
    the bound; below bits(p - 1), the row block is cut into q =
    ceil(bits(p - 1) / w) pieces of w bits, stacked as q*m rows of the
    same product and recombined mod p.  _array_mul keeps K <= _DENSE_MAX =
    2^18, so K*(p - 1) < 2^49 and w >= 4."""
    swap = a.shape[2] > b.shape[2]
    if swap:
        a, b = b.transpose(1, 0, 2), a.transpose(1, 0, 2)
    (m, k, la), (n, lb) = a.shape, b.shape[1:]
    size = k * la
    padded = np.zeros((k, n, out_len + la - 1))
    padded[..., la - 1:la - 1 + lb] = b[..., :out_len]
    # the view [l, s, j, t] -> padded[l, j, la - 1 + t - s]
    sl, sj, st = padded.strides
    toeplitz = np.ndarray((k, la, n, out_len), padded.dtype, padded,
                          (la - 1) * st, (sl, -st, sj, st))
    bits = (p - 1).bit_length()
    w = min(bits, ((2**53 - 1) // (size * (p - 1)) + 1).bit_length() - 1)
    q = -(-bits // w)
    rows = a.reshape(m, size)
    if q > 1:
        rows = np.concatenate([rows >> (r * w) & ((1 << w) - 1)
                               for r in range(q)])
    out = rows.astype(np.float64) @ toeplitz.reshape(size, n * out_len)
    out = out.astype(np.int64).reshape(q, m, n, out_len) % p
    res = out[0]
    for r in range(1, q):
        res = (res + out[r] * pow(2, r * w, p)) % p
    return res.transpose(1, 0, 2) if swap else res


def _lengths(arr):
    """Length of each run along the last axis of arr, trailing zeros cut."""
    return ((arr != 0) * np.arange(1, arr.shape[-1] + 1)).max(
        axis=-1, initial=0)


def _matmul(a, b):
    """The PolyMat product: the product of the coefficient arrays."""
    return _from_array(a.p, _array_mul(a.p, _array_of(a), _array_of(b)))


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
    dtype.  The one product of the package, and the one place that picks a
    path: _dense_mul under the crossover _DENSE_MAX below _INT64_PRIMES,
    else Kronecker packing, each entry at its own length.  Both operands
    are cut to trunc first, and a factor that is then I costs no product:
    the other operand comes back, possibly as a view, so no caller writes
    into a product."""
    if trunc is not None:
        a, b = a[..., :trunc], b[..., :trunc]
    m, k = a.shape[:2]
    n = b.shape[1]
    # the longest entry's length: the last slot's, unless all of it is 0
    la, lb = [x.shape[2] if x[..., -1:].any()
              else int(_lengths(x).max(initial=0)) for x in (a, b)]
    if not (m and n and la and lb):
        return np.zeros((m, n, 0), a.dtype)
    if la == 1 and m == k and (a[..., 0] == np.eye(k, dtype=a.dtype)).all():
        return b
    if lb == 1 and k == n and (b[..., 0] == np.eye(k, dtype=b.dtype)).all():
        return a
    full = la + lb - 1
    out_len = full if trunc is None else min(full, trunc)
    if p < _INT64_PRIMES and m * k * n * min(la, lb) * out_len <= _DENSE_MAX:
        return _dense_mul(p, a[..., :la], b[..., :lb], out_len)
    w = slot_width(p, k * min(la, lb))
    pa, pb = _pack_array(p, a[..., :la], w), _pack_array(p, b[..., :lb], w)
    res = _kronecker(p, pa, pb, k, n, w, full, out_len)
    return res.reshape(m, n, out_len).astype(a.dtype, copy=False)


def _sized(arr, length):
    """A coefficient array cut or padded with zeros to length slots."""
    out = np.zeros(arr.shape[:2] + (length,), arr.dtype)
    out[..., :min(length, arr.shape[2])] = arr[..., :length]
    return out


def _reverse_columns(arr, offsets, length):
    """Slots 0 .. length-1 of the column reversals x^d_j e(1/x) of the
    entries of a coefficient array (deg e <= d_j), as one index map: slot k
    of column j reads slot d_j - k, and zero where that is outside arr."""
    size = arr.shape[2]
    idx = np.subtract.outer(np.array(offsets, np.int64), np.arange(length))
    idx[(idx < 0) | (idx >= size)] = size
    return _sized(arr, size + 1)[:, np.arange(len(offsets))[:, None], idx]


def _newton_inverse(p, a, z, k, t):
    """A^-1 mod x^t for a square coefficient array A, from Z = A^-1 mod x^k
    (k < t).  The precisions halve back from t, rounding up, so each step
    at most doubles.  A step from k to k2 reads E = (A*Z)[k:k2], the part
    of A*Z above the identity, and appends -(Z*E mod x^(k2-k)) after Z:
    with A*Z = I + x^k E mod x^k2, the new Z has A*Z = I mod x^k2."""
    n = a.shape[0]
    steps = []
    while t > k:
        steps.append(t)
        t = (t + 1) // 2
    for k2 in reversed(steps):
        e = _array_mul(p, a, z, k2)[..., k:]
        dz = _array_mul(p, z, e, k2 - k)
        step = np.zeros((n, n, k2), z.dtype)
        step[..., :z.shape[2]] = z
        step[..., k:k + dz.shape[2]] = -dz % p
        z, k = step, k2
    return z


class _Divisor:
    """One square modulus M prepared for repeated division, with a single
    Newton inverse shared by every division made with it.

    For a column reduced M of column degrees sigma the series is the column
    reversal A = x^sigma M(1/x), whose A(0) is M's column leading matrix;
    without sigma it is M itself (truncated_expansion).  Z = A^-1 is held to
    the precision the calls have needed so far, extended by Newton steps
    (_newton_inverse) when a call needs more and read truncated when it
    needs less.  Z starts at precision 1 as the inverse of A(0), which is I
    for every column-reversed Hermite form; _array_mul takes no product
    with such an identity factor."""

    __slots__ = ("p", "sigma", "marr", "a", "z", "k")

    def __init__(self, m, sigma=None, length=None):
        p = self.p = m.p
        self.sigma = sigma
        self.marr = _array_of(m, length)
        a = self.marr
        if sigma is not None:
            a = _reverse_columns(a, sigma, max(sigma, default=0) + 1)
        self.a = a
        eye = np.eye(m.n, dtype=a.dtype)
        a0 = a[..., 0] if a.shape[2] else np.zeros_like(eye)
        if (a0 == eye).all():
            self.z = eye[..., None]
        else:
            self.z = np.array(ConstMat(p, a0.tolist()).inverse().rows,
                              a.dtype)[..., None]
        self.k = 1

    def check(self, f):
        """F, which must be over M's field: every F reaches the divisor
        through here."""
        if f.p != self.p:
            raise ShapeError("modulus mismatch")
        return f

    def _times_inverse(self, b, t):
        """B * Z mod x^t, extending Z to precision t first if needed."""
        if self.k < t:
            self.z = _newton_inverse(self.p, self.a, self.z, self.k, t)
            self.k = t
        return _array_mul(self.p, b, self.z, t)

    def _expand(self, b, t):
        """B * A^-1 mod x^t for a coefficient array B, from Z mod x^h only,
        h = ceil(t/2): the low half is Q0 = B*Z mod x^h, and one Newton step
        on the quotient gives the rest, Q = Q0 + x^h (E*Z mod x^(t-h)) with
        E = ((B - Q0*A) mod x^t) / x^h."""
        h = (t + 1) // 2
        lo = self._times_inverse(b, h)
        if h == t:
            return lo
        back = _array_mul(self.p, lo, self.a, t)
        e = (_sized(b, t) - _sized(back, t))[..., h:] % self.p
        hi = self._times_inverse(e, t - h)
        return np.concatenate((_sized(lo, h), _sized(hi, t - h)), axis=2)

    def expansion(self, f, t):
        """F * A^-1 mod x^t, for t >= 1."""
        farr = _array_of(self.check(f), t)
        return _from_array(self.p, self._expand(farr, t))

    def quorem(self, f, delta):
        """(Q, R) with F = Q*M + R, cdeg R < sigma and deg Q < delta, for F
        with cdeg F < sigma + delta.  Q is the reversal at delta - 1 of
        F^ * A^-1 mod x^delta, F^ = x^(sigma + delta - 1) F(1/x); column j
        of R is (F - Q*M) mod x^sigma_j, from one product Q*M mod
        x^max(sigma)."""
        p, sigma = self.p, self.sigma
        n = len(sigma)
        farr = _array_of(self.check(f))
        fhat = _reverse_columns(farr, [delta + s - 1 for s in sigma], delta)
        q = _reverse_columns(self._expand(fhat, delta), [delta - 1] * n,
                             delta)
        top = max(sigma, default=0)
        r = _sized(farr, top) - _sized(_array_mul(p, q, self.marr, top), top)
        r = np.where(np.arange(top) < np.array(sigma)[:, None], r % p, 0)
        return _from_array(p, q), _from_array(p, r)


def const_mul(c, m):
    """Product of a scalar matrix and a polynomial matrix."""
    if c.p != m.p:
        raise ShapeError("modulus mismatch")
    if c.n != m.m:
        raise ShapeError("inner dimensions %d vs %d" % (c.n, m.m))
    lifted = PolyMat(m.p, [[Poly.const(m.p, v) for v in r] for r in c.rows])
    return _matmul(lifted, m)


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
    Every routine taking a shift checks it here: a non-integral entry
    raises PreconditionError, a wrong length ShapeError."""
    if s is None:
        return [0] * n
    s = [check_int(v, "shift entry") for v in s]
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


def _bareiss(m, col=None):
    """det M and, given col, v = adj(M)*e_col (M*v = det(M)*e_col), by
    fraction-free (Bareiss) elimination on [M | e_col]: O(n^3) polynomial
    products, each step dividing exactly by the previous pivot (sharing one
    inverse); then exact back-substitution (v is polynomial by Cramer).
    Every division checks its remainder.  A singular M gives det 0, no v."""
    if m.m != m.n:
        raise ShapeError("matrix must be square")
    p, n, sign = m.p, m.n, 1
    a = [list(row) + ([] if col is None else [Poly.const(p, i == col)])
         for i, row in enumerate(m.rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if not a[i][k].is_zero), None)
        if piv is None:
            return Poly.zero(p), None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        inv = []  # rev(a[k-1][k-1])^-1, grown by the step's divisions
        for i in range(k + 1, n):
            for j in range(k + 1, len(a[i])):
                t = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = _exact_div(t, a[k - 1][k - 1], inv) if k else t
    d = a[n - 1][n - 1].scale(sign) if n else Poly.one(p)
    v = [None] * n
    for i in reversed(range(n if col is not None else 0)):
        acc = d * a[i][n]
        for j in range(i + 1, n):
            acc = acc - a[i][j] * v[j]
        v[i] = _exact_div(acc, a[i][i])
    return d, v


def _exact_div(a, b, inv=None):
    """a / b, checked exact; inv, if given, is shared as Poly._divmod's."""
    q, r = divmod(a, b) if inv is None else a._divmod(b, inv)
    if not r.is_zero:
        raise InternalInvariantError("inexact fraction-free division")
    return q


def determinant(m):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    return _bareiss(m)[0]


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
