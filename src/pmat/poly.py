"""Prime-field scalars and dense univariate polynomial arithmetic.

Polynomials are immutable, stored as normalized low-to-high coefficient
tuples over Z/pZ.  The zero polynomial is the empty tuple; its degree is the
explicit sentinel NEG_INF, never -1, so degree comparisons stay well-defined.

Division a = q*b + r, with t = deg a - deg b + 1 quotient coefficients, is
schoolbook, O(t * deg b), unless t and len(b) both reach _NEWTON_LEN.  Then
rev(q) = rev(a) * rev(b)^-1 mod x^t from a Newton series inverse (which
divisions by one b may share), and r = (a - q*b) mod x^deg b from one
product: O(M(t) + M(deg b)) with the Kronecker product M.
"""

import functools
import struct
from math import isqrt
from operator import index

from .errors import PreconditionError, ShapeError

NEG_INF = float("-inf")

# the one size cap: series orders here, rem_of_shifts, truncated_expansion,
# approximant orders and the CLI's inputs (division.MAX_ENTRIES)
MAX_ENTRIES = 10 ** 6

_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by width

# Newton division from this many coefficients in quotient and divisor on.
# Best of 50 (us, 2-vCPU Xeon, CPython 3.11), schoolbook -> Newton at p = 7
# / 1000003 / 2^61-1: q20*b20 59->79 / 59->68 / 118->140, q24*b24 47->55 /
# 79->72 / 157->160, q28*b28 59->57 / 106->78 / 212->182, q97*b24 191->96 /
# 286->156 / 594->463.
_NEWTON_LEN = 24

# deterministic Miller-Rabin witness set: a proof for every n below
# _MR_BOUND (OEIS A014233); from there up is_prime adds a strong Lucas test
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981  # 1287836182261 * 2575672364521


def _jacobi(a, n):
    """Jacobi symbol (a / n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n):
    """Strong Lucas probable-prime test of an odd n > 41 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D / n) = -1,
    P = 1, Q = (1 - D) / 4.  With a strong base-2 Miller-Rabin test this
    is Baillie-PSW, which no known composite passes."""
    if isqrt(n) ** 2 == n:
        return False  # no D exists for a square
    dsc = 5
    while True:
        j = _jacobi(dsc, n)
        if j == -1:
            break
        if j == 0:
            return False  # gcd(D, n) > 1 and |D| < n
        dsc = -dsc - 2 if dsc > 0 else -dsc + 2
    q = (1 - dsc) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # U_k, V_k and Q^k mod n for k the leading bits of d, P = 1
    u, v, qk = 1, 1, q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (dsc * u + v) % n
            u, v = (u + n * (u & 1)) // 2, (v + n * (v & 1)) // 2
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


@functools.lru_cache(maxsize=64)  # every Poly, PolyMat and ConstMat checks p
def is_prime(n):
    """Deterministic below _MR_BOUND; Baillie-PSW from there up."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


def check_modulus(p):
    """Validate a field modulus: prime, at least 2.  Returns it as an int,
    so a numpy integer is accepted as any integral argument is."""
    try:
        q = index(p)
    except TypeError:
        q = 0  # not an integer, so not prime
    if not is_prime(q):
        raise PreconditionError("modulus %r is not prime" % (p,))
    return q


def check_int(v, what, least=None):
    """v as an int, for an argument that must be integral: a float, a
    string or any other value without __index__ raises PreconditionError
    instead of being truncated or parsed, and so does a value below least
    when least is given."""
    try:
        k = index(v)
    except TypeError:
        raise PreconditionError("%s must be an integer, got %r"
                                % (what, v)) from None
    if least is not None and k < least:
        raise PreconditionError("%s must be >= %d" % (what, least))
    return k


def _residues(p, values):
    """values as a tuple of integers reduced mod p, for Poly and ConstMat
    alike: a float, a string or any other value without __index__ raises
    PreconditionError."""
    try:
        return tuple(index(v) % p for v in values)
    except TypeError:
        raise PreconditionError("coefficients must be integers, got %r"
                                % (values,)) from None


def _trim(c):
    n = len(c)
    while n and c[n - 1] == 0:
        n -= 1
    return c[:n]


def slot_width(p, terms):
    """Bytes per Kronecker slot holding a sum of `terms` products of
    residues mod p, so that no slot carries into the next.  Widths up to
    8 are rounded up to 1, 2, 4 or 8, which struct packs in C."""
    w = (((p - 1) * (p - 1) * terms).bit_length() + 7) // 8
    return w if w > 8 else 1 << (w - 1).bit_length()


def pack(coeffs, width):
    """Kronecker substitution: sum_i coeffs[i] * 256^(width*i), coefficients
    low to high, each below 256^width."""
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        raw = struct.pack("<%d%s" % (len(coeffs), fmt), *coeffs)
    else:
        raw = b"".join([c.to_bytes(width, "little") for c in coeffs])
    return int.from_bytes(raw, "little")


def unpack(x, width, n, p):
    """The first n slots of a packed (or packed-product) integer, mod p."""
    size = width * n
    raw = x.to_bytes(max(size, (x.bit_length() + 7) // 8), "little")
    fmt = _SLOT_FORMATS.get(width)
    if fmt:
        slots = struct.unpack_from("<%d%s" % (n, fmt), raw)
    else:
        frm = int.from_bytes
        slots = [frm(raw[i:i + width], "little") for i in range(0, size, width)]
    return [v % p for v in slots]


def mul_coeffs(a, b, p):
    """Product of two coefficient sequences mod p (lists or tuples)."""
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return []
    w = slot_width(p, min(la, lb))
    return unpack(pack(a, w) * pack(b, w), w, la + lb - 1, p)


def _grow_inverse(a, z, t, p):
    """Extend z = a^-1 mod x^len(z), a coefficient list, in place to
    a^-1 mod x^t.  The precisions halve back from t, rounding up, so each
    step at most doubles.  A step from k to k2 reads E = (a*z)[k:k2], the
    part of a*z above the identity, and appends -(z*E mod x^(k2-k)): with
    a*z = 1 + x^k E mod x^k2, the new z has a*z = 1 mod x^k2."""
    steps = []
    while t > len(z):
        steps.append(t)
        t = (t + 1) // 2
    for k2 in reversed(steps):
        k = len(z)
        e = mul_coeffs(a[:k2], z, p)[k:k2]
        dz = mul_coeffs(z[:k2 - k], e, p)[:k2 - k]
        z += [-v % p for v in dz] + [0] * (k2 - k - len(dz))


class Poly:
    """Dense univariate polynomial over Z/pZ."""

    __slots__ = ("p", "c")

    def __init__(self, p, coeffs=()):
        p = self.p = check_modulus(p)
        self.c = _trim(_residues(p, coeffs))

    @classmethod
    def _make(cls, p, trimmed):
        # internal: coefficients already reduced and trimmed
        self = object.__new__(cls)
        self.p = p
        self.c = trimmed
        return self

    @classmethod
    def zero(cls, p):
        return cls._make(p, ())

    @classmethod
    def one(cls, p):
        return cls._make(p, (1,))

    @classmethod
    def const(cls, p, v):
        v = check_int(v, "coefficient") % p
        return cls._make(p, (v,) if v else ())

    @classmethod
    def mono(cls, p, k, v=1):
        k = check_int(k, "exponent", 0)
        v = check_int(v, "coefficient") % p
        return cls._make(p, (0,) * k + (v,) if v else ())

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    @property
    def is_zero(self):
        return not self.c

    def coeff(self, i):
        c = self.c
        return c[i] if 0 <= i < len(c) else 0

    def leading_coeff(self):
        return self.c[-1] if self.c else 0

    def __eq__(self, other):
        return (
            isinstance(other, Poly) and self.p == other.p and self.c == other.c
        )

    def __hash__(self):
        return hash((self.p, self.c))

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        return "Poly(%d, %r)" % (self.p, list(self.c))

    def _check(self, other):
        if self.p != other.p:
            raise ShapeError("modulus mismatch: %d vs %d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        p = self.p
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = (out[i] + v) % p
        return Poly._make(p, _trim(tuple(out)))

    def __sub__(self, other):
        self._check(other)
        p = self.p
        a, b = self.c, other.c
        out = list(a) + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] = (out[i] - v) % p
        return Poly._make(p, _trim(tuple(out)))

    def __neg__(self):
        p = self.p
        return Poly._make(p, tuple((p - v) % p for v in self.c))

    def __mul__(self, other):
        self._check(other)
        return Poly._make(self.p, _trim(tuple(mul_coeffs(self.c, other.c, self.p))))

    def scale(self, v):
        v = check_int(v, "scalar") % self.p
        if v == 0:
            return Poly._make(self.p, ())
        if v == 1:
            return self
        p = self.p
        return Poly._make(p, _trim(tuple(x * v % p for x in self.c)))

    def shift_up(self, k):
        """Multiply by x^k (k >= 0)."""
        k = check_int(k, "shift", 0)
        if not self.c or k == 0:
            return self
        return Poly._make(self.p, (0,) * k + self.c)

    def truncate(self, t):
        """Reduce mod x^t."""
        t = check_int(t, "order")
        if t <= 0:
            return Poly._make(self.p, ())
        return Poly._make(self.p, _trim(self.c[:t]))

    def slice_coeffs(self, lo, hi):
        """Polynomial with coefficients lo..hi-1, shifted down to degree 0;
        the bounds count from the constant term, so neither is negative."""
        lo = check_int(lo, "slice bound", 0)
        hi = check_int(hi, "slice bound", 0)
        return Poly._make(self.p, _trim(self.c[lo:hi]))

    def __divmod__(self, other):
        """Schoolbook or, from _NEWTON_LEN on, Newton (module docstring)."""
        return self._divmod(other, [])

    def _divmod(self, other, inv):
        """divmod with inv = rev(other)^-1 mod x^len(inv), a list (maybe
        empty) shared by divisions by one divisor and extended in place."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        p = self.p
        a, b = self.c, other.c
        db = len(b) - 1
        t = len(a) - db
        if t <= 0:
            return Poly.zero(p), self
        if min(t, db + 1) >= _NEWTON_LEN:
            if not inv:
                inv.append(pow(b[-1], p - 2, p))
            _grow_inverse(b[::-1], inv, t, p)
            q = mul_coeffs(a[:-t - 1:-1], inv[:t], p)[t - 1::-1]
            qb = mul_coeffs(q[:db], b[:db], p)
            r = [(x - y) % p for x, y in zip(a[:db], qb)]
            return Poly._make(p, tuple(q)), Poly._make(p, _trim(tuple(r)))
        a = list(a)
        lc = pow(b[-1], p - 2, p)
        q = [0] * t
        for i in range(len(a) - 1, db - 1, -1):
            cv = a[i]
            if cv:
                cv = cv * lc % p
                q[i - db] = cv
                for j in range(db + 1):
                    a[i - db + j] = (a[i - db + j] - cv * b[j]) % p
        return Poly._make(p, _trim(tuple(q))), Poly._make(p, _trim(tuple(a[:db])))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(pow(self.c[-1], self.p - 2, self.p))

    def reverse(self, d):
        """x^d * a(1/x); requires deg a <= d."""
        d = check_int(d, "reverse bound")
        if len(self.c) - 1 > d:
            raise PreconditionError(
                "reverse bound %d below degree %d" % (d, len(self.c) - 1)
            )
        out = [0] * (d + 1)
        for i, v in enumerate(self.c):
            out[d - i] = v
        return Poly._make(self.p, _trim(tuple(out)))

    def series_inverse(self, t):
        """Inverse mod x^t; requires a(0) != 0 and 1 <= t <= MAX_ENTRIES."""
        t = check_int(t, "order", 1)
        if t > MAX_ENTRIES:
            raise PreconditionError("series order exceeds %d" % MAX_ENTRIES)
        if not self.c or self.c[0] == 0:
            raise PreconditionError("constant term is zero, no series inverse")
        z = [pow(self.c[0], self.p - 2, self.p)]
        _grow_inverse(self.c, z, t, self.p)
        return Poly._make(self.p, _trim(tuple(z)))

    def __call__(self, v):
        v = check_int(v, "evaluation point")
        acc = 0
        for coef in reversed(self.c):
            acc = (acc * v + coef) % self.p
        return acc


def poly_mul(a, b):
    """Exact product; deg = deg a + deg b when both are nonzero."""
    return a * b


def poly_divrem(a, b):
    """Unique (q, r) with a = q*b + r and deg r < deg b; b must be nonzero."""
    return divmod(a, b)


def series_inverse(a, t):
    """Truncated inverse: series_inverse(a,t) * a = 1 mod x^t."""
    return a.series_inverse(t)


def poly_reverse(a, d):
    """Coefficient reversal x^d * a(1/x) for deg a <= d."""
    return a.reverse(d)


def poly_xgcd(a, b):
    """Extended gcd: returns monic g and u, v with u*a + v*b = g."""
    p = a.p
    r0, r1 = a, b
    u0, u1 = Poly.one(p), Poly.zero(p)
    v0, v1 = Poly.zero(p), Poly.one(p)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero:
        return r0, u0, v0
    lc_inv = pow(r0.leading_coeff(), p - 2, p)
    return r0.scale(lc_inv), u0.scale(lc_inv), v0.scale(lc_inv)
