"""Dense scalar matrices over Z/pZ with exact Gaussian elimination."""

from .errors import ShapeError, SingularMatrixError
from .poly import _residues, check_int, check_modulus


class ConstMat:
    __slots__ = ("p", "m", "n", "rows")

    def __init__(self, p, rows):
        p = self.p = check_modulus(p)
        rows = tuple(_residues(p, r) for r in rows)
        self.m = len(rows)
        self.n = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.n:
                raise ShapeError("ragged rows")
        self.rows = rows

    @classmethod
    def zero(cls, p, m, n):
        m, n = check_int(m, "dimension", 0), check_int(n, "dimension", 0)
        return cls(p, [[0] * n for _ in range(m)])

    @classmethod
    def identity(cls, p, n):
        n = check_int(n, "dimension", 0)
        return cls(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (
            isinstance(other, ConstMat)
            and self.p == other.p
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return "ConstMat(%d, %r)" % (self.p, [list(r) for r in self.rows])

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __mul__(self, other):
        if self.p != other.p:
            raise ShapeError("modulus mismatch")
        if self.n != other.m:
            raise ShapeError("inner dimensions %d vs %d" % (self.n, other.m))
        p = self.p
        bt = list(zip(*other.rows)) if other.rows else []
        out = [
            [sum(a * b for a, b in zip(row, col)) % p for col in bt]
            for row in self.rows
        ]
        return ConstMat(p, out)

    def transpose(self):
        return ConstMat(self.p, list(zip(*self.rows)) if self.rows else [])

    def is_identity(self):
        return self.m == self.n and all(
            v == (1 if i == j else 0)
            for i, r in enumerate(self.rows)
            for j, v in enumerate(r)
        )

    def is_unit_lower_triangular(self):
        return self.m == self.n and all(
            (v == 1 if i == j else (v == 0 or i > j))
            for i, r in enumerate(self.rows)
            for j, v in enumerate(r)
        )

    def rank(self):
        return len(rref([list(r) for r in self.rows], self.p, self.n))

    def inverse(self):
        if self.m != self.n:
            raise ShapeError("inverse of non-square matrix")
        p, n = self.p, self.n
        a = [list(r) + [1 if i == j else 0 for j in range(n)]
             for i, r in enumerate(self.rows)]
        if len(rref(a, p, n)) < n:
            raise SingularMatrixError("constant matrix is singular")
        return ConstMat(p, [r[n:] for r in a])

    def is_invertible(self):
        return self.m == self.n and self.rank() == self.n

    def left_nullspace(self):
        """Rows spanning {v : v * self = 0}, from the rref of the transpose."""
        p, m = self.p, self.m
        a = [list(c) for c in zip(*self.rows)]
        pivots = rref(a, p, m)
        free = [c for c in range(m) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * m
            v[fc] = 1
            for row, pc in zip(a, pivots):
                v[pc] = (-row[fc]) % p
            basis.append(v)
        return basis


def rref(rows, p, ncols):
    """Reduced row echelon form over F_p, in place, on the first ncols
    columns of the list rows; any further (augmented) columns are carried
    along.  Returns the pivot columns: afterwards rows[i] is monic at
    pivots[i] and zero there in every other row, and the rows past
    len(pivots) are zero on the first ncols columns.  Entries must already
    lie in [0, p).  This is the one batch elimination of the package."""
    m = len(rows)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        prow = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(m):
            f = rows[i][col]
            if f and i != r:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], prow)]
        pivots.append(col)
    return pivots


def vec_mat(v, rows, p):
    """Row vector times a matrix given as a list of rows."""
    n = len(rows[0]) if rows else 0
    out = [0] * n
    for vi, row in zip(v, rows):
        if vi:
            for j, w in enumerate(row):
                if w:
                    out[j] = (out[j] + vi * w) % p
    return out
