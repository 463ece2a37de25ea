"""Exhaustive checks of the one batch elimination over F_p.

ConstMat.rank, ConstMat.inverse, ConstMat.left_nullspace and
polymat._solve_left all reduce through constmat.rref.  Every expected value
here comes from enumerating row spans with ConstMat.__mul__ alone, never
from the kernel under test, over every small matrix of a few shapes."""

import itertools

import pytest

from pmat import ConstMat, ShapeError, SingularMatrixError
from pmat.polymat import _solve_left

# (p, rows, cols): every matrix of each shape is checked
SHAPES = [(2, 3, 3), (3, 2, 3), (3, 3, 2), (3, 2, 2), (2, 1, 0), (3, 1, 0),
          (2, 0, 0)]


def _vectors(p, n):
    return [list(v) for v in itertools.product(range(p), repeat=n)]


def _span(p, rows, n):
    """Every v * A for v in F_p^m, as a set of tuples."""
    if not rows:
        return {(0,) * n}
    a = ConstMat(p, rows)
    return {(ConstMat(p, [v]) * a).rows[0] for v in _vectors(p, len(rows))}


def _rank_by_span(p, rows, n):
    size = len(_span(p, rows, n))
    r = 0
    while p ** r < size:
        r += 1
    assert p ** r == size
    return r


def _all_matrices(p, m, n):
    for flat in itertools.product(range(p), repeat=m * n):
        yield [list(flat[i * n:(i + 1) * n]) for i in range(m)]


@pytest.mark.parametrize("p,m,n", SHAPES)
def test_elimination_exhaustive(p, m, n):
    zero = ConstMat.zero(p, m, n)
    assert zero.rank() == 0 and len(zero.left_nullspace()) == m
    targets = _vectors(p, n)
    cases = 0
    for rows in _all_matrices(p, m, n):
        a = ConstMat(p, rows)
        span = _span(p, rows, n)
        rank = _rank_by_span(p, rows, n)
        assert a.rank() == rank
        # row rank is column rank
        assert a.transpose().rank() == rank
        assert a.is_invertible() == (m == n == rank)

        if m != n:
            with pytest.raises(ShapeError):
                a.inverse()
        elif rank < n:
            with pytest.raises(SingularMatrixError):
                a.inverse()
        else:
            assert a * a.inverse() == ConstMat.identity(p, n)

        null = a.left_nullspace()
        assert len(null) == m - rank
        assert all(len(v) == m for v in null)
        for v in null:
            assert (ConstMat(p, [v]) * a).rows[0] == (0,) * n
        assert _rank_by_span(p, null, m) == m - rank

        for t in targets:
            lam = _solve_left(rows, t, p)
            if tuple(t) in span:
                assert lam is not None and len(lam) == m
                assert list((ConstMat(p, [lam]) * a).rows[0]) == t
            else:
                assert lam is None
        cases += 1
    assert cases == p ** (m * n)
