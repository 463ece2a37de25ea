import random

import pytest

from pmat import (
    ConstMat,
    PolyMat,
    PreconditionError,
    cdeg,
    determinant,
    is_popov,
    naive_quorem,
    relations_mod_hermite,
)
from pmat.linalg import (
    coefficient_embedding,
    multiplication_matrix,
    relations_from_linear_algebra,
)

from .helpers import diag_degrees, rnd_hermite, rnd_residues, rnd_shift

M = PolyMat.from_coeffs


def test_multiplication_matrix_examples():
    x = multiplication_matrix(M(7, [[[0, 0, 1]]]))
    assert x == ConstMat(7, [[0, 1], [0, 0]])
    x = multiplication_matrix(M(7, [[[0, 1], [1]], [[], [0, 1]]]))
    assert x == ConstMat(7, [[0, 6], [0, 0]])


def test_multiplication_matrix_companion():
    # x^2 - a1 x - a0 gives the classic companion matrix
    a0, a1 = 3, 5
    x = multiplication_matrix(M(7, [[[-a0 % 7, -a1 % 7, 1]]]))
    assert x == ConstMat(7, [[0, 1], [a0, a1]])


def test_multiplication_matrix_rejects_identity_columns():
    with pytest.raises(PreconditionError):
        multiplication_matrix(PolyMat.identity(7, 2))
    with pytest.raises(PreconditionError):
        multiplication_matrix(M(7, [[[1], [0, 1]], [[], [0, 1]]]))


def embed_row(row, sigma):
    grid = PolyMat(row[0].p, [row])
    return coefficient_embedding(grid, sigma)


def test_semantics_bridge_powers_of_x():
    # embedding then acting by X matches multiplying by x then reducing
    rng = random.Random(61)
    for _ in range(15):
        n = rng.randint(1, 3)
        h = rnd_hermite(rng, 7, n, rng.randint(n, 8))
        sigma = cdeg(h)
        d = sum(sigma)
        x = multiplication_matrix(h)
        f = rnd_residues(rng, 7, 1, sigma)
        vec = coefficient_embedding(f, sigma)
        cur = f
        for _ in range(2 * d):
            shifted = PolyMat(7, [[e.shift_up(1) for e in cur.rows[0]]])
            _, cur = naive_quorem(h, shifted)
            vec = vec * x
            assert vec == coefficient_embedding(cur, sigma)


def test_coefficient_embedding_examples():
    assert coefficient_embedding(M(7, [[[1], []]]), (1, 1)) == \
        ConstMat(7, [[1, 0]])
    assert coefficient_embedding(M(7, [[[0, 1]]]), (2,)) == \
        ConstMat(7, [[0, 1]])
    with pytest.raises(PreconditionError):
        coefficient_embedding(M(7, [[[0, 0, 1]]]), (2,))


def test_coefficient_embedding_linear():
    rng = random.Random(62)
    sigma = (3, 2)
    for _ in range(10):
        f = rnd_residues(rng, 7, 2, sigma)
        g = rnd_residues(rng, 7, 2, sigma)
        c = rng.randrange(1, 7)
        scaled = PolyMat(7, [[e.scale(c) for e in row] for row in f.rows])
        ef = coefficient_embedding(f, sigma)
        eg = coefficient_embedding(g, sigma)
        added = ConstMat(7, [[(a + b) % 7 for a, b in zip(ra, rb)]
                             for ra, rb in zip(ef.rows, eg.rows)])
        assert coefficient_embedding(f + g, sigma) == added
        assert coefficient_embedding(scaled, sigma) == \
            ConstMat(7, [[a * c % 7 for a in row] for row in ef.rows])


def test_relations_from_linear_algebra_examples():
    out = relations_from_linear_algebra(
        ConstMat(7, [[0, 0], [0, 0]]),
        ConstMat(7, [[0, 1], [0, 0]]), (0, 0))
    assert out == PolyMat.identity(7, 2)
    out = relations_from_linear_algebra(
        ConstMat(7, [[1, 0]]), ConstMat(7, [[0, 6], [0, 0]]), (0,))
    assert out == M(7, [[[0, 0, 1]]])
    out = relations_from_linear_algebra(
        ConstMat(7, [[0, 1]]), ConstMat(7, [[0, 1], [0, 0]]), (0,))
    assert out == M(7, [[[0, 1]]])


def test_relations_from_linear_algebra_matches_recursive_route():
    # the forward-only sweep lands on the s-Popov basis at every prime size,
    # also for shifts whose spread dwarfs the residue dimension
    rng = random.Random(63)
    for trial in range(60):
        p = (7, 2, 2**61 - 1)[trial % 3]
        n = rng.randint(1, 3)
        total = rng.randint(n, 6)
        h = rnd_hermite(rng, p, n, total)
        m = rng.randint(1, 4)
        f = rnd_residues(rng, p, m, cdeg(h))
        s = rnd_shift(rng, m) if trial % 2 else rnd_shift(rng, m, -10**6, 40)
        e = coefficient_embedding(f, cdeg(h))
        x = multiplication_matrix(h)
        got = relations_from_linear_algebra(e, x, s)
        want = relations_mod_hermite(h, f, s)
        assert got == want
        assert is_popov(got, s)
        assert determinant(got).degree <= total
        assert sum(diag_degrees(got)) == determinant(got).degree
