"""approx._normalize: an ordered weak Popov basis reduced to shifted Popov
form, checked against the kernel route and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import pmat.approx as approx_mod
from pmat import (
    InternalInvariantError,
    PolyMat,
    relations_mod_hermite,
    verify_relation_basis,
)
from pmat.approx import _normalize, relations_via_kernel

from .helpers import (
    diag_degrees,
    is_ordered_weak_popov,
    rnd_hermite,
    rnd_poly,
    rnd_residues,
)

PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)


def round_bound(delta, u):
    """The bound on rounds proved in _normalize's docstring."""
    k = len(delta)
    return max((sum(max(0, delta[i] + u[i] - u[j] - delta[j] + (j < i))
                    for j in range(k) if j != i) for i in range(k)),
               default=0)


def scramble(rng, popov, u, cap):
    """A u-ordered weak Popov matrix with the row space and the pivot
    degrees of popov: row i gains c * (row j of popov) for j != i, with
    deg c as large as keeps the new terms below row i's pivot term (at most
    cap), and every row is scaled by a random unit."""
    p = popov.p
    delta = diag_degrees(popov)
    rows = [list(r) for r in popov.rows]
    for i in range(popov.m):
        for j in range(popov.m):
            top = delta[i] + u[i] - delta[j] - u[j] - (j > i)
            if j == i or top < 0:
                continue
            c = rnd_poly(rng, p, min(top, cap))
            rows[i] = [a + c * b for a, b in zip(rows[i], popov.rows[j])]
    unit = [rng.randrange(1, p) for _ in rows]
    return PolyMat(p, [[e.scale(v) for e in row] for row, v in zip(rows, unit)])


def reducible(m, delta):
    return any(m[i, j].degree >= delta[j]
               for i in range(m.m) for j in range(m.n) if i != j)


def skewed_shift(rng, mm, total):
    return rng.choice((
        [0] * mm,
        [rng.randint(-3, 3) for _ in range(mm)],
        [rng.randint(-3 * total, 3 * total) for _ in range(mm)],
        [(mm - i) * (total + 1) for i in range(mm)],
        [i * (total + 1) for i in range(mm)],
    ))


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_matches_kernel_route_and_oracle(p):
    rng = random.Random(91)
    changed = moved = 0
    for _ in range(16):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 9))
        total = sum(diag_degrees(h))
        mm = rng.randint(2, 4)
        f = rnd_residues(rng, p, mm, diag_degrees(h))
        s = skewed_shift(rng, mm, total)
        canonical = relations_via_kernel(h, f, s)
        assert verify_relation_basis(canonical, h, f, s)
        delta = diag_degrees(canonical)
        weak = scramble(rng, canonical, s, 40)
        assert is_ordered_weak_popov(weak, s)
        assert diag_degrees(weak) == delta
        changed += reducible(weak, delta)
        moved += weak.max_degree() > max(delta)
        assert _normalize(weak, list(delta), s) == canonical
        assert relations_mod_hermite(h, f, s) == canonical
    # most inputs need rounds, and some carry off-pivot entries above every
    # pivot degree
    assert changed >= 10 and moved >= 3


def count_products(monkeypatch, product=None):
    """Record every PolyMat product; product replaces it if given."""
    made = []
    orig = PolyMat.__mul__

    def spy(a, b):
        made.append((a, b))
        return (product or orig)(a, b)

    monkeypatch.setattr(PolyMat, "__mul__", spy)
    return made


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_leaves_popov_input_alone(monkeypatch, p):
    rng = random.Random(92)
    cases = []
    for _ in range(8):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 12))
        mm = rng.randint(1, 4)
        f = rnd_residues(rng, p, mm, diag_degrees(h))
        s = skewed_shift(rng, mm, sum(diag_degrees(h)))
        cases.append((relations_mod_hermite(h, f, s), s))
    made = count_products(monkeypatch)
    for popov, s in cases:
        assert _normalize(popov, list(diag_degrees(popov)), s) == popov
    assert not made  # one product per round: zero rounds


def test_normalize_raises_past_its_round_bound(monkeypatch):
    # a product that always returns zero leaves every reducible term in
    # place, so the rounds run out; exactly the proved bound of them is made
    rng = random.Random(93)
    checked = 0
    for p in (7, 1000003):
        for _ in range(6):
            h = rnd_hermite(rng, p, 2, rng.randint(4, 10))
            mm = rng.randint(2, 4)
            f = rnd_residues(rng, p, mm, diag_degrees(h))
            s = [rng.randint(-2, 2) for _ in range(mm)]
            canonical = relations_mod_hermite(h, f, s)
            delta = diag_degrees(canonical)
            weak = scramble(rng, canonical, s, 40)
            if not reducible(weak, delta):
                continue
            with monkeypatch.context() as mp:
                made = count_products(
                    mp, lambda a, b: PolyMat.zero(a.p, a.m, b.n))
                with pytest.raises(InternalInvariantError, match="round bound"):
                    _normalize(weak, list(delta), s)
            assert len(made) == round_bound(delta, s) > 0
            checked += 1
    assert checked >= 6


def test_normalize_refuses_a_basis_off_its_pivots():
    m = PolyMat.from_coeffs(7, [[[0, 1], [1]], [[], [0, 0, 1]]])
    with pytest.raises(InternalInvariantError, match="pivot degrees"):
        _normalize(m, [1, 1], [0, 0])
    assert _normalize(m, [1, 2], [0, 0]) == m


def test_approximant_basis_normalizes_one_pass(monkeypatch):
    passes = []
    orig = approx_mod._order_basis

    def spy(g, tau, u, keep=None):
        passes.append(keep)
        return orig(g, tau, u, keep)

    monkeypatch.setattr(approx_mod, "_order_basis", spy)
    normalized = []
    orig_normalize = approx_mod._normalize

    def spy_normalize(basis, delta, u):
        normalized.append(basis)
        return orig_normalize(basis, delta, u)

    monkeypatch.setattr(approx_mod, "_normalize", spy_normalize)
    g = PolyMat.from_coeffs(7, [[[1, 2, 3]], [[0, 1]], [[5, 0, 1]]])
    basis, delta = approx_mod.approximant_basis_popov(g, (6,), (0, 4, -1))
    assert passes == [None] and len(normalized) == 1
    assert delta == diag_degrees(basis)


# m x n residues with m != n: a few rows against up to 8 coordinates, and
# 4n rows against 2 coordinates
SHAPES = st.one_of(
    st.tuples(st.sampled_from((1, 2)), st.integers(1, 8)),
    st.just((8, 2)),
)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(PRIMES), shape=SHAPES, extra=st.integers(0, 10),
       seed=st.integers(0, 2**32), spread=st.sampled_from((0, 4, 100)))
def test_normalize_property_rectangular_shapes(p, shape, extra, seed, spread):
    mm, nn = shape
    rng = random.Random(seed)
    h = rnd_hermite(rng, p, nn, nn + extra)
    f = rnd_residues(rng, p, mm, diag_degrees(h))
    s = [rng.randint(-spread, spread) for _ in range(mm)]
    out = relations_mod_hermite(h, f, s)
    assert verify_relation_basis(out, h, f, s)
    weak = scramble(rng, out, s, 24)
    assert _normalize(weak, list(diag_degrees(out)), s) == out
