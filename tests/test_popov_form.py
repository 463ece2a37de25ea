"""popov_form by weak Popov transformations plus _normalize at the shift
compressed with dmax = min(sum cdeg M, sum rdeg M).  It must equal the
Hermite route relation_basis_general(M, I, s) at every shift, call no
hermite_form, and refuse singular inputs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import pmat.approx as approx_mod
import pmat.relations as relations_mod
from pmat import (
    InternalInvariantError,
    Poly,
    PolyMat,
    ShapeError,
    SingularMatrixError,
    determinant,
    is_popov,
    popov_form,
    relation_basis_general,
)

from .helpers import (
    degree_budget,
    edge_shifts,
    rnd_nonsingular,
    rnd_polymat,
    rnd_shift,
    rnd_unimodular,
    spy_calls,
)

PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)


def hermite_route(m, s):
    return relation_basis_general(m, PolyMat.identity(m.p, m.n), s)


def spy_transformations(monkeypatch):
    """Spy on _weak_popov's _cancel_leading: one entry per transformation,
    the largest entry degree of the two rows after it."""
    degrees = []
    orig = relations_mod._cancel_leading

    def spy(a, b, j, p):
        orig(a, b, j, p)
        degrees.append(max(len(e) for e in a + b) - 1)

    monkeypatch.setattr(relations_mod, "_cancel_leading", spy)
    return degrees


@pytest.mark.parametrize("p", PRIMES)
def test_popov_form_routes_agree(monkeypatch, p):
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    hermite = spy_calls(monkeypatch, (relations_mod,), "hermite_form")
    steps = spy_transformations(monkeypatch)
    rng = random.Random(p % 1000 + 140)
    for case in range(10):
        n = 1 + case % 5
        m = rnd_nonsingular(rng, p, n, rng.randint(0, 6))
        if case % 3 == 0:
            m = rnd_unimodular(rng, p, n, 6) * m
        dmax = degree_budget(m)
        for s in edge_shifts(n, dmax):
            hermite.clear()
            steps.clear()
            out = popov_form(m, s)
            assert not hermite
            # nothing grows beyond deg M plus the compressed spread
            u = relations_mod._compress_shift(s or (0,) * n, dmax)
            assert max(steps, default=0) <= m.max_degree() + max(u)
            assert out == hermite_route(m, s)
        u = rnd_unimodular(rng, p, n, 8)
        for s in (None, rnd_shift(rng, n)):
            assert popov_form(u, s) == PolyMat.identity(p, n)
            assert popov_form(u, s) == hermite_route(u, s)


def test_popov_form_input_in_popov_form_takes_no_steps(monkeypatch):
    # an s-Popov input has distinct pivots and reduced columns already:
    # no transformation, no _normalize cancellation and no product
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    steps = spy_calls(monkeypatch, (approx_mod, relations_mod),
                      "_cancel_leading")
    products = spy_calls(monkeypatch, (PolyMat,), "__mul__")
    rng = random.Random(141)
    for p in PRIMES:
        for n in (1, 3, 5):
            m = rnd_nonsingular(rng, p, n, 4)
            s = rnd_shift(rng, n, -2, 2)
            pv = popov_form(m, s)
            steps.clear()
            products.clear()
            assert popov_form(pv, s) == pv
            assert not steps and not products


def test_popov_form_singular_inputs(monkeypatch):
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    hermite = spy_calls(monkeypatch, (relations_mod,), "hermite_form")
    rng = random.Random(142)
    a = rnd_polymat(rng, 7, 3, 3, 3)
    rows = [list(r) for r in a.rows]
    zero_row = PolyMat(7, rows[:2] + [[Poly(7)] * 3])
    zero_col = PolyMat(7, [r[:2] + [Poly(7)] for r in rows])
    equal_rows = PolyMat(7, [rows[0], rows[1], rows[0]])
    b = rnd_polymat(rng, 2, 3, 2, 3) * rnd_polymat(rng, 2, 2, 3, 3)
    for m in (zero_row, zero_col, equal_rows, b):
        assert determinant(m).is_zero
        for s in (None, (0, 0, 10**18)):
            with pytest.raises(SingularMatrixError):
                popov_form(m, s)
    assert not hermite
    empty = PolyMat(7, [])
    assert popov_form(empty) == empty
    assert popov_form(empty, []) == empty
    with pytest.raises(ShapeError):
        popov_form(empty, [0])


def test_verify_mode_catches_a_spoiled_weak_popov_basis(monkeypatch):
    # a weak Popov basis of the wrong module (last row times x) still
    # normalizes; only the cross-check against the Hermite route sees it
    orig = relations_mod._weak_popov

    def spoiled(m, u):
        w = orig(m, u)
        return PolyMat(w.p, w.rows[:-1] + (
            [e.shift_up(1) for e in w.rows[-1]],))

    monkeypatch.setattr(relations_mod, "_weak_popov", spoiled)
    m = rnd_nonsingular(random.Random(143), 7, 3, 3)
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    assert popov_form(m) != hermite_route(m, None)
    monkeypatch.setattr(relations_mod, "_VERIFY", True)
    with pytest.raises(InternalInvariantError):
        popov_form(m)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(PRIMES), n=st.integers(1, 6), d=st.integers(0, 8),
       seed=st.integers(0, 2**32), kind=st.integers(0, 6))
def test_popov_form_routes_agree_property(p, n, d, seed, kind):
    rng = random.Random(seed)
    m = rnd_polymat(rng, p, n, n, d)
    if determinant(m).is_zero:
        for s in (None, (0,) * (n - 1) + (10**18,)):
            with pytest.raises(SingularMatrixError):
                popov_form(m, s)
        return
    shifts = edge_shifts(n, degree_budget(m))
    s = shifts[kind] if kind < len(shifts) else rnd_shift(rng, n, -9, 9)
    out = popov_form(m, s)
    assert is_popov(out, s)
    assert out == hermite_route(m, s)
