"""The relation pipeline's single-coordinate leaf (approx._relation_leaf):
its water level, the stop at the certified order d + 2 + t - min(s), and
the resumed pass when the certificate fails, each checked against the
kernel route and the brute-force audit."""

import random

from hypothesis import given, settings, strategies as st

import pmat.relations as relations_mod
from pmat import (
    Poly,
    PolyMat,
    cdeg,
    relations_mod_hermite,
    residual,
    verify_relation_basis,
    vstack,
)
from pmat.approx import _relation_leaf, _water_level, relations_via_kernel

from .helpers import (
    diag_degrees,
    hermite_moduli,
    is_ordered_weak_popov,
    poly_of_length,
    reduced_residues,
    rnd_hermite,
    rnd_poly,
    rnd_residues,
    rnd_shift,
    shifts,
    spy_leaves,
)

PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)


@settings(max_examples=200)
@given(s=st.lists(st.integers(-60, 60), min_size=1, max_size=8),
       d=st.integers(1, 300))
def test_water_level_is_the_least_level_reaching_d(s, d):
    def filled(t):
        return sum(max(0, t - v) for v in s)

    t = _water_level(s, d)
    assert filled(t) >= d > filled(t - 1)


def test_generic_leaves_stop_at_the_certified_order(monkeypatch):
    # residues of full degree: a low-degree entry, as rnd_residues draws
    # some, makes the relations uneven
    leaves = spy_leaves(monkeypatch)
    rng = random.Random(90)
    p = 1000003
    for _ in range(10):
        n = rng.randint(1, 3)
        h = rnd_hermite(rng, p, n, rng.randint(n + 8, 30))
        mm = rng.randint(1, 4)
        f = PolyMat(p, [[poly_of_length(rng, p, dj) for dj in cdeg(h)]
                        for _ in range(mm)])
        for s in ((0,) * mm, rnd_shift(rng, mm),
                  tuple(rng.randint(0, 40) for _ in range(mm))):
            out = relations_mod_hermite(h, f, s)
            assert out == relations_via_kernel(h, f, s)
            assert verify_relation_basis(out, h, f, s)
    assert len(leaves) >= 40
    for tau0, tau, orders in leaves:
        assert orders == [tau0]
    assert any(tau0 < tau for tau0, tau, _ in leaves)


def degenerate_residues(rng, p, d, kind):
    """(h, F) with one coordinate of degree d where the relations are
    uneven: F with a repeated row, or F sharing a factor a of h."""
    if kind == "repeated":
        h = rnd_hermite(rng, p, 1, d)
        f = rnd_residues(rng, p, rng.randint(2, 3), (d,))
        return h, PolyMat(p, list(f.rows) + [f.rows[0]])
    k = rng.randint(1, d - 2)
    a = rnd_poly(rng, p, k - 1) + Poly.mono(p, k)
    b = rnd_poly(rng, p, d - k - 1) + Poly.mono(p, d - k)
    rows = [[Poly.one(p)]]  # one row keeps the full modulus
    rows += [[a * rnd_poly(rng, p, d - k - 1)]
             for _ in range(rng.randint(1, 3))]
    return PolyMat(p, [[a * b]]), PolyMat(p, rows)


def test_degenerate_leaves_resume_within_the_worst_case_order(monkeypatch):
    leaves = spy_leaves(monkeypatch)
    rng = random.Random(91)
    for p in (2, 7, 1000003):
        for kind in ("repeated", "factor"):
            for _ in range(4):
                h, f = degenerate_residues(rng, p, rng.randint(8, 28), kind)
                for s in ((0,) * f.m, rnd_shift(rng, f.m)):
                    out = relations_mod_hermite(h, f, s)
                    assert out == relations_via_kernel(h, f, s)
                    assert verify_relation_basis(out, h, f, s)
    resumed = 0
    for tau0, tau, orders in leaves:
        assert orders in ([tau0], [tau0, tau - tau0])
        resumed += len(orders) == 2
    # both branches ran
    assert 0 < resumed < len(leaves)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), p=st.sampled_from(PRIMES))
def test_leaf_and_pipeline_property(data, p):
    h = data.draw(hermite_moduli(p, max_n=3, max_total=20))
    f = data.draw(reduced_residues(h, max_rows=4))
    s = data.draw(shifts(f.m))
    total = sum(diag_degrees(h))
    u = relations_mod._compress_shift(list(s), total)
    out = relations_mod_hermite(h, f, s)
    assert verify_relation_basis(out, h, f, s)
    assert out == relations_via_kernel(h, f, u)
    # the last coordinate alone, as a leaf of its own
    last = h.n - 1
    hl = h.submatrix([last], [last])
    fl = f.submatrix(range(f.m), [last])
    if hl[0, 0].degree > f.m:
        basis, dfin = _relation_leaf(vstack(fl, hl), u)
        delta = [a - b for a, b in zip(dfin, u)]
        assert list(diag_degrees(basis)) == delta
        assert is_ordered_weak_popov(basis, u)
        assert residual(hl, basis, fl).is_zero()
        assert delta == list(diag_degrees(relations_mod_hermite(hl, fl, u)))
