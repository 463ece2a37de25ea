"""approx._normalize: an ordered weak Popov basis reduced to shifted Popov
form, checked against the kernel route and the brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import pmat.approx as approx_mod
import pmat.relations as relations_mod
from pmat import (
    InternalInvariantError,
    Poly,
    PolyMat,
    popov_form,
    relation_basis_general,
    relations_mod_hermite,
    verify_relation_basis,
)
from pmat.approx import _normalize, relations_via_kernel

from .helpers import (
    degree_budget,
    diag_degrees,
    edge_shifts,
    is_ordered_weak_popov,
    rnd_hermite,
    rnd_nonsingular,
    rnd_poly,
    rnd_residues,
    spy_calls,
)

PRIMES = (2, 7, 1000003, 998244353, 2**61 - 1)


def row_bound(delta, u, i):
    """c_i, the bound on the cancellations of row i proved in _normalize's
    docstring."""
    return sum(max(0, delta[i] + u[i] - u[j] - delta[j] + (j < i))
               for j in range(len(delta)) if j != i)


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


def shift_patterns(rng, mm, total):
    """Zero, small, wide, and both (total + 1) staircases."""
    return (
        [0] * mm,
        [rng.randint(-3, 3) for _ in range(mm)],
        [rng.randint(-3 * total, 3 * total) for _ in range(mm)],
        [(mm - i) * (total + 1) for i in range(mm)],
        [i * (total + 1) for i in range(mm)],
    )


def skewed_shift(rng, mm, total):
    return rng.choice(shift_patterns(rng, mm, total))


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_matches_kernel_route_and_oracle(monkeypatch, p):
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
        # the reduction is leading-term cancellations only: no matrix
        # product and no polynomial division
        with monkeypatch.context() as mp:
            made = spy_calls(mp, (PolyMat,), "__mul__")
            divisions = spy_calls(mp, (Poly,), "__divmod__")
            assert _normalize(weak, list(delta), s) == canonical
        assert not made and not divisions
        assert relations_mod_hermite(h, f, s) == canonical
    # most inputs need cancellations, and some carry off-pivot entries
    # above every pivot degree
    assert changed >= 10 and moved >= 3


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
    made = spy_calls(monkeypatch, (PolyMat,), "__mul__")
    steps = spy_calls(monkeypatch, (approx_mod, relations_mod),
                      "_cancel_leading")
    divisions = spy_calls(monkeypatch, (Poly,), "__divmod__")
    for popov, s in cases:
        assert _normalize(popov, list(diag_degrees(popov)), s) == popov
    assert not made and not steps and not divisions


def test_normalize_raises_past_its_round_bound(monkeypatch):
    # a cancellation that does nothing leaves every reducible term in
    # place, so the first row holding one runs out of its c_i steps;
    # exactly c_i of them are made before the error
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
            first = next(i for i in range(weak.m) if any(
                weak[i, j].degree >= delta[j]
                for j in range(weak.n) if j != i))
            made = []
            with monkeypatch.context() as mp:
                mp.setattr(approx_mod, "_cancel_leading",
                           lambda *args: made.append(args))
                with pytest.raises(InternalInvariantError,
                                   match="row %d needs over %d cancellations"
                                   % (first, row_bound(delta, s, first))):
                    _normalize(weak, list(delta), s)
            assert len(made) == row_bound(delta, s, first) > 0
            checked += 1
    assert checked >= 6


def spy_cancellations(monkeypatch):
    """Count the cancellations of every _normalize call per row.  The row
    is told by its largest term (degree + u_j, j), which a cancellation
    keeps.  Returns one (counts, delta, u) entry per call."""
    calls = []
    orig_normalize = approx_mod._normalize
    orig_cancel = approx_mod._cancel_leading

    def normalize(basis, delta, u):
        calls.append(({}, list(delta), list(u)))
        return orig_normalize(basis, delta, u)

    def cancel(a, b, j, p):
        counts, delta, u = calls[-1]
        i = max((len(e) + uj, l) for l, (e, uj) in enumerate(zip(a, u))
                if e)[1]
        assert len(a[i]) - 1 == delta[i]
        counts[i] = counts.get(i, 0) + 1
        orig_cancel(a, b, j, p)

    monkeypatch.setattr(approx_mod, "_cancel_leading", cancel)
    for mod in (approx_mod, relations_mod):
        monkeypatch.setattr(mod, "_normalize", normalize)
    return calls


def row_counts(calls):
    """(cancellations, c_i) for every row that cancelled in the recorded
    calls; none may exceed its bound."""
    out = [(n, row_bound(delta, u, i))
           for counts, delta, u in calls for i, n in counts.items()]
    assert all(n <= bound for n, bound in out)
    return out


@pytest.mark.parametrize("p", PRIMES)
def test_normalize_cancellations_stay_within_the_proved_bound(monkeypatch, p):
    monkeypatch.setattr(relations_mod, "_VERIFY", False)
    calls = spy_cancellations(monkeypatch)
    rng = random.Random(p % 1000 + 94)
    scrambled = []
    for _ in range(4):
        nn = rng.randint(1, 3)
        h = rnd_hermite(rng, p, nn, rng.randint(nn, 9))
        total = sum(diag_degrees(h))
        mm = rng.randint(2, 4)
        f = rnd_residues(rng, p, mm, diag_degrees(h))
        for s in shift_patterns(rng, mm, total):
            canonical = relations_via_kernel(h, f, s)
            weak = scramble(rng, canonical, s, 40)
            calls.clear()
            delta = list(diag_degrees(canonical))
            assert approx_mod._normalize(weak, delta, s) == canonical
            assert len(calls) == 1
            scrambled += row_counts(calls)
    # the bound is reached, not only respected
    assert any(n == bound for n, bound in scrambled)
    reduced = []
    for n in (1, 2, 3, 4):
        m = rnd_nonsingular(rng, p, n, rng.randint(1, 4))
        for s in edge_shifts(n, degree_budget(m)):
            calls.clear()
            out = popov_form(m, s)
            assert len(calls) == 1
            reduced += row_counts(calls)
            assert out == relation_basis_general(
                m, PolyMat.identity(p, n), s)
    assert reduced


def test_normalize_refuses_a_basis_off_its_pivots():
    m = PolyMat.from_coeffs(7, [[[0, 1], [1]], [[], [0, 0, 1]]])
    with pytest.raises(InternalInvariantError, match="pivot degrees"):
        _normalize(m, [1, 1], [0, 0])
    assert _normalize(m, [1, 2], [0, 0]) == m


def test_approximant_basis_normalizes_one_pass(monkeypatch):
    passes = []
    orig = approx_mod._order_basis

    def spy(g, tau, u):
        passes.append(tuple(tau))
        return orig(g, tau, u)

    monkeypatch.setattr(approx_mod, "_order_basis", spy)
    normalized = []
    orig_normalize = approx_mod._normalize

    def spy_normalize(basis, delta, u):
        normalized.append(basis)
        return orig_normalize(basis, delta, u)

    monkeypatch.setattr(approx_mod, "_normalize", spy_normalize)
    g = PolyMat.from_coeffs(7, [[[1, 2, 3]], [[0, 1]], [[5, 0, 1]]])
    basis, delta = approx_mod.approximant_basis_popov(g, (6,), (0, 4, -1))
    assert passes == [(6,)] and len(normalized) == 1
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
