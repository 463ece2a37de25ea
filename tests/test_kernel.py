"""The one product kernel against naive_matmul: through PolyMat and
through the order-basis engine's coefficient arrays.  Both are
polymat._array_mul, the PolyMat product on its operands' arrays.  Below
2^31 a product of at most polymat._DENSE_MAX multiply-adds is one float64
matrix product, which every small case here takes; the same cases run
again with that path off, through Kronecker substitution, which serves
every larger product.

Below 2^32 the Kronecker path packs and unpacks whole matrices through
numpy and reduces each slot over 8-byte limbs; from 2^32 up it packs entry
by entry.  Either way each entry is packed at its own length, zero padding
left out.  The primes cover both sides of that bound, slots of 1 to 8 bytes,
9-byte slots (998244353 and up) whose high limb is weighted by
2^64 mod p, and multi-word coefficients.  Coefficients are drawn as
integers and reduced mod p, -1 standing for p - 1, so that every example
holds at every prime."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

import pmat.polymat as polymat_mod
from pmat import ConstMat, Poly, PolyMat, matmul_trunc
from pmat.poly import pack, slot_width
from pmat.polymat import (
    _array_mul,
    _array_of,
    _from_array,
    _pack_array,
    const_mul,
)

from .helpers import naive_matmul, rnd_polymat

M = PolyMat.from_coeffs
PRIMES = (2, 7, 1000003, 998244353, 2**31 - 1, 4294967291, 4294967311,
          2**61 - 1, 2**127 - 1)

# every slot at its largest sum of products
ALL_TOP = ([[[-1] * 30] * 4] * 3, [[[-1] * 25] * 2] * 4)
# zero entries, a zero row of A and a zero row of B
ZERO_ENTRIES = ([[[1, 2], []], [[], []], [[0, 0, 3], [-1]]],
                [[[], [5], [-1, 0, 2]], [[], [], []]])
NO_ROWS = ([], [])  # 0 x 0 times 0 x 0
NO_INNER = ([[], []], [])  # 2 x 0 times 0 x 0
NO_COLUMNS = ([[[1, 1], [2], [-1]]] * 2, [[]] * 3)  # 2 x 3 times 3 x 0
# degree-0 entries times long ones
CONST_BY_LONG = ([[[3], [-1], []], [[1], [2], [-1]]],
                 [[list(range(-60, 60)), [-1] * 97], [[2] * 110, []],
                  [[-1] * 120, [0, 1]]])


@st.composite
def grids(draw):
    """Coefficient grids of an m x k and a k x n matrix, m, k, n <= 4; a
    grid without rows has no columns either, which fixes k or n at 0."""
    m = draw(st.integers(0, 4))
    k = draw(st.integers(0, 4)) if m else 0
    n = draw(st.integers(0, 4)) if k else 0
    coeff = st.one_of(st.just(0), st.just(-1), st.integers(0, 2**130))
    entry = st.lists(coeff, max_size=draw(st.integers(0, 40)))
    a = [[draw(entry) for _ in range(k)] for _ in range(m)]
    b = [[draw(entry) for _ in range(n)] for _ in range(k)]
    return a, b


def array_product(p, a, b, trunc):
    """The engine's product of coefficient arrays, as a PolyMat; the
    result keeps the arrays' dtype."""
    out = _array_mul(p, a, b, trunc)
    assert out.dtype == a.dtype
    assert out.shape[:2] == (a.shape[0], b.shape[1])
    return _from_array(p, out)


def kernel_cases(test):
    """Run test on drawn grids and on every fixed case above."""
    for case in (CONST_BY_LONG, NO_COLUMNS, NO_INNER, NO_ROWS, ZERO_ENTRIES,
                 ALL_TOP):
        test = example(case=case)(test)
    return settings(max_examples=12)(given(case=grids())(test))


@pytest.mark.parametrize("p", PRIMES)
@kernel_cases
def test_kernel_matches_naive_matmul(p, case):
    check_products(p, case)


@pytest.mark.parametrize("p", [p for p in PRIMES
                               if p < polymat_mod._INT64_PRIMES])
@kernel_cases
def test_kronecker_path_below_the_crossover(p, case):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polymat_mod, "_DENSE_MAX", 0)
        check_products(p, case)


def check_products(p, case):
    """Every product of the grids against naive_matmul: PolyMat, arrays,
    truncated at every length, and const_mul."""
    a, b = M(p, case[0]), M(p, case[1])
    full = naive_matmul(a, b)
    assert a * b == full
    arr_a, arr_b = _array_of(a), _array_of(b)
    assert array_product(p, arr_a, arr_b, None) == full
    length = max(a.max_degree(), 0) + max(b.max_degree(), 0) + 1
    for t in range(1, length + 2):
        assert matmul_trunc(a, b, t) == full.truncate(t)
        assert array_product(p, arr_a, arr_b, t) == full.truncate(t)
    c = ConstMat(p, [[e.coeff(0) for e in r] for r in a.rows])
    lifted = PolyMat(p, [[Poly.const(p, v) for v in r] for r in c.rows])
    assert const_mul(c, b) == naive_matmul(lifted, b)


@pytest.mark.parametrize("p", (1000003, 2**61 - 1))
@pytest.mark.parametrize("t", (None, 1, 5))
def test_identity_factor_costs_no_product(p, t, monkeypatch):
    # I exactly (t None), or I + x^t E read mod x^t, on either side of an
    # array product or a PolyMat product: the other operand comes back, and
    # nothing is packed or reaches the float64 path
    rng = random.Random(repr((p, t)))
    eye = PolyMat.identity(p, 3)
    if t is not None:
        tail = rnd_polymat(rng, p, 3, 3, 4)
        eye = eye + PolyMat(p, [[e.shift_up(t) for e in r]
                                for r in tail.rows])
    b, c = rnd_polymat(rng, p, 3, 2, 12), rnd_polymat(rng, p, 4, 3, 12)
    want_b, want_c = naive_matmul(eye, b), naive_matmul(c, eye)
    if t is not None:
        want_b, want_c = want_b.truncate(t), want_c.truncate(t)
    packed = []
    for name in ("_pack_array", "_dense_mul"):
        orig = getattr(polymat_mod, name)
        monkeypatch.setattr(polymat_mod, name, lambda *args, orig=orig:
                            packed.append(args) or orig(*args))
    arr_eye = _array_of(eye)
    assert array_product(p, arr_eye, _array_of(b), t) == want_b
    assert array_product(p, _array_of(c), arr_eye, t) == want_c
    if t is None:
        assert eye * b == want_b and c * eye == want_c
    else:
        assert matmul_trunc(eye, b, t) == want_b
        assert matmul_trunc(c, eye, t) == want_c
    assert not packed


@pytest.mark.parametrize("p", (1000003, 4294967291, 4294967311, 2**61 - 1))
def test_pack_array_packs_each_entry_at_its_own_length(p, monkeypatch):
    # entries of lengths 0 to 9, inner zeros included, padded with zeros to
    # the longest: each integer is poly.pack of the trimmed entry, and
    # neither packer (the batch below 2^32, pack from 2^32 up) sees padding
    rng = random.Random(p)
    grid = [[[], [rng.randrange(1, p)], [0, 5, 0, -1]],
            [[-1] * 9, [0, 0, 3], [rng.randrange(p) for _ in range(6)] + [1]]]
    a = PolyMat.from_coeffs(p, grid)
    arr = _array_of(a)
    assert arr.shape == (2, 3, 9)
    packed = []  # the coefficient count of each entry a packer is handed
    orig_pack, orig_batch = polymat_mod.pack, polymat_mod._pack_batch

    def pack_spy(c, w):
        packed.append(len(c))
        return orig_pack(c, w)

    def batch_spy(flat, lens, w):
        assert len(flat) == sum(lens)
        packed.extend(lens)
        return orig_batch(flat, lens, w)

    monkeypatch.setattr(polymat_mod, "pack", pack_spy)
    monkeypatch.setattr(polymat_mod, "_pack_batch", batch_spy)
    trimmed = [e.c for r in a.rows for e in r]
    for terms in (1, 9, 1000):
        w = slot_width(p, terms)
        assert _pack_array(p, arr, w) == [pack(c, w) for c in trimmed]
        assert packed == [len(c) for c in trimmed]
        packed.clear()
