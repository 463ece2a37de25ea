import random
import time
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import pmat.poly as poly_mod
from pmat import (
    NEG_INF,
    Poly,
    PreconditionError,
    is_prime,
    poly_divrem,
    poly_mul,
    poly_reverse,
    poly_xgcd,
    series_inverse,
)
from pmat.poly import _NEWTON_LEN as N, _strong_lucas
from pmat.relations import _gcd

from .helpers import (
    KERNEL_PRIMES,
    poly_of_length,
    rnd_poly,
    schoolbook_divmod,
    schoolbook_mul as schoolbook,
    spy_calls,
)


def test_mul_small_examples():
    x1 = Poly(3, (1, 1))
    assert poly_mul(x1, x1) == Poly(3, (1, 2, 1))
    a = Poly(3, (2, 0, 1))
    assert poly_mul(a, Poly(3)) == Poly(3)
    assert poly_mul(Poly(3), a).is_zero


def test_mul_degree_and_zero():
    rng = random.Random(101)
    for _ in range(50):
        a = rnd_poly(rng, 7, 12, nonzero=True)
        b = rnd_poly(rng, 7, 12, nonzero=True)
        assert (a * b).degree == a.degree + b.degree
    assert (Poly(7) * Poly(7)).degree is NEG_INF


@pytest.mark.parametrize(
    "p", [2, 7, 1000003, 998244353, 2147483647, 2**61 - 1, 2**127 - 1]
)
def test_mul_matches_schoolbook_across_dispatch(p):
    # sizes straddle the Kronecker slot widths; all-(p-1) operands put the
    # largest possible sum into every slot
    rng = random.Random(202)
    for deg in (0, 5, 31, 32, 47, 48, 63, 64, 90, 200):
        a = rnd_poly(rng, p, deg, nonzero=True)
        b = rnd_poly(rng, p, deg, nonzero=True)
        assert a * b == schoolbook(a, b)
        c = rnd_poly(rng, p, max(0, deg - 17), nonzero=True)
        assert a * c == schoolbook(a, c)
        top = Poly(p, [p - 1] * (deg + 1))
        assert top * top == schoolbook(top, top)


def test_mul_ring_axioms():
    rng = random.Random(303)
    for _ in range(40):
        p = rng.choice([5, 7, 998244353])
        a = rnd_poly(rng, p, 25)
        b = rnd_poly(rng, p, 25)
        c = rnd_poly(rng, p, 25)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_divrem_examples():
    a = Poly(7, (1, 1, 0, 0, 1))   # x^4 + x + 1
    b = Poly.mono(7, 3, 1)
    q, r = poly_divrem(a, b)
    assert q == Poly(7, (0, 1))
    assert r == Poly(7, (1, 1))
    q, r = poly_divrem(a, a)
    assert q == Poly.one(7) and r.is_zero


def test_divrem_identity_uniqueness():
    rng = random.Random(404)
    for _ in range(60):
        p = rng.choice([7, 998244353])
        a = rnd_poly(rng, p, 40)
        b = rnd_poly(rng, p, 17, nonzero=True)
        q, r = poly_divrem(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        # any other quotient forces a remainder at least as big as b
        t = rnd_poly(rng, p, 5, nonzero=True)
        r2 = a - (q + t) * b
        assert r2.degree >= b.degree


def test_divrem_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        poly_divrem(Poly(7, (1,)), Poly(7))


# (quotient length t, divisor length) on both sides of the Newton path's
# bound N on both; the dividend has t + len(b) - 1 coefficients
DIVISION_SHAPES = (
    (2, 97), (N - 1, 97), (N, 97),  # short quotient, long divisor
    (97, N - 1), (97, N),  # long quotient, short divisor
    (N - 1, N - 1), (N, N), (72, 73), (121, 73),  # both long
    (97, 1), (1, 1),  # constant divisor
    (0, 40), (-20, 40),  # deg a < deg b
    (-39, 40),  # a = 0
)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@pytest.mark.parametrize("t, lb", DIVISION_SHAPES)
def test_divmod_matches_schoolbook_across_the_crossover(monkeypatch, p, t,
                                                        lb):
    grown = spy_calls(monkeypatch, (poly_mod,), "_grow_inverse")
    rng = random.Random(repr((p, t, lb)))
    for top in (False, True):  # random coefficients, then all p - 1
        a = poly_of_length(rng, p, t + lb - 1, top)
        b = poly_of_length(rng, p, lb, top)
        assert divmod(a, b) == schoolbook_divmod(a, b)
    # the Newton path builds an inverse of rev(b) for each division
    assert len(grown) == (2 if min(t, lb) >= N else 0)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
@settings(max_examples=15)
@given(seed=st.integers(0, 2**32), la=st.integers(0, 4 * N),
       lb=st.integers(1, 3 * N), top=st.booleans())
def test_divmod_property(p, seed, la, lb, top):
    rng = random.Random(seed)
    a, b = poly_of_length(rng, p, la, top), poly_of_length(rng, p, lb, top)
    q, r = divmod(a, b)
    assert (q, r) == schoolbook_divmod(a, b)
    assert q * b + r == a and r.degree < b.degree


def test_divisions_share_an_inverse():
    # one inverse list serves divisions of every quotient length: extended
    # in place when a quotient outgrows it, read truncated when not
    rng = random.Random(405)
    for p in (7, 2**61 - 1):
        b = poly_of_length(rng, p, N + 6)
        inv, need = [], 0
        for t in (N, 3 * N + 5, 2, N + 1, 4 * N):
            a = poly_of_length(rng, p, t + b.degree)
            assert a._divmod(b, inv) == schoolbook_divmod(a, b)
            need = max(need, t) if t >= N else need
            assert len(inv) == need
        rev = b.reverse(b.degree)
        assert (rev * Poly(p, inv)).truncate(4 * N) == Poly.one(p)


def test_euclid_builds_no_inverse(monkeypatch):
    # Euclid's quotients on random inputs have degree 1, far below N
    grown = spy_calls(monkeypatch, (poly_mod,), "_grow_inverse")
    rng = random.Random(406)
    for p in (7, 1000003, 2**61 - 1):
        a, b = poly_of_length(rng, p, 97), poly_of_length(rng, p, 97)
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g and _gcd(a, b) == g
        assert not (schoolbook_divmod(a, g)[1] or schoolbook_divmod(b, g)[1])
    assert not grown


def test_series_inverse_examples():
    assert series_inverse(Poly.one(7), 5) == Poly.one(7)
    geo = series_inverse(Poly(7, (1, 6)), 4)   # 1 - x
    assert geo == Poly(7, (1, 1, 1, 1))


def test_series_inverse_random():
    rng = random.Random(505)
    for _ in range(30):
        p = rng.choice([7, 998244353])
        a = rnd_poly(rng, p, 20)
        a = a + Poly.const(p, 1 if a.coeff(0) == 0 else 0)
        inv = series_inverse(a, 33)
        assert (a * inv).truncate(33) == Poly.one(p)
        assert inv.degree < 33
        # shorter precision is a prefix of the longer one
        assert series_inverse(a, 7) == inv.truncate(7)


def test_series_inverse_refuses_oversized_orders():
    # the order is capped at MAX_ENTRIES before any work: 10^15 once ran
    # for seconds and then raised a bare MemoryError
    for call in (series_inverse, Poly.series_inverse):
        for t in (10**15, poly_mod.MAX_ENTRIES + 1):
            start = time.perf_counter()
            with pytest.raises(PreconditionError, match="exceeds"):
                call(Poly(7, (1, 1)), t)
            assert time.perf_counter() - start < 1


def test_series_inverse_zero_constant_term():
    with pytest.raises(PreconditionError):
        series_inverse(Poly(7, (0, 1)), 3)


def test_reverse_examples():
    assert poly_reverse(Poly(7, (2, 0, 1)), 2) == Poly(7, (1, 0, 2))
    assert poly_reverse(Poly(7), 3).is_zero
    with pytest.raises(PreconditionError):
        poly_reverse(Poly(7, (1, 1)), 0)


def test_reverse_involution():
    rng = random.Random(606)
    for _ in range(40):
        a = rnd_poly(rng, 7, 15)
        a = a + Poly.const(7, 1 if a.coeff(0) == 0 else 0)   # a(0) != 0
        d = a.degree
        assert poly_reverse(poly_reverse(a, d), d) == a


def test_xgcd():
    rng = random.Random(707)
    for _ in range(40):
        p = rng.choice([7, 13])
        a = rnd_poly(rng, p, 15)
        b = rnd_poly(rng, p, 12)
        if a.is_zero and b.is_zero:
            continue
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g.leading_coeff() == 1
        assert (a % g).is_zero and (b % g).is_zero
    g, u, v = poly_xgcd(Poly(7, (0, 0, 2)), Poly(7))
    assert g == Poly(7, (0, 0, 1))
    assert poly_xgcd(Poly(7), Poly(7)) == (Poly(7), Poly.one(7), Poly(7))


def test_is_prime():
    assert is_prime(2) and is_prime(7) and is_prime(998244353)
    assert is_prime(2147483647)
    assert not is_prime(1) and not is_prime(4) and not is_prime(998244351)


# 1287836182261 * 2575672364521: the least strong pseudoprime to all 13
# Miller-Rabin witnesses (OEIS A014233)
MR_PSEUDOPRIME = 3317044064679887385961981
# every prime the suite uses, and Mersenne primes past that pseudoprime
SUITE_PRIMES = (2, 3, 5, 7, 41, 43, 166667, 1000003, 998244353, 2013265921,
                2**31 - 1, 2147483659, 4294967291, 4294967311, 2**61 - 1,
                2**89 - 1, 2**107 - 1, 2**127 - 1, 2**521 - 1)


def test_is_prime_rejects_the_witness_set_pseudoprime():
    assert 1287836182261 * 2575672364521 == MR_PSEUDOPRIME
    assert not is_prime(MR_PSEUDOPRIME)
    with pytest.raises(PreconditionError, match="not prime"):
        Poly(MR_PSEUDOPRIME, (1,))


@pytest.mark.parametrize("a, b", [
    (1287836182261, 2575672364521), (2**61 - 1, 2**89 - 1),
    (4294967311, 2**107 - 1), (2147483659, 2**127 - 1),
    (2**89 - 1, 2**89 - 1), (2**107 - 1, 2**127 - 1)])
def test_is_prime_rejects_products_of_large_primes(a, b):
    assert is_prime(a) and is_prime(b)
    assert not is_prime(a * b)


@pytest.mark.parametrize("p", SUITE_PRIMES)
def test_is_prime_accepts_suite_primes(p):
    assert is_prime(p)


def test_strong_lucas_pseudoprimes_below_1e5():
    """The Lucas half of the test agrees with a sieve on odd n in
    (41, 10^5) except at the strong Lucas pseudoprimes of Selfridge's
    parameters there (OEIS A217255)."""
    n_max = 10**5
    sieve = bytearray([1]) * n_max
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(n_max) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, n_max, i)))
    liars = [n for n in range(43, n_max, 2) if _strong_lucas(n) != sieve[n]]
    assert liars == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                     40309, 58519, 75077, 97439]


def test_non_prime_modulus_raises_typed_error():
    for bad in (8, 1, 0, 2**61):
        with pytest.raises(PreconditionError, match="not prime"):
            Poly(bad, (1, 2))
    with pytest.raises(PreconditionError, match="not prime"):
        Poly(7.0, (1,))


def test_zero_and_negation_edges():
    a = Poly(7, (3, 0, 5))
    assert -a == Poly(7, (4, 0, 2))
    assert -Poly(7) == Poly(7)
    assert a.truncate(0) == Poly(7)
    assert a.scale(0) == a.scale(14) == Poly(7)
    assert Poly(7).monic() == Poly(7)
    assert Poly(7, (2, 4)).monic() == Poly(7, (4, 1))


def test_poly_normalization():
    assert Poly(7, (1, 0, 0)).c == (1,)
    assert Poly(7, (0, 0)).is_zero
    assert Poly(7, (9, 8)) == Poly(7, (2, 1))
