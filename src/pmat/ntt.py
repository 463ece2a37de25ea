"""Number-theoretic transforms; not on the product path.

Every polynomial and matrix product goes through Kronecker substitution
(poly.mul_coeffs, polymat._matmul), which is faster end to end on every
benchmark workload, at 998244353 too.  This module stays only because the benchmark's tracer (bench/tracer.py)
looks up mul_ntt and matmul_ntt; it goes when the benchmark retires those
targets.  Both take and return plain coefficient lists, at primes p < 2^31
(products of two residues then fit in signed 64-bit words) with a 2-adic
root of unity of order next_pow2(product length).
"""

from functools import lru_cache

import numpy as np


def next_pow2(n):
    m = 1
    while m < n:
        m <<= 1
    return m


def _find_root(p, n):
    # element of multiplicative order exactly n (n a power of two dividing p-1)
    e = (p - 1) // n
    a = 2
    while True:
        w = pow(a, e, p)
        if pow(w, n // 2, p) == p - 1:
            return w
        a += 1


@lru_cache(maxsize=32)
def _bitrev(n):
    """Bit-reversal permutation of range(n), read-only since it is cached."""
    perm = np.zeros(n, dtype=np.int64)
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        perm[i] = j
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=32)
def _stage_tables(p, n):
    """Per-stage twiddle tables (forward, inverse) for length n mod p,
    read-only since they are cached."""
    w = _find_root(p, n)
    winv = pow(w, p - 2, p)
    fwd, inv = [], []
    length = 2
    while length <= n:
        wl = pow(w, n // length, p)
        wli = pow(winv, n // length, p)
        row = np.empty(length // 2, dtype=np.int64)
        rowi = np.empty(length // 2, dtype=np.int64)
        cur = curi = 1
        for i in range(length // 2):
            row[i] = cur
            rowi[i] = curi
            cur = cur * wl % p
            curi = curi * wli % p
        row.setflags(write=False)
        rowi.setflags(write=False)
        fwd.append(row)
        inv.append(rowi)
        length <<= 1
    return fwd, inv


def _ntt_last_axis(a, p, inverse):
    """In-place radix-2 transform over the last axis of an int64 array."""
    n = a.shape[-1]
    a[...] = a[..., _bitrev(n)]
    tables = _stage_tables(p, n)[1 if inverse else 0]
    length = 2
    stage = 0
    while length <= n:
        half = length // 2
        v = a.reshape(a.shape[:-1] + (n // length, length))
        lo = v[..., :half]
        hi = v[..., half:]
        t = hi * tables[stage] % p
        hi[...] = (lo - t) % p
        lo[...] = (lo + t) % p
        length <<= 1
        stage += 1
    if inverse:
        ninv = pow(n, p - 2, p)
        a *= ninv
        a %= p
    return a


def _to_array(coeff_lists, n):
    rows = len(coeff_lists)
    out = np.zeros((rows, n), dtype=np.int64)
    for i, c in enumerate(coeff_lists):
        if c:
            out[i, : len(c)] = c
    return out


def mul_ntt(a, b, p):
    """Product of two coefficient lists mod p."""
    la, lb = len(a), len(b)
    n = next_pow2(la + lb - 1)
    fa = _ntt_last_axis(_to_array([a], n), p, False)
    fb = _ntt_last_axis(_to_array([b], n), p, False)
    fa *= fb
    fa %= p
    _ntt_last_axis(fa, p, True)
    return fa[0, : la + lb - 1].tolist()


def matmul_ntt(a_grid, b_grid, p, out_len):
    """Batched product of coefficient-list grids: C_ij = sum_k A_ik * B_kj.

    a_grid is r x k of coefficient lists, b_grid is k x c; returns an r x c
    grid of coefficient lists of length out_len (untrimmed).
    """
    r, kk, c = len(a_grid), len(b_grid), len(b_grid[0])
    n = next_pow2(out_len)
    fa = np.zeros((r, kk, n), dtype=np.int64)
    for i in range(r):
        for k in range(kk):
            cs = a_grid[i][k]
            if cs:
                fa[i, k, : len(cs)] = cs
    fb = np.zeros((kk, c, n), dtype=np.int64)
    for k in range(kk):
        for j in range(c):
            cs = b_grid[k][j]
            if cs:
                fb[k, j, : len(cs)] = cs
    _ntt_last_axis(fa.reshape(r * kk, n), p, False)
    _ntt_last_axis(fb.reshape(kk * c, n), p, False)
    acc = np.zeros((r, c, n), dtype=np.int64)
    for k in range(kk):
        acc += fa[:, k, None, :] * fb[k][None, :, :] % p
    acc %= p
    _ntt_last_axis(acc.reshape(r * c, n), p, True)
    return [[acc[i, j, :out_len].tolist() for j in range(c)] for i in range(r)]
