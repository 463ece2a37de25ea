"""Two names the benchmark's tracer looks up, on the one kernel.

bench/tracer.py looks up mul_ntt and matmul_ntt; nothing in the package
calls them.  Both compute their products by Kronecker substitution, the
one multiplication kernel (poly.mul_coeffs and the PolyMat product), so
they hold at every prime.  They go when the benchmark retires its ntt
targets (ROADMAP item 1a).
"""

from .poly import mul_coeffs
from .polymat import PolyMat


def mul_ntt(a, b, p):
    """Product of two coefficient lists mod p ([] if either is empty)."""
    return mul_coeffs(a, b, p)


def matmul_ntt(a_grid, b_grid, p, out_len):
    """Batched product of coefficient-list grids: C_ij = sum_k A_ik * B_kj.

    a_grid is r x k of coefficient lists, b_grid is k x c; returns an r x c
    grid of coefficient lists of length out_len (untrimmed).
    """
    c = PolyMat.from_coeffs(p, a_grid) * PolyMat.from_coeffs(p, b_grid)
    return [[list(e.c[:out_len]) + [0] * (out_len - len(e.c)) for e in row]
            for row in c.rows]
