"""Seeded instances for the benchmark workloads.

The generators draw plain coefficient grids (low-to-high lists) from
random.Random and never call pmat; `prepare` turns the grids into what an
entry point takes, and `call` runs one instance through the public API.
The instance list depends only on the workload name and the seed: every
shape, degree profile and instance count is fixed, the seed picks the
coefficients and the values of seeded shifts (except for the one
popov_form matrix, which is the same for every seed; see `instances`).
"""

import random
from dataclasses import dataclass, field

NTT_PRIME = 998244353  # p - 1 = 2^23 * 7 * 17, so products take the NTT path
WORD_PRIME = 1000003  # word-size, p - 1 = 2 * 3 * 166667: no NTT
SMALL_PRIME = 7

# Diagonal degree profiles of the Hermite moduli, total degree D.  A call
# takes under about a second, so that a run pairs enough calls with refpmat
# for a steady median (bench/README.md, "Scaled times").
N4_BALANCED = (64, 64, 64, 64)  # n=4, D=256
N4_UNBALANCED = (16, 32, 64, 144)  # n=4, D=256
N8_UNBALANCED = (4, 4, 8, 8, 16, 16, 32, 40)  # n=8, D=128
# Seeded shifts are drawn from [-4, 4]: wider ones change the recursion
# shape, and with it the amount of work, from one seed to the next.
SEEDED_SHIFT = 4

WORKLOADS = ("relations-ntt", "relations-word", "forms-division")


@dataclass
class Instance:
    entry: str
    label: str
    p: int
    grids: dict  # input name -> coefficient grid
    shift: tuple = None
    args: dict = field(default=None, repr=False)  # set by prepare()


def _coeffs(rng, p, n):
    return [rng.randrange(p) for _ in range(n)]


def det_mod(p, rows):
    """Determinant over F_p of a square matrix by plain elimination; it
    conditions the generators here and serves the audits."""
    a = [[v % p for v in r] for r in rows]
    det = 1
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], p - 2, p)
        for i in range(c + 1, len(a)):
            f = a[i][c] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def hermite_grid(rng, p, degs):
    """Upper triangular, monic diagonal of degrees degs, entries above the
    diagonal of degree below the diagonal entry of their column."""
    n = len(degs)
    return [[_coeffs(rng, p, degs[j]) + [1] if i == j
             else _coeffs(rng, p, degs[j]) if i < j else []
             for j in range(n)] for i in range(n)]


def residue_grid(rng, p, rows, degs):
    """rows x len(degs) grid with column j of degree below degs[j]."""
    return [[_coeffs(rng, p, d) for d in degs] for _ in range(rows)]


def column_reduced_grid(rng, p, degs):
    """Dense square grid with column j of degree at most degs[j], redrawn
    until the coefficients at degree degs[j] form an invertible matrix.
    The result is column reduced, so its determinant has degree sum(degs),
    which is what the audits use as the determinant-degree bound."""
    n = len(degs)
    while True:
        grid = [[_coeffs(rng, p, d + 1) for d in degs] for _ in range(n)]
        lead = [[grid[i][j][degs[j]] for j in range(n)] for i in range(n)]
        if det_mod(p, lead):
            return grid


def pmat_text(p, grid):
    """The pmat text format, written without pmat's own emitter."""
    lines = ["pmat %d %d %d" % (len(grid), len(grid[0]), p)]
    for i, row in enumerate(grid):
        for j, c in enumerate(row):
            if any(c):
                lines.append("%d %d : %s" % (i, j, " ".join(map(str, c))))
    return "\n".join(lines) + "\n"


def _relations(rng, p, degs, seeded_shift):
    n = len(degs)
    shift = (tuple(rng.randint(-SEEDED_SHIFT, SEEDED_SHIFT) for _ in degs)
             if seeded_shift else (0,) * n)
    return Instance(
        "relations_mod_hermite",
        "n=%d D=%d %s %s shift" % (
            n, sum(degs), "balanced" if len(set(degs)) == 1 else "unbalanced",
            "seeded" if seeded_shift else "zero"),
        p,
        {"H": hermite_grid(rng, p, degs), "F": residue_grid(rng, p, n, degs)},
        shift,
    )


def _popov(rng, p, n):
    return Instance("popov_form", "n=%d d=4" % n, p,
                    {"M": column_reduced_grid(rng, p, (4,) * n)})


def _relation_basis(rng, p, seeded_shift):
    shift = (tuple(rng.randint(-8, 8) for _ in range(4)) if seeded_shift
             else (0,) * 4)
    return Instance(
        "relation_basis_general",
        "n=4 d=24 %s shift" % ("seeded" if seeded_shift else "zero"), p,
        {"M": column_reduced_grid(rng, p, (24,) * 4),
         "F": residue_grid(rng, p, 4, (40,) * 4)},
        shift,
    )


MODULUS_DEGS = (4, 6, 8, 8, 10, 12)  # column degrees of the n=6 moduli


def _quorem(rng, p, fdeg):
    return Instance(
        "quorem_auto", "n=6 cdeg(F)<%d" % fdeg, p,
        {"M": column_reduced_grid(rng, p, MODULUS_DEGS),
         "F": residue_grid(rng, p, 6, (fdeg,) * 6)},
    )


def _residual(rng, p, high):
    degs = (high,) + MODULUS_DEGS[1:]  # one multiplier column of high degree
    return Instance(
        "residual", "n=6 cdeg(P)=%d" % high, p,
        {"M": column_reduced_grid(rng, p, MODULUS_DEGS),
         "P": residue_grid(rng, p, 6, degs),
         "F": residue_grid(rng, p, 6, MODULUS_DEGS)},
    )


def instances(workload, seed):
    """The fixed instance list of a workload, drawn from the seed.  The two
    relations workloads draw with the same keys, so at one seed they share
    shapes and shifts and differ only in the prime."""
    if workload == "forms-division":
        p, key = SMALL_PRIME, workload
        makers = [
            # The same matrix for every seed: at p = 7 a 12x12 popov_form
            # costs 0.25 s to 1.9 s depending on how many common factors
            # hermite_form meets, which alone spread wall_s between seeds
            # by more than its bound.  The key was not chosen by its cost.
            lambda r: _popov(random.Random("forms-division/popov"), p, 12),
            lambda r: _relation_basis(r, p, False),
            lambda r: _relation_basis(r, p, True),
            # three calls of one shape sit in the middle of a pass's call
            # times, which keeps the per-call median on them whichever side
            # of them the seed-dependent popov_form call lands
            lambda r: _quorem(r, p, 130),
            lambda r: _quorem(r, p, 130),
            lambda r: _quorem(r, p, 130),
            lambda r: _residual(r, p, 260),
        ]
    elif workload in ("relations-ntt", "relations-word"):
        p = NTT_PRIME if workload == "relations-ntt" else WORD_PRIME
        key = "relations"
        makers = [
            lambda r: _relations(r, p, N4_BALANCED, False),
            lambda r: _relations(r, p, N8_UNBALANCED, False),
            lambda r: _relations(r, p, N4_UNBALANCED, True),
        ]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return [make(random.Random("%s/%d/%d" % (key, seed, k)))
            for k, make in enumerate(makers)]


def warmup_instances(workload):
    """Small instances touching every entry point and code path of the
    workload at its prime, run once during set-up."""
    rng = random.Random("warmup/" + workload)
    if workload == "forms-division":
        p = SMALL_PRIME
        return [
            _popov(rng, p, 3),
            Instance("relation_basis_general", "warm-up", p,
                     {"M": column_reduced_grid(rng, p, (6, 6)),
                      "F": residue_grid(rng, p, 2, (8, 8))}, (0, 0)),
            Instance("quorem_auto", "warm-up", p,
                     {"M": column_reduced_grid(rng, p, (3, 5)),
                      "F": residue_grid(rng, p, 2, (40, 40))}),
            Instance("residual", "warm-up", p,
                     {"M": column_reduced_grid(rng, p, (3, 5)),
                      "P": residue_grid(rng, p, 2, (40, 3)),
                      "F": residue_grid(rng, p, 2, (3, 5))}),
        ]
    p = NTT_PRIME if workload == "relations-ntt" else WORD_PRIME
    return [_relations(rng, p, (96, 160), True)]


def prepare(pm, inst):
    """Relations inputs become matrices; forms inputs stay pmat text, so
    parse_pmat runs inside the timed call."""
    if inst.entry == "relations_mod_hermite":
        inst.args = {k: pm.PolyMat.from_coeffs(inst.p, g)
                     for k, g in inst.grids.items()}
    else:
        inst.args = {k: pmat_text(inst.p, g) for k, g in inst.grids.items()}
    return inst


def call(pm, inst):
    """Run one instance; entry points are looked up on the package at call
    time so that a traced pass sees the rebound names."""
    a = inst.args
    entry = inst.entry
    if entry == "relations_mod_hermite":
        return pm.relations_mod_hermite(a["H"], a["F"], inst.shift)
    parse, emit = pm.parse_pmat, pm.emit_pmat
    if entry == "popov_form":
        return (emit(pm.popov_form(parse(a["M"]))),)
    if entry == "relation_basis_general":
        return (emit(pm.relation_basis_general(parse(a["M"]), parse(a["F"]),
                                               inst.shift)),)
    if entry == "quorem_auto":
        q, r = pm.quorem_auto(parse(a["M"]), parse(a["F"]))
        return (emit(q), emit(r))
    if entry == "residual":
        return (emit(pm.residual(parse(a["M"]), parse(a["P"]),
                                 parse(a["F"]))),)
    raise ValueError("unknown entry point %r" % (entry,))


def canonical_texts(pm, out):
    """Canonical pmat text of every output matrix of one call."""
    return out if isinstance(out, tuple) else (pm.emit_pmat(out),)
