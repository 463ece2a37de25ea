"""Independent audits of benchmark outputs.

An output's canonical text is compared with a stored digest on every call;
these audits are what a digest is checked against before it is stored, and
what replaces a stored digest for a seed that has none.  Products are formed
here by a schoolbook loop on coefficient lists, never by PolyMat.__mul__;
remainders come from pmat's brute-force oracle `naive_quorem`, which shares
no code with the division routines it checks.

Determinant-degree argument used for relation bases and Popov forms: if P is
in shifted Popov form, its rows lie in the module R being described, and the
sum of its pivot degrees (which is deg det P) equals deg det R, then P and R
differ by a unimodular factor and P is R's unique shifted Popov basis.  For a
Popov form of M, R is the row space of M.  For the relations of a square F
modulo M, deg det R = deg det M when det F is coprime to det M (F is then
invertible modulo M); this is checked here on F's own coefficients, by
evaluation, interpolation and Euclid's algorithm over F_p.
"""

import workloads


class AuditError(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise AuditError(what)


def product(pm, a, b):
    """a * b by a schoolbook loop over coefficient lists."""
    p = a.p
    rows = []
    for arow in a.rows:
        row = []
        for j in range(b.n):
            acc = []
            for x, brow in zip(arow, b.rows):
                x, y = x.c, brow[j].c
                if not (x and y):
                    continue
                if len(acc) < len(x) + len(y) - 1:
                    acc.extend([0] * (len(x) + len(y) - 1 - len(acc)))
                for u, xu in enumerate(x):
                    if xu:
                        for v, yv in enumerate(y):
                            acc[u + v] += xu * yv
            row.append([c % p for c in acc])
        rows.append(row)
    return pm.PolyMat.from_coeffs(p, rows)


def _pivot_degree_sum(m):
    return sum(len(m.rows[i][i].c) - 1 for i in range(m.m))


def _horner(c, x, p):
    acc = 0
    for v in reversed(c):
        acc = (acc * x + v) % p
    return acc


def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _det_poly(p, grid):
    """Coefficients of det of a square coefficient grid: values at
    0..N (N bounds the degree by column degrees), then Newton
    interpolation.  None when F_p has too few points."""
    n = len(grid)
    bound = sum(max(len(grid[i][j]) for i in range(n)) - 1 for j in range(n))
    xs = list(range(max(bound, 0) + 1))
    if len(xs) > p:
        return None
    dd = [workloads.det_mod(p, [[_horner(e, x, p) for e in row]
                                for row in grid])
          for x in xs]
    for k in range(1, len(xs)):  # divided differences, in place
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * pow(xs[i] - xs[i - k], p - 2, p) % p
    coeffs = [0]
    for i in range(len(xs) - 1, -1, -1):  # Horner on the Newton form
        coeffs = [(a - xs[i] * b) % p
                  for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] = (coeffs[0] + dd[i]) % p
    return _trim(coeffs)


def _coprime(p, a, b):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv, db = pow(b[-1], p - 2, p), len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            f = a[k] * inv % p
            if f:
                for i, bi in enumerate(b):
                    a[k - db + i] = (a[k - db + i] - f * bi) % p
        a, b = b, _trim(a[:db])
    return len(a) == 1


def _relation_basis(pm, basis, modulus, residues, shift):
    """Checks the rows of basis are relations of residues modulo modulus
    and that basis is in shifted Popov form."""
    _require(basis.m == basis.n == residues.m, "basis has the wrong shape")
    _require(pm.is_popov(basis, shift), "basis is not in shifted Popov form")
    rem = pm.naive_quorem(modulus, product(pm, basis, residues))[1]
    _require(rem.is_zero(), "basis rows are not relations")


def _verify(pm, basis, modulus, residues, shift):
    """The brute-force witness: every relation up to degree deg det M
    reduces to zero against the basis (affordable on small moduli only)."""
    _require(pm.verify_relation_basis(basis, modulus, residues, shift),
             "verify_relation_basis rejected the basis")
    return "verify_relation_basis"


def audit(pm, inst, texts):
    """Audit one call's outputs (canonical texts) against its inputs.
    Returns the audit's name; raises AuditError when the output is wrong."""
    p = inst.p
    ins = {k: pm.PolyMat.from_coeffs(p, g) for k, g in inst.grids.items()}
    outs = [pm.parse_pmat(t) for t in texts]
    entry = inst.entry
    if entry == "relations_mod_hermite":
        h, f = ins["H"], ins["F"]
        _relation_basis(pm, outs[0], h, f, inst.shift)
        det_f = _det_poly(p, inst.grids["F"])
        diagonal = [h.rows[j][j].c for j in range(h.n)]
        if det_f is None or not all(_coprime(p, det_f, d) for d in diagonal):
            return _verify(pm, outs[0], h, f, inst.shift)
        _require(_pivot_degree_sum(outs[0]) == _pivot_degree_sum(h),
                 "pivot degrees differ from deg det H")
        return ("is_popov + naive_quorem(H, P*F) = 0 + gcd(det F, det H) = 1"
                " + pivot degrees = deg det H")
    m = ins["M"]
    ddet = sum(d for d in pm.cdeg(m))  # m is column reduced by construction
    if entry == "relation_basis_general":
        _relation_basis(pm, outs[0], m, ins["F"], inst.shift)
        return "is_popov + naive_quorem(M, P*F) = 0 + " + _verify(
            pm, outs[0], m, ins["F"], inst.shift)
    if entry == "popov_form":
        pf = outs[0]
        _require(pm.is_popov(pf), "result is not in Popov form")
        # a Popov form is column reduced, so M can be divided by it
        _require(pm.naive_quorem(pf, m)[1].is_zero(),
                 "rows of M are not in the row space of the result")
        _require(_pivot_degree_sum(pf) == ddet, "determinant degree changed")
        return "is_popov + naive_quorem(P, M) = 0 + pivot degrees = deg det M"
    if entry == "quorem_auto":
        _require(pm.naive_quorem(m, ins["F"]) == tuple(outs),
                 "quotient and remainder differ from naive_quorem")
        return "naive_quorem(M, F) equal"
    if entry == "residual":
        rem = pm.naive_quorem(m, product(pm, ins["P"], ins["F"]))[1]
        _require(rem == outs[0], "residual differs from naive_quorem(M, P*F)")
        return "naive_quorem(M, P*F) equal"
    raise AuditError("no audit for entry point %r" % (entry,))
