"""Command line front end and the pmat text format.

A matrix file is a header line `pmat <rows> <cols> <modulus>` followed by
entry lines `<row> <col> : <c0> <c1> ...` with coefficients low to high,
already reduced into [0, modulus).  `#` starts a comment, omitted entries
are zero, duplicate entries are an error.  A header may declare at most
MAX_ENTRIES (10^6) entries, rows * cols with a row counted as at least
one entry, since the parser builds the full grid, empty rows included;
`pmat approx` caps rows * (sum of the orders) the same way, since the
basis's column degrees add up to at most that sum.  A header modulus
above 1024 bits is refused before its primality test, which costs about
0.06 s at that size and grows with the cube of the size.  Emission is
canonical: entries sorted by row then column, zero entries skipped, no
comments."""

import argparse
import sys

from .errors import ParseError, PreconditionError, ShapeError
from .poly import Poly, _trim, is_prime
from .polymat import PolyMat, is_hermite, is_popov, is_reduced
from .division import MAX_ENTRIES, quorem_auto, residual
from .approx import approximant_basis_popov
from .relations import hermite_form, popov_form, relation_basis_general


_MAX_MODULUS_BITS = 1024  # bit size of the largest header modulus


def parse_pmat(text):
    """Parse one matrix in the pmat text format."""
    header = None
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if header is None:
            if len(toks) != 4 or toks[0] != "pmat":
                raise ParseError("expected 'pmat <rows> <cols> <modulus>'",
                                 lineno)
            try:
                rows, cols, modulus = (int(t) for t in toks[1:])
            except ValueError:
                raise ParseError("header fields must be integers",
                                 lineno) from None
            if rows < 0 or cols < 0:
                raise ParseError("negative dimensions", lineno)
            if rows * max(cols, 1) > MAX_ENTRIES:
                raise ParseError("%dx%d matrix has more than %d entries"
                                 % (rows, cols, MAX_ENTRIES), lineno)
            if modulus.bit_length() > _MAX_MODULUS_BITS:
                raise ParseError("modulus has more than %d bits"
                                 % _MAX_MODULUS_BITS, lineno)
            if modulus < 2 or not is_prime(modulus):
                raise ParseError("modulus %d is not prime" % modulus, lineno)
            header = (rows, cols, modulus)
            continue
        if len(toks) < 3 or toks[2] != ":":
            raise ParseError("expected '<row> <col> : <coefficients>'",
                             lineno)
        try:
            i, j = int(toks[0]), int(toks[1])
            coeffs = list(map(int, toks[3:]))
        except ValueError:
            raise ParseError("entry fields must be integers", lineno) from None
        rows, cols, modulus = header
        if not (0 <= i < rows and 0 <= j < cols):
            raise ParseError("entry (%d, %d) outside a %dx%d matrix"
                             % (i, j, rows, cols), lineno)
        if (i, j) in entries:
            raise ParseError("duplicate entry (%d, %d)" % (i, j), lineno)
        if coeffs and (min(coeffs) < 0 or max(coeffs) >= modulus):
            bad = next(c for c in coeffs if not 0 <= c < modulus)
            raise ParseError("coefficient %d not in [0, %d)"
                             % (bad, modulus), lineno)
        entries[(i, j)] = Poly._make(modulus, _trim(tuple(coeffs)))
    if header is None:
        raise ParseError("no header line found")
    rows, cols, modulus = header
    # every coefficient is range-checked above, so the entries are built
    # reduced and trimmed, with no second pass over them
    zero = Poly.zero(modulus)
    return PolyMat._make(modulus, tuple(
        tuple(entries.get((i, j), zero) for j in range(cols))
        for i in range(rows)))


def emit_pmat(m):
    """Canonical text for a matrix; parse_pmat(emit_pmat(m)) == m."""
    lines = ["pmat %d %d %d" % (m.m, m.n, m.p)]
    for i in range(m.m):
        for j in range(m.n):
            e = m.rows[i][j]
            if e.c:
                lines.append("%d %d : %s"
                             % (i, j, " ".join(map(str, e.c))))
    return "\n".join(lines) + "\n"


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_pmat(fh.read())


def _load_same_field(paths):
    mats = [_load(p) for p in paths]
    for m in mats[1:]:
        if m.p != mats[0].p:
            raise ShapeError("input files use different moduli")
    return mats


def _parse_shift(text, length):
    if text is None:
        return [0] * length
    try:
        shift = [int(t) for t in text.split(",")]
    except ValueError:
        raise ShapeError("shift must be comma-separated integers") from None
    if len(shift) != length:
        raise ShapeError("shift has %d entries, expected %d"
                         % (len(shift), length))
    return shift


def _cmd_quorem(args):
    m, f = _load_same_field([args.modulus, args.input])
    q, r = quorem_auto(m, f)
    sys.stdout.write("# quotient\n" + emit_pmat(q))
    sys.stdout.write("\n# remainder\n" + emit_pmat(r))
    return 0


def _cmd_residual(args):
    m, p, f = _load_same_field([args.modulus, args.basis, args.input])
    sys.stdout.write(emit_pmat(residual(m, p, f)))
    return 0


def _cmd_relations(args):
    m, f = _load_same_field([args.modulus, args.input])
    shift = _parse_shift(args.shift, f.m)
    # the flag only checks M: hermite_form leaves a Hermite form unchanged
    if args.assume_hermite and not is_hermite(m):
        raise PreconditionError("modulus is not in triangular normal form")
    result = relation_basis_general(m, f, shift)
    sys.stdout.write(emit_pmat(result))
    return 0


def _cmd_approx(args):
    g = _load(args.input)
    try:
        tau = [int(t) for t in args.order.split(",")]
    except ValueError:
        raise ShapeError("orders must be comma-separated integers") from None
    shift = _parse_shift(args.shift, g.m)
    if len(tau) == 1 and g.n != 1:
        tau = tau * g.n
    if g.m * sum(tau) > MAX_ENTRIES:
        raise ShapeError("%d rows times orders summing to %d exceed %d "
                         "coefficients" % (g.m, sum(tau), MAX_ENTRIES))
    basis, _ = approximant_basis_popov(g, tau, shift)
    sys.stdout.write(emit_pmat(basis))
    return 0


def _cmd_popov(args):
    m = _load(args.input)
    shift = _parse_shift(args.shift, m.n)
    sys.stdout.write(emit_pmat(popov_form(m, shift)))
    return 0


def _cmd_hermite(args):
    m = _load(args.input)
    sys.stdout.write(emit_pmat(hermite_form(m)))
    return 0


def _cmd_check(args):
    m = _load(args.input)
    if args.popov:
        shift = _parse_shift(args.shift, m.n)
        ok = is_popov(m, shift)
    elif args.hermite:
        ok = is_hermite(m)
    else:
        shift = _parse_shift(args.shift, m.n)
        ok = is_reduced(m, shift)
    sys.stdout.write("true\n" if ok else "false\n")
    return 0 if ok else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="pmat",
        description="Exact polynomial matrix computations over a prime field.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quorem",
                       help="divide F by a column reduced M: F = Q*M + R")
    q.add_argument("modulus", help="pmat file holding M")
    q.add_argument("input", help="pmat file holding F")
    q.set_defaults(func=_cmd_quorem)

    r = sub.add_parser("residual", help="remainder of P*F modulo M")
    r.add_argument("modulus", help="pmat file holding M")
    r.add_argument("basis", help="pmat file holding P")
    r.add_argument("input", help="pmat file holding F (reduced modulo M)")
    r.set_defaults(func=_cmd_residual)

    rel = sub.add_parser("relations",
                         help="shifted Popov basis of {p : p*F = 0 mod M}")
    rel.add_argument("modulus", help="pmat file holding M (nonsingular)")
    rel.add_argument("input", help="pmat file holding F")
    rel.add_argument("--shift", help="comma-separated shift, one per F row")
    rel.add_argument("--assume-hermite", action="store_true",
                     help="M must already be in Hermite form (upper "
                          "triangular, monic diagonal, reduced above it); "
                          "otherwise exit with code 3")
    rel.set_defaults(func=_cmd_relations)

    ap = sub.add_parser("approx",
                        help="shifted Popov approximant basis at given orders")
    ap.add_argument("input", help="pmat file holding the system G")
    ap.add_argument("--order", required=True,
                    help="comma-separated orders, one per column "
                         "(a single value is used for all columns)")
    ap.add_argument("--shift", help="comma-separated shift, one per G row")
    ap.set_defaults(func=_cmd_approx)

    po = sub.add_parser("popov",
                        help="shifted Popov form of a nonsingular matrix")
    po.add_argument("input", help="pmat file holding M")
    po.add_argument("--shift", help="comma-separated shift, one per column")
    po.set_defaults(func=_cmd_popov)

    he = sub.add_parser("hermite",
                        help="triangular canonical form of a nonsingular matrix")
    he.add_argument("input", help="pmat file holding M")
    he.set_defaults(func=_cmd_hermite)

    ck = sub.add_parser("check", help="test a normal form property")
    group = ck.add_mutually_exclusive_group(required=True)
    group.add_argument("--popov", action="store_true")
    group.add_argument("--hermite", action="store_true")
    group.add_argument("--reduced", action="store_true")
    ck.add_argument("input", help="pmat file to test")
    ck.add_argument("--shift", help="comma-separated shift, one per column")
    ck.set_defaults(func=_cmd_check)

    return top


def _glue_signed_values(argv):
    """argparse reads a detached '-5,3' as an option string, so join signed
    shift and order values onto their flag with '='."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in ("--shift", "--order") and i + 1 < len(argv)
                and argv[i + 1][:1] == "-" and argv[i + 1][1:2].isdigit()):
            out.append(tok + "=" + argv[i + 1])
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_glue_signed_values(list(argv)))
    try:
        return args.func(args)
    except (ParseError, ShapeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
