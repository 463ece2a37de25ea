import random

import pytest

import pmat.cli as cli_mod
from pmat import (
    ParseError,
    PolyMat,
    approximant_basis_popov,
    relation_basis_general,
    relations_mod_hermite,
    residual,
)
from pmat.cli import MAX_ENTRIES, emit_pmat, main, parse_pmat
from pmat.poly import is_prime

from .helpers import rnd_polymat

M = PolyMat.from_coeffs


def write(tmp_path, name, mat):
    path = tmp_path / name
    path.write_text(emit_pmat(mat), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_worked_example():
    m = parse_pmat("pmat 1 1 7\n0 0 : 1 0 1")
    assert m == M(7, [[[1, 0, 1]]])


def test_parse_comments_and_omissions():
    text = """
# a comment line
pmat 2 2 7   # trailing comment
1 1 : 3      # only one explicit entry
"""
    m = parse_pmat(text)
    assert m == M(7, [[[], []], [[], [3]]])


def test_round_trip_random():
    rng = random.Random(21)
    for _ in range(20):
        p = rng.choice([2, 7, 998244353])
        m = rnd_polymat(rng, p, rng.randrange(0, 4), rng.randrange(1, 4),
                        rng.randrange(0, 6))
        assert parse_pmat(emit_pmat(m)) == m


def test_emit_is_canonical():
    messy = "pmat 2 2 7\n1 0 : 4\n# hi\n0 0 :   2 0 5\n\n1 1 :\n"
    out = emit_pmat(parse_pmat(messy))
    assert out == "pmat 2 2 7\n0 0 : 2 0 5\n1 0 : 4\n"
    assert emit_pmat(PolyMat.zero(7, 2, 3)) == "pmat 2 3 7\n"


def test_parse_error_reporting():
    with pytest.raises(ParseError) as e:
        parse_pmat("pmat 1 1\n")
    assert e.value.line == 1 and "line 1" in str(e.value)
    with pytest.raises(ParseError, match="line 2.*not in"):
        parse_pmat("pmat 1 1 7\n0 0 : 9")
    with pytest.raises(ParseError, match="duplicate"):
        parse_pmat("pmat 1 1 7\n0 0 : 1\n0 0 : 2")
    with pytest.raises(ParseError, match="not prime"):
        parse_pmat("pmat 1 1 6\n")
    # a strong pseudoprime to every fixed Miller-Rabin witness
    with pytest.raises(ParseError, match="line 1.*not prime"):
        parse_pmat("pmat 1 1 3317044064679887385961981\n0 0 : 1\n")
    with pytest.raises(ParseError, match="outside"):
        parse_pmat("pmat 1 1 7\n0 1 : 1")
    with pytest.raises(ParseError, match="no header"):
        parse_pmat("# nothing here\n")
    with pytest.raises(ParseError, match="expected"):
        parse_pmat("pmat 1 1 7\n0 0 1")


def test_parse_rejects_oversized_header():
    # checked from the header alone, before any grid is allocated
    with pytest.raises(ParseError, match="line 1.*more than %d" % MAX_ENTRIES):
        parse_pmat("pmat 1000000 1000000 7\n")
    with pytest.raises(ParseError, match="more than"):
        parse_pmat("pmat 1 %d 7\n" % (MAX_ENTRIES + 1))
    assert parse_pmat("pmat 0 %d 7\n" % (10 * MAX_ENTRIES)).m == 0


def test_parse_refuses_huge_modulus_before_primality(monkeypatch):
    # is_prime(2^11213 - 1) alone runs for most of a minute
    tested = []

    def spy(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli_mod, "is_prime", spy)
    for huge in (2**11213 - 1, 2**1024 + 643, 2**1025):
        with pytest.raises(ParseError, match="line 1.*more than 1024 bits"):
            parse_pmat("pmat 1 1 %d\n0 0 : 1\n" % huge)
    assert not tested
    # the largest prime below 2^1024, and 2^521 - 1, stay accepted
    for prime in (2**1024 - 105, 2**521 - 1):
        assert parse_pmat("pmat 1 1 %d\n0 0 : 1\n" % prime).p == prime
    assert tested == [2**1024 - 105, 2**521 - 1]


def test_cli_quorem(tmp_path, capsys):
    mfile = write(tmp_path, "m.pmat", M(7, [[[0, 1], [1]], [[], [0, 1]]]))
    ffile = write(tmp_path, "f.pmat", M(7, [[[0, 1], []]]))
    code, out, _ = run(capsys, ["quorem", mfile, ffile])
    assert code == 0
    head, tail = out.split("# remainder")
    assert head.startswith("# quotient")
    assert parse_pmat(head) == M(7, [[[1], []]])
    assert parse_pmat(tail) == M(7, [[[], [6]]])


def test_cli_residual(tmp_path, capsys):
    m = M(7, [[[0, 0, 1]]])
    p = M(7, [[[0, 1]], [[1]]])
    f = M(7, [[[1]]])
    argv = ["residual", write(tmp_path, "m.pmat", m),
            write(tmp_path, "p.pmat", p), write(tmp_path, "f.pmat", f)]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert parse_pmat(out) == residual(m, p, f)


def test_cli_relations(tmp_path, capsys):
    m = M(7, [[[0, 1], [1]], [[], [0, 1]]])
    f = PolyMat.identity(7, 2)
    mfile = write(tmp_path, "m.pmat", m)
    ffile = write(tmp_path, "f.pmat", f)
    code, out, _ = run(capsys, ["relations", mfile, ffile, "--shift", "0,0"])
    assert code == 0
    assert parse_pmat(out) == relation_basis_general(m, f, (0, 0))
    code2, out2, _ = run(capsys, ["relations", mfile, ffile,
                                  "--assume-hermite"])
    assert code2 == 0
    assert parse_pmat(out2) == relations_mod_hermite(m, f, (0, 0))


def test_cli_assume_hermite_reduces_and_cleans(tmp_path, capsys):
    # an oversized F and an identity column are both absorbed by the flag
    m = M(7, [[[1], [2]], [[], [0, 0, 1]]])
    f = M(7, [[[0, 0, 0, 1], [0, 0, 0, 2]]])
    argv = ["relations", write(tmp_path, "m.pmat", m),
            write(tmp_path, "f.pmat", f), "--assume-hermite"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert parse_pmat(out) == relation_basis_general(m, f, (0,))


def test_cli_relations_rejects_non_hermite(tmp_path, capsys):
    m = M(7, [[[1, 1], [0, 1]], [[0, 1], [0, 1]]])
    f = PolyMat.identity(7, 2)
    argv = ["relations", write(tmp_path, "m.pmat", m),
            write(tmp_path, "f.pmat", f), "--assume-hermite"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == "" and "error" in err


def test_cli_approx_broadcasts_single_order(tmp_path, capsys):
    rng = random.Random(22)
    g = rnd_polymat(rng, 7, 3, 2, 2)
    gfile = write(tmp_path, "g.pmat", g)
    code, out, _ = run(capsys, ["approx", gfile, "--order", "3"])
    code2, out2, _ = run(capsys, ["approx", gfile, "--order", "3,3",
                                  "--shift", "0,0,0"])
    assert code == 0 and code2 == 0 and out == out2
    basis, _ = approximant_basis_popov(g, (3, 3), (0, 0, 0))
    assert parse_pmat(out) == basis


def test_cli_approx_caps_basis_size(tmp_path, capsys, monkeypatch):
    # the cap is checked before the library is reached, so an oversized
    # order fails fast instead of allocating its basis
    import pmat.cli as cli
    reached = []

    def spy(g, tau, u):
        if g.m * sum(tau) > MAX_ENTRIES:
            raise AssertionError("oversized order reached the library")
        reached.append(tuple(tau))
        return PolyMat.identity(g.p, g.m), (0,) * g.m

    monkeypatch.setattr(cli, "approximant_basis_popov", spy)
    one = write(tmp_path, "one.pmat", M(7, [[[1]]]))
    two = write(tmp_path, "two.pmat", M(7, [[[1], [2]], [[3], [4]]]))
    for argv in (["approx", one, "--order", str(10 ** 12)],
                 ["approx", one, "--order", str(MAX_ENTRIES + 1)],
                 ["approx", two, "--order", str(MAX_ENTRIES // 4 + 1)],
                 ["approx", two, "--order", "%d,1" % (MAX_ENTRIES // 2)]):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "exceed %d coefficients" % MAX_ENTRIES in err
    # at the cap the call goes through
    for argv in (["approx", one, "--order", str(MAX_ENTRIES)],
                 ["approx", two, "--order", str(MAX_ENTRIES // 4)]):
        code, _, _ = run(capsys, argv)
        assert code == 0
    assert reached == [(MAX_ENTRIES,), (MAX_ENTRIES // 4,) * 2]


def test_cli_popov_worked_example(tmp_path, capsys):
    mfile = write(tmp_path, "m.pmat",
                  M(7, [[[1, 1], [0, 1]], [[0, 1], [0, 1]]]))
    code, out, _ = run(capsys, ["popov", mfile])
    assert code == 0
    assert parse_pmat(out) == M(7, [[[1], []], [[], [0, 1]]])


def test_cli_hermite_worked_example(tmp_path, capsys):
    mfile = write(tmp_path, "m.pmat", M(7, [[[0, 1], []], [[1], [1]]]))
    code, out, _ = run(capsys, ["hermite", mfile])
    assert code == 0
    assert parse_pmat(out) == M(7, [[[1], [1]], [[], [0, 1]]])


def test_cli_check(tmp_path, capsys):
    hermite = write(tmp_path, "h.pmat", M(7, [[[1], [1]], [[], [0, 1]]]))
    code, out, _ = run(capsys, ["check", "--hermite", hermite])
    assert code == 0 and out == "true\n"
    not_h = write(tmp_path, "n.pmat", M(7, [[[0, 1], []], [[1], [1]]]))
    code, out, _ = run(capsys, ["check", "--hermite", not_h])
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, ["check", "--popov", hermite])
    assert code == 1 and out == "false\n"
    code, out, _ = run(capsys, ["check", "--reduced", hermite])
    assert code == 0 and out == "true\n"


def test_cli_check_signed_shift(tmp_path, capsys):
    # [[x, 1]] stacked as 1x2; with shift (0, 5) the right column leads
    mfile = write(tmp_path, "m.pmat", M(7, [[[0, 1], [1]]]))
    code, out, _ = run(capsys, ["check", "--reduced", mfile,
                                "--shift", "0,5"])
    assert code == 0 and out == "true\n"
    code, out, _ = run(capsys, ["check", "--popov", mfile,
                                "--shift", "-1,-5"])
    assert code in (0, 1) and out in ("true\n", "false\n")


def test_cli_popov_signed_shift_matches_library(tmp_path, capsys):
    from pmat import popov_form

    m = M(7, [[[1, 1], [0, 1]], [[0, 1], [0, 1]]])
    mfile = write(tmp_path, "m.pmat", m)
    code, out, _ = run(capsys, ["popov", mfile, "--shift", "-3,2"])
    assert code == 0
    assert parse_pmat(out) == popov_form(m, (-3, 2))


def test_cli_exit_codes(tmp_path, capsys):
    good = write(tmp_path, "m.pmat", M(7, [[[0, 1]]]))
    code, _, err = run(capsys, ["hermite", str(tmp_path / "absent.pmat")])
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.pmat"
    bad.write_text("pmat 1 1 6\n", encoding="utf-8")
    code, _, err = run(capsys, ["hermite", str(bad)])
    assert code == 2 and "not prime" in err
    singular = write(tmp_path, "s.pmat", M(7, [[[0, 1], [0, 1]],
                                               [[0, 1], [0, 1]]]))
    code, _, err = run(capsys, ["popov", singular])
    assert code == 3 and "error" in err
    wide = write(tmp_path, "w.pmat", M(7, [[[1], [2]]]))
    code, _, err = run(capsys, ["quorem", singular, wide])
    assert code == 3 and "error" in err  # not column reduced
    other = write(tmp_path, "o.pmat", M(11, [[[1]]]))
    code, _, err = run(capsys, ["quorem", good, other])
    assert code == 2 and "moduli" in err
    code, _, err = run(capsys, ["popov", good, "--shift", "1,2"])
    assert code == 2 and "shift" in err


def test_cli_output_is_deterministic(tmp_path, capsys):
    rng = random.Random(23)
    m = rnd_polymat(rng, 7, 3, 3, 3)
    mfile = write(tmp_path, "m.pmat", m)
    runs = [run(capsys, ["check", "--reduced", mfile]) for _ in range(2)]
    assert runs[0] == runs[1]
    h = M(7, [[[0, 1], []], [[1], [1]]])
    hfile = write(tmp_path, "h.pmat", h)
    outs = {run(capsys, ["hermite", hfile])[1] for _ in range(3)}
    assert len(outs) == 1
