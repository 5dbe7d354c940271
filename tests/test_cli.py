"""End-to-end command-line checks: exit codes, file formats, determinism."""

import argparse
import ast
import csv
import hashlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import mixed_file_text
from errlab import cli, decomposition
from errlab.cli import main
from errlab.errors import LogCaseError
from errlab.exactnum import ConstLinear, GaussianRational
from errlab.piecewise import monomial
from errlab.sequences import (convolve_id, mobius_sieve, read_sequence_csv, totient_sieve,
                              write_sequence_csv)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def rows_of(path):
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r]


# SHA-256 of the CSV each config writes, pinned so that refactors keep the
# output byte for byte; "{b}" is a b-file with b(13) off by one.
GOLDEN_OUTPUTS = {
    "verify_mu": (["verify", "--seq", "mu", "--X", "20", "--A", "0", "--A", "3/2+1/2*i"], 0,
                  "0849dee994a5745437c8baffec6a7c32f01e0c5fadf4c349dd0261935b6b0284"),
    "verify_mu_chi": (["verify", "--seq", "mu_chi", "--D", "-4", "--X", "20"], 0,
                      "cd4c0c484abc00d3c35559891cc097f923c98088160d48c3408ca4f4c4b29f8f"),
    "verify_b_file": (["verify", "--seq", "mu", "--X", "20", "--b-file", "{b}"], 1,
                      "8384be2ef7ff25ead15e186a3ab15b9d4414ac8de37da7b56a25c472182031f4"),
    "table_mu": (["table", "--seq", "mu", "--X", "30"], 0,
                 "71f46c784395e26c393ba8efe1b882e79751973d56040c72bb0e254dd4066648"),
    "table_mu_chi": (["table", "--seq", "mu_chi", "--D", "-3", "--X", "30"], 0,
                     "1b26a75e83c3a9893b9337c4239baf7e25b31fca4857a8f55650bf57ddbcf537"),
    "table_mu_numeric": (["table", "--seq", "mu", "--X", "30", "--mode", "numeric",
                          "--precision", "1e-4"], 0,
                         "718bb5aeb1cf59a1ce823a3e8887cf6d9a0c6e77efb698ad24175bc97fa9b7a8"),
    "table_mu_chi_numeric": (["table", "--seq", "mu_chi", "--D", "-3", "--X", "30",
                              "--mode", "numeric", "--precision", "1e-4"], 0,
                             "c1b1f5ce9160c95d89f7f3abb79491a67ccd4c9364ec01b5310671d53e65a198"),
    # the bench's table_numeric config: a 10^7 sieve behind the a2 header
    "table_mu_chi_numeric_1e-7": (["table", "--seq", "mu_chi", "--D", "-3", "--X", "100",
                                   "--mode", "numeric", "--precision", "1e-7"], 0,
                                  "290f9c701488fc5a0afaee09dc5f0c778b9ee1b70374a1e3c551f6139c36380f"),
    # the scale of the scalar kernel: lcm(1..1000)-type denominators; the
    # first two are the bench's verify_mu and table_chi configs
    "verify_mu_100_complex_A": (["verify", "--seq", "mu", "--X", "100", "--A=0/1",
                                 "--A=3/2+1/2*i"], 0,
                                "9e836e37e44a0f7589b0525c22d6db1aa03dc773ceb45b920757dc9221d46613"),
    "table_mu_chi_1000": (["table", "--seq", "mu_chi", "--D", "-3", "--X", "1000"], 0,
                          "65a7cbc5242f1946934896a5a8c8d75605f44f233c47152964b92eb760a4715d"),
    "verify_mu_1000": (["verify", "--seq", "mu", "--X", "1000"], 0,
                       "d5f982c608454807ffb958e08c9202cf5316d4b00f156ddcf3425dc4f391c4aa"),
    # the sieve and solve writers; "{seq}" holds rational and complex values,
    # "{dump}" complex and symbolic coefficients, "{real_dump}" real scalars
    "sieve_mu_1000": (["sieve", "--seq", "mu", "--N", "1000"], 0,
                      "4f9f228e507b6854219c8765a47c300dd1ffecfa3a575d09e718c26207639ddd"),
    "sieve_character_-3": (["sieve", "--seq", "mu_chi", "--D", "-3", "--emit", "character"], 0,
                           "1751751677b430857a02894261f34421d1252cb70cae90d617a735c714de1093"),
    "sieve_file_gaussian": (["sieve", "--seq", "file:{seq}", "--N", "10"], 0,
                            "66285be4f529771cf74ddd91d5bbca0ba1d2b0c74d2553525ba26bd4aca0e84e"),
    # "{mixed}" holds ints, Fractions and complex values in one file
    "sieve_file_mixed": (["sieve", "--seq", "file:{mixed}", "--N", "36"], 0,
                         "b38fcac672faf1fc51546315d7fb35c21c271a5acdfe25243749eaf1d774f30c"),
    "verify_file_mixed": (["verify", "--seq", "file:{mixed}", "--denom", "2"], 0,
                          "9c54723ba8db3a622721f8704cf4e81705c36da49d9fdc2aa7be6cab6e276e6f"),
    "solve_exact_complex_A": (["solve", "--input", "{dump}", "--A", "3/2+1/2*i",
                               "--denom", "4"], 0,
                              "29c6afc07ad7f7a75191b2a6e323c2fbd0f4bd2e021a698209f5ec5e23377eb3"),
    "solve_numeric": (["solve", "--input", "{real_dump}", "--mode", "numeric", "--A=-2/3",
                       "--denom", "5"], 0,
                      "e8eda2257eca3428c2da68ab0fef193c7eb7ed326284f3eb629d28002696dad8"),
}

GOLDEN_SEQ = "n,value\n1,1/1\n2,-1/2\n3,3/2+1/2*i\n4,0/1\n5,-2/3+-5/4*i\n6,7/1\n7,0/1+1/9*i\n"
GOLDEN_DUMP = ("X: 7/2\n"
               "0: e2=1/2 + 1/3*A2 + 0/1*A1; e3=-1/5+1/7*i + 0/1*A2 + 2/1*A1\n"
               "1: e-2=3/1 + 0/1*A2 + 0/1*A1; e0=-1/1 + 1/1*A2 + 0/1*A1; "
               "e2=1/1 + 0/1*A2 + -1/6*A1\n"
               "2: e-1=1/2 + 0/1*A2 + 0/1*A1; e3=0/1+2/3*i + 0/1*A2 + 0/1*A1\n"
               "3: e0=5/1 + -1/2*A2 + 1/1*A1\n")
GOLDEN_REAL_DUMP = ("X: 5/2\n"
                    "0: e2=1/2 + 0/1*A2 + 0/1*A1; e3=-1/5 + 0/1*A2 + 0/1*A1\n"
                    "1: e-2=3/1 + 0/1*A2 + 0/1*A1; e0=-1/1 + 0/1*A2 + 0/1*A1\n"
                    "2: e-1=1/2 + 0/1*A2 + 0/1*A1; e3=2/3 + 0/1*A2 + 0/1*A1\n")


def golden_argv(name, tmp_path):
    """The argv of a golden config with its input files written to tmp_path."""
    bfile = tmp_path / "b.csv"
    phi = totient_sieve(20)
    bfile.write_text("n,value\n" + "".join(
        f"{n},{phi.value(n) + (1 if n == 13 else 0)}/1\n" for n in range(1, 21)))
    inputs = {"b": bfile}
    for key, text in (("seq", GOLDEN_SEQ), ("dump", GOLDEN_DUMP),
                      ("real_dump", GOLDEN_REAL_DUMP), ("mixed", mixed_file_text())):
        inputs[key] = tmp_path / f"{key}.txt"
        inputs[key].write_text(text)
    return [s.format(**inputs) for s in GOLDEN_OUTPUTS[name][0]]


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_golden_output_bytes(name, tmp_path, capsys):
    _, expect_code, digest = GOLDEN_OUTPUTS[name]
    out = tmp_path / "out.csv"
    code, _, _ = run(golden_argv(name, tmp_path) + ["-o", str(out)], capsys)
    assert code == expect_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of the CSV `verify --seq mu --X 20` writes from a b-file with b(n)
# off by one, per n; the first failing row is then volterra[A=0/1] at x = n
FAILING_VERIFY_DIGESTS = {
    9: "def4ad1c3e575aad5a5cb421d017d78926aab57c18a7da0acb1cbb811ba93c4d",
    10: "c2a785a15db98ea947aaf49d58a4c1548e46fa810ba733b6e8df1f5dd192e449",
    11: "217d593972369afb8ea9be1913bb804dce2020da6d3e44b7350fa56b04ebb70d",
    12: "7b74fe8df58e598142042d888012a98b8072392a46fa53530dc86df23def5162",
    13: "8384be2ef7ff25ead15e186a3ab15b9d4414ac8de37da7b56a25c472182031f4",
    14: "84944ddc22b799eabf4fd340af95aba087ae316d823909ac7050cd34b25f50a7",
    15: "87acc6ab5e54b9f81f9b2fdd498174cc408b3c3dd9273e9153407b4913e52c14",
    16: "fe7625cfc9413edd966da5e9275cd2ee6a1f43d0a91c0a4e763c177d71925d2a",
    17: "4c83a3635c831e9f92609808a58d76772b7f2d398467a8909de8d92221fde973",
    18: "83e1570d884b02b21dc6d05b619ac22b267598a68d6540f044cc017f9f921863",
    19: "af9b5387c603481602a1e54afa2cbf7422fe01696e16d403410439ba54b7bf7a",
    20: "d0ce4ec78e213521df51a1d2316eb2a7c4fc41af1dbddd7658712508ce2f3fd9",
}


@pytest.mark.parametrize("n", sorted(FAILING_VERIFY_DIGESTS))
def test_failing_verify_bytes(n, tmp_path, capsys):
    phi = totient_sieve(20)
    bfile = tmp_path / "b.csv"
    bfile.write_text("n,value\n" + "".join(
        f"{k},{phi.value(k) + (1 if k == n else 0)}/1\n" for k in range(1, 21)))
    out = tmp_path / "out.csv"
    code, _, err = run(["verify", "--seq", "mu", "--X", "20", "--b-file", str(bfile),
                        "-o", str(out)], capsys)
    assert code == 1
    assert err == f"FAIL: volterra[A=0/1] at x={n} (residual -1/1 + 0/1*A2 + 0/1*A1)\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FAILING_VERIFY_DIGESTS[n]


@pytest.mark.parametrize("name", ["verify_b_file", "table_mu_chi", "table_mu_chi_numeric",
                                  "solve_exact_complex_A", "sieve_file_gaussian"])
def test_stdout_matches_output_file(name, tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, _ = run(golden_argv(name, tmp_path) + ["-o", str(out)], capsys)
    code_stdout, stdout, _ = run(golden_argv(name, tmp_path), capsys)
    assert code_stdout == code == GOLDEN_OUTPUTS[name][1]
    assert stdout.encode() == out.read_bytes()


def test_field_needing_quotes_exits_4(tmp_path, monkeypatch, capsys):
    # the writer never quotes, so a field with a comma is a bug, not bad input
    monkeypatch.setattr(GaussianRational, "to_text", lambda self: "1/1,0/1")
    out = tmp_path / "out.csv"
    code, _, err = run(["sieve", "--N", "5", "-o", str(out)], capsys)
    assert code == cli.EXIT_INTERNAL
    assert "error: internal: UnquotableFieldError" in err
    assert out.read_text() == "n,value\n"


MOD4_CHARACTER = "residue,value\n0,0\n1,1\n2,0\n3,-1\n"


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "numeric", "--X", "10"],
    ["table", "--X", "10"],
    ["sieve", "--emit", "sequence", "--N", "10"],
    ["sieve", "--emit", "character"],
])
def test_d_and_chi_file_are_exclusive(argv, tmp_path, capsys):
    # with both, the suites would run on the file's character while the
    # growth row is keyed and checked by --D
    chi = tmp_path / "chi4.csv"
    chi.write_text(MOD4_CHARACTER)
    out = tmp_path / "out.csv"
    code, _, err = run(argv + ["--seq", "mu_chi", "--D", "-3", "--chi-file", str(chi),
                               "-o", str(out)], capsys)
    assert code == 2
    assert "--D and --chi-file" in err
    # either one alone is accepted
    for alone in (["--D", "-4"], ["--chi-file", str(chi)]):
        code, _, _ = run(argv + ["--seq", "mu_chi", *alone, "-o", str(out)], capsys)
        assert code == 0


@pytest.mark.parametrize("argv", [["verify", "--denom", "0"], ["table", "--denom", "0"],
                                  ["solve", "--input", "{dump}", "--denom", "0"],
                                  ["verify", "--X", "0"], ["table", "--X", "0"],
                                  ["table", "--precision", "0"],
                                  ["table", "--X", "2", "--precision", "nan"],
                                  ["sieve", "--seq", "file:{seq}", "--N", "0"],
                                  ["sieve", "--seq", "file:{seq}", "--N", "-3"]])
def test_bad_option_values_exit_2(argv, tmp_path, capsys):
    dump = tmp_path / "e.txt"
    dump.write_text(monomial(4, 2).dumps())
    seq = tmp_path / "s.csv"
    seq.write_text("n,value\n1,1\n2,-1\n")
    code, out, err = run([a.format(dump=dump, seq=seq) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:")


COMMON_OPTIONS = {"-h", "--help", "-o", "--output"}
SEQ_OPTIONS = {"--seq", "--D", "--chi-file"}
GRID_OPTIONS = {"--X", "--denom", "--mode"}
SURFACE = {
    "verify": COMMON_OPTIONS | SEQ_OPTIONS | GRID_OPTIONS | {"--A", "--b-file"},
    "table": COMMON_OPTIONS | SEQ_OPTIONS | GRID_OPTIONS | {"--precision"},
    # solve applies the resolvent to its dump and reads no sequence
    "solve": COMMON_OPTIONS | GRID_OPTIONS | {"--input", "--A"},
    "sieve": COMMON_OPTIONS | SEQ_OPTIONS | {"--N", "--emit"},
}


def _namespace_reads():
    """Attributes cli.py reads off the parsed namespace ``args`` outside
    _parse_args, which only checks and converts values."""
    tree = ast.parse(Path(cli.__file__).read_text())
    reads = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name != "_parse_args":
            reads |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id == "args"
                      and isinstance(n.ctx, ast.Load)}
    return reads


def test_option_surface():
    # each subcommand accepts exactly the options it reads, and cli.py reads
    # every option it declares
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(SURFACE)
    reads = _namespace_reads()
    for name, parser in subparsers.choices.items():
        options = [a for a in parser._actions if a.option_strings]
        assert {o for a in options for o in a.option_strings} == SURFACE[name], name
        assert {a.dest for a in options} - {"help"} - reads == set(), name


@pytest.mark.parametrize("argv", [["verify", "--precision", "1e-6"],
                                  ["solve", "--input", "e.dump", "--precision", "1e-6"],
                                  ["sieve", "--mode", "numeric"],
                                  ["sieve", "--precision", "1e-6"],
                                  ["table", "--b-file", "b.csv"],
                                  # solve reads no sequence
                                  ["solve", "--input", "e.dump", "--D", "-3"]])
def test_option_of_another_subcommand_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: unrecognized arguments")


@pytest.mark.parametrize("argv, missing", [(["solve"], "--input"), ([], "command")],
                         ids=["solve without --input", "empty argv"])
def test_missing_required_argument_returns_2(argv, missing, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: the following arguments are required: {missing}\n"


@pytest.mark.parametrize("argv", [["verify", "--D", "x"], ["verify", "--denom", "1.5"],
                                  ["sieve", "--N", "ten"], ["table", "--mode", "fast"],
                                  ["sieve", "--emit", "table"]])
def test_bad_typed_or_choice_value_returns_2(argv, capsys):
    # argparse's own type and choices checks end in main's error: line, not
    # in a SystemExit out of main
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: argument " + argv[1])


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "--help"])
    assert exc.value.code == 0
    assert "--precision" in capsys.readouterr().out


class TestVerify:
    def test_mu_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code, _, err = run(["verify", "--seq", "mu", "--X", "30",
                            "--A", "0", "--A", "1", "-o", str(out)], capsys)
        assert code == 0
        assert "PASS" in err
        rows = rows_of(out)
        assert rows[0] == ["identity", "x", "residual", "exact_zero"]
        assert all(r[3] == "true" for r in rows[1:])
        assert any(r[0] == "volterra[A=1/1]" for r in rows[1:])

    def test_twisted_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code, _, _ = run(["verify", "--seq", "mu_chi", "--D", "-3",
                          "--X", "20", "-o", str(out)], capsys)
        assert code == 0
        assert any(r[0] == "decomposition" for r in rows_of(out)[1:])

    def test_complex_a_flag(self, tmp_path, capsys):
        code, _, _ = run(["verify", "--seq", "mu", "--X", "10",
                          "--A", "3/2+1/2*i", "-o", str(tmp_path / "r.csv")], capsys)
        assert code == 0

    def test_tampered_pair_file_fails(self, tmp_path, capsys):
        mu = mobius_sieve(40)
        b = convolve_id(mu)
        bad = tmp_path / "bad.csv"
        with bad.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "a", "b"])
            for n in range(1, 41):
                bv = b.value(n) + (1 if n == 23 else 0)
                w.writerow([n, f"{mu.value(n)}/1", f"{bv}/1"])
        out = tmp_path / "rep.csv"
        code, _, err = run(["verify", "--seq", f"file:{bad}", "--X", "40",
                            "-o", str(out)], capsys)
        assert code == 1
        assert "FAIL" in err and "x=23" in err
        assert any(r[3] == "false" for r in rows_of(out)[1:])

    def test_b_file_override_fails(self, tmp_path, capsys):
        mu = mobius_sieve(30)
        b = convolve_id(mu)
        bfile = tmp_path / "b.csv"
        with bfile.open("w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["n", "value"])
            for n in range(1, 31):
                w.writerow([n, f"{b.value(n) + (2 if n == 19 else 0)}/1"])
        code, _, err = run(["verify", "--seq", "mu", "--X", "30",
                            "--b-file", str(bfile), "-o", str(tmp_path / "r.csv")], capsys)
        assert code == 1

    def test_rerun_bit_identical(self, tmp_path, capsys):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["verify", "--seq", "mu", "--X", "15", "-o", str(p1)], capsys)
        run(["verify", "--seq", "mu", "--X", "15", "-o", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_numeric_growth_row(self, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code, _, _ = run(["verify", "--seq", "mu", "--X", "10",
                          "--mode", "numeric", "-o", str(out)], capsys)
        assert code == 0
        growth = [r for r in rows_of(out)[1:] if r[0].startswith("growth")]
        assert growth and growth[0][3] == "true"

    def test_usage_errors(self, tmp_path, capsys):
        assert run(["verify", "--seq", "mu_chi", "--X", "10"], capsys)[0] == 2
        assert run(["verify", "--seq", "nope"], capsys)[0] == 2
        assert run(["verify", "--seq", "mu_chi", "--D", "9"], capsys)[0] == 2
        assert run(["verify", "--seq", "file:/does/not/exist.csv"], capsys)[0] == 2

    @pytest.mark.parametrize("row", ["1", "z,1", "1,1/2"],
                             ids=["short", "residue", "value"])
    def test_short_character_row_exits_2(self, tmp_path, capsys, row):
        chi = tmp_path / "chi.csv"
        chi.write_text(f"residue,value\n0,0\n{row}\n2,-1\n")
        code, _, err = run(["verify", "--seq", "mu_chi", "--chi-file", str(chi),
                            "--X", "5"], capsys)
        assert code == 2
        assert f"{chi}: row 2" in err

    def test_grid_over_cap_exits_2(self, monkeypatch, capsys):
        monkeypatch.setattr(decomposition, "_MAX_GRID_POINTS", 30)
        assert run(["verify", "--seq", "mu", "--X", "10"], capsys)[0] == 0
        code, _, err = run(["verify", "--seq", "mu", "--X", "10", "--denom", "4"], capsys)
        assert code == 2
        assert "has 40 points, more than the 30" in err

    def test_grid_cap_checked_before_the_case_is_built(self, monkeypatch, capsys):
        # the convolution and the split grow with X, so an over-cap grid is
        # refused before make_case runs
        monkeypatch.setattr(decomposition, "_MAX_GRID_POINTS", 30)

        def unreachable(*args, **kwargs):
            raise AssertionError("make_case ran for an over-cap grid")

        monkeypatch.setattr(cli, "make_case", unreachable)
        code, _, err = run(["verify", "--seq", "mu", "--X", "11"], capsys)
        assert code == 2
        assert "error: the grid k/3 on (0, 11] has 33 points, more than the 30" in err

    def test_domain_below_one_exits_2(self, capsys):
        code, _, err = run(["verify", "--seq", "mu", "--X", "1/3"], capsys)
        assert code == 2
        assert "X = 1/3" in err

    @pytest.mark.parametrize("argv", [["--seq", "mu", "--X", "5/2"],
                                      ["--seq", "mu_chi", "--D", "-3", "--X", "7/2"]])
    def test_non_integer_domain_end(self, argv, tmp_path, capsys):
        out = tmp_path / "rep.csv"
        code, _, _ = run(["verify"] + argv + ["-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)[1:]
        assert rows and all(r[3] == "true" for r in rows)
        # the default grid k/3 stops at the last point below X
        top = math.floor(3 * Fraction(argv[-1]))
        assert max(Fraction(r[1]) for r in rows) == Fraction(top, 3)

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        seq = tmp_path / "s.csv"
        seq.write_text("n,value\n1,1/1\n2,-1/1\n")
        code, _, err = run(["verify", "--seq", f"file:{seq}", "--X", "1/5"], capsys)
        assert code == 2
        assert err.startswith("error:") and "k/3" in err and "1/5" in err

    def test_file_sequence_without_domain_end_runs_to_its_length(self, tmp_path, capsys):
        # the default domain end 100 is cut to the file's 40 rows
        seq = tmp_path / "mu40.csv"
        write_sequence_csv(seq, mobius_sieve(40))
        out = tmp_path / "rep.csv"
        code, _, _ = run(["verify", "--seq", f"file:{seq}", "-o", str(out)], capsys)
        assert code == 0
        assert max(Fraction(r[1]) for r in rows_of(out)[1:]) == 40

    def test_internal_error_exits_4(self, monkeypatch, capsys):
        def crash(cfg):
            raise RuntimeError("boom")
        monkeypatch.setitem(cli._DISPATCH, "verify", crash)
        code, _, err = run(["verify", "--seq", "mu", "--X", "5"], capsys)
        assert code == cli.EXIT_INTERNAL == 4
        assert "error: internal: RuntimeError: boom" in err

    def test_build_error_exits_2_before_any_output(self, monkeypatch, tmp_path, capsys):
        # every residual function is built before -o is opened
        def log_case(*args):
            raise LogCaseError(3)
        monkeypatch.setattr(decomposition, "resolvent_function", log_case)
        out = tmp_path / "rep.csv"
        code, _, err = run(["verify", "--seq", "mu", "--X", "10", "-o", str(out)], capsys)
        assert code == 2
        assert "error: integrand has a t^-1 term on the interval (3, 4)" in err
        assert not out.exists()

    def test_internal_error_mid_stream_keeps_the_rows_before_it(self, monkeypatch, tmp_path,
                                                                capsys):
        # rows are written as they are computed, as table and sieve write
        # theirs, so a crash in the floor_summatory family leaves the seven
        # families before it (15 points each) in the file
        def crash(*args):
            raise RuntimeError("boom")
        monkeypatch.setattr(decomposition, "summatory_via_floor_identity", crash)
        out = tmp_path / "rep.csv"
        code, _, err = run(["verify", "--seq", "mu", "--X", "5", "-o", str(out)], capsys)
        assert code == cli.EXIT_INTERNAL
        assert "error: internal: RuntimeError: boom" in err
        rows = rows_of(out)
        assert len(rows) == 1 + 7 * 15 and rows[-1][0] == "uniqueness_surrogate"

    def test_memory_does_not_grow_per_row(self, tmp_path, capsys):
        # no row outlives its line: ten times the grid points costs at most
        # 0.5 kB per added point (the grid's own Fractions), where keeping
        # every row costs about 3 kB
        peaks = []
        for denom in (100, 1000):
            tracemalloc.start()
            try:
                code, _, _ = run(["verify", "--seq", "mu", "--X", "10", "--denom", str(denom),
                                  "-o", str(tmp_path / "rep.csv")], capsys)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] - peaks[0] <= 500 * (10 * 1000 - 10 * 100)


class TestTable:
    def test_row_count_and_modes(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["table", "--seq", "mu", "--X", "100", "--denom", "10",
                          "--mode", "numeric", "-o", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert len(comments) == 2 and "a2" in comments[0]
        assert data[0] == "x,E,E_AR,E_AN"
        assert len(data) - 1 == 1001

    def test_numeric_value_at_three_halves(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        run(["table", "--seq", "mu", "--X", "2", "--denom", "2",
             "--mode", "numeric", "-o", str(out)], capsys)
        for row in rows_of(out):
            if row and row[0] == "1.5":
                assert abs(float(row[1]) - 0.3161) < 1e-3
                break
        else:
            pytest.fail("row x=1.5 missing")

    def test_exact_mode_has_no_floats(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["table", "--seq", "mu", "--X", "3", "-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)
        assert all("A2" in r[1] for r in rows[1:])

    def test_twisted_table(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["table", "--seq", "mu_chi", "--D", "-4", "--X", "5",
                          "-o", str(out)], capsys)
        assert code == 0
        assert len(rows_of(out)) == 17  # header + 5*3 + 1

    def test_holds_no_split(self, tmp_path, capsys):
        # the table walks the split's pieces as they are made and holds two
        # of each part; building E, E_AR and E_AN first peaked at 2.6 MB
        out = str(tmp_path / "t.csv")
        argv = ["table", "--seq", "mu_chi", "--D", "-3", "--X", "3", "-o", out]
        run(argv, capsys)   # imports what a run imports, outside the trace
        argv[6] = "1000"
        tracemalloc.start()
        try:
            code, _, _ = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 500_000

    def test_precision_unattainable(self, tmp_path, capsys):
        code, _, err = run(["table", "--seq", "mu", "--X", "5", "--mode", "numeric",
                            "--precision", "1e-12", "-o", str(tmp_path / "t.csv")], capsys)
        assert code == 3

    def test_domain_below_one_exits_2(self, capsys):
        code, _, err = run(["table", "--seq", "mu", "--X", "1/2"], capsys)
        assert code == 2
        assert "X = 1/2" in err

    @pytest.mark.parametrize("argv", [["--seq", "mu", "--X", "5/2"],
                                      ["--seq", "mu_chi", "--D", "-3", "--X", "7/2"]])
    def test_non_integer_domain_end(self, argv, tmp_path, capsys):
        out = tmp_path / "t.csv"
        code, _, _ = run(["table"] + argv + ["-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)
        top = math.floor(3 * Fraction(argv[-1]))
        assert len(rows) == 1 + top + 1
        assert Fraction(rows[-1][0]) == Fraction(top, 3)

    def test_file_sequence_rejected(self, tmp_path, capsys):
        seq = tmp_path / "s.csv"
        seq.write_text("n,value\n1,1/1\n")
        code, _, _ = run(["table", "--seq", f"file:{seq}"], capsys)
        assert code == 2


class TestSolve:
    def test_square_input(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text(monomial(3, 2).dumps())
        out = tmp_path / "f.csv"
        code, _, _ = run(["solve", "--input", str(dump), "--X", "2", "--denom", "2",
                          "-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["x", "F", "residual", "exact_zero"]
        assert rows[-1][0] == "2" and rows[-1][1].startswith("8/1")
        assert all(r[3] == "true" for r in rows[1:])

    def test_error_term_dump_matches_solution(self, tmp_path, capsys):
        from errlab.volterra import build_error_term, build_fracpart_series, make_case
        from errlab.piecewise import Side
        case = make_case(mobius_sieve(10), 10)
        dump = tmp_path / "er.dump"
        dump.write_text(build_error_term(case).dumps())
        out = tmp_path / "f.csv"
        code, _, _ = run(["solve", "--input", str(dump), "-o", str(out)], capsys)
        assert code == 0
        h = build_fracpart_series(case)
        for row in rows_of(out)[1:]:
            x = Fraction(row[0])
            expect = h.eval_at(x, Side.RIGHT) * x
            assert row[1] == expect.to_text(), x

    def test_long_integer_dump(self, tmp_path, capsys):
        # a coefficient with a 5,001-digit numerator, past the 4,300 digits
        # Python parses by default, reads back as it was written
        v = ConstLinear(Fraction(-(10 ** 5000) - 1, 7))
        dump = tmp_path / "e.dump"
        dump.write_text(monomial(3, 2, v).dumps())
        out = tmp_path / "f.csv"
        code, _, _ = run(["solve", "--input", str(dump), "--denom", "2", "-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)[1:]
        # F = E + t * integral E/t^2 = 2 v t^2
        assert [r[1] for r in rows] == [(v * (2 * Fraction(k, 2) ** 2)).to_text()
                                        for k in range(1, 7)]
        assert all(r[3] == "true" for r in rows)

    def test_log_case_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text(monomial(3, 1).dumps())
        code, _, err = run(["solve", "--input", str(dump)], capsys)
        assert code == 2
        assert "t^-1" in err and "(0, 1)" in err

    def test_malformed_dump_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text("0: e9=1/1 + 0/1*A2 + 0/1*A1\n")
        assert run(["solve", "--input", str(dump)], capsys)[0] == 2

    def test_repeated_exponent_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text("X: 2\n0: e2=1/1 + 0/1*A2 + 0/1*A1; e2=5/1 + 0/1*A2 + 0/1*A1\n"
                        "1: e2=1/1 + 0/1*A2 + 0/1*A1\n")
        code, out, err = run(["solve", "--input", str(dump)], capsys)
        assert code == 2 and out == ""
        assert err == "error: line 2: exponent 2 given twice\n"

    def test_zero_denominator_domain_end_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text("X: 1/0\n0: e2=1/1 + 0/1*A2 + 0/1*A1\n")
        code, _, err = run(["solve", "--input", str(dump)], capsys)
        assert code == 2
        assert err.startswith("error:") and "1/0" in err

    def test_dump_without_domain_end_line(self, tmp_path, capsys):
        # X defaults to the piece count, so x = 2 has no right limit: the F
        # column takes the last piece there, as residual does
        dump = tmp_path / "e.dump"
        dump.write_text("0: e2=1/1 + 0/1*A2 + 0/1*A1\n1: e2=1/1 + 0/1*A2 + 0/1*A1\n")
        out = tmp_path / "f.csv"
        code, _, _ = run(["solve", "--input", str(dump), "-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[-1] == ["2", "8/1 + 0/1*A2 + 0/1*A1", "0/1 + 0/1*A2 + 0/1*A1", "true"]
        assert len(rows) == 1 + 6

    def test_numeric_needs_scalar_dump(self, tmp_path, capsys):
        from errlab.volterra import build_error_term, make_case
        dump = tmp_path / "er.dump"
        dump.write_text(build_error_term(make_case(mobius_sieve(10), 10)).dumps())
        code, _, err = run(["solve", "--input", str(dump), "--mode", "numeric"], capsys)
        assert code == 2
        assert err.startswith("error:") and "A2 or A1" in err
        dump.write_text(monomial(3, 2).dumps())
        out = tmp_path / "f.csv"
        code, _, _ = run(["solve", "--input", str(dump), "--mode", "numeric", "--X", "2",
                          "--denom", "2", "-o", str(out)], capsys)
        assert code == 0
        assert rows_of(out)[-1] == ["2.0", "8.0", "0.0", "true"]

    @pytest.mark.parametrize("dump_text, A", [
        (monomial(2, 2).dumps(), "0+1*i"),
        ("X: 2\n0: e2=1/1+1/1*i + 0/1*A2 + 0/1*A1\n1: e2=1/1 + 0/1*A2 + 0/1*A1\n", "0"),
    ], ids=["complex A", "complex dump"])
    def test_numeric_needs_real_values(self, dump_text, A, tmp_path, capsys):
        # a float column would drop the imaginary part of F
        dump = tmp_path / "e.dump"
        dump.write_text(dump_text)
        code, out, err = run(["solve", "--input", str(dump), "--A", A, "--mode", "numeric",
                              "--denom", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "real" in err

    def test_negative_exponent_at_zero_exits_2(self, tmp_path, capsys):
        # t^-1 on (0, 1) makes E(t)/t^2 non-integrable at 0+
        dump = tmp_path / "e.dump"
        dump.write_text("X: 2\n0: e-1=1/1 + 0/1*A2 + 0/1*A1\n1: e0=1/1 + 0/1*A2 + 0/1*A1\n")
        code, out, err = run(["solve", "--input", str(dump)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        dump = tmp_path / "e.dump"
        dump.write_text(monomial(3, 2).dumps())
        code, out, err = run(["solve", "--input", str(dump), "--X", "1/7"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "k/3" in err and "1/7" in err


class TestSieve:
    def test_sequence_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "mu.csv"
        code, _, _ = run(["sieve", "--seq", "mu", "--N", "50", "-o", str(out)], capsys)
        assert code == 0
        back, _ = read_sequence_csv(out)
        mu = mobius_sieve(50)
        assert all(back.value(n) == mu.value(n) for n in range(1, 51))
        # and the emitted file is accepted by verify
        code, _, _ = run(["verify", "--seq", f"file:{out}", "--X", "50",
                          "-o", str(tmp_path / "r.csv")], capsys)
        assert code == 0

    def test_character_emission(self, tmp_path, capsys):
        out = tmp_path / "chi.csv"
        code, _, _ = run(["sieve", "--seq", "mu_chi", "--D", "-3",
                          "--emit", "character", "-o", str(out)], capsys)
        assert code == 0
        assert rows_of(out) == [["residue", "value"], ["0", "0"], ["1", "1"], ["2", "-1"]]
        # usable as a custom character table
        code, _, _ = run(["verify", "--seq", "mu_chi", "--chi-file", str(out),
                          "--X", "10", "-o", str(tmp_path / "r.csv")], capsys)
        assert code == 0

    def test_stdout_default(self, capsys):
        code, out, _ = run(["sieve", "--seq", "mu", "--N", "4"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "n,value"
        assert out.splitlines()[2] == "2,-1/1"

    def test_file_sequence_cut_to_range(self, tmp_path, capsys):
        seq = tmp_path / "mu40.csv"
        write_sequence_csv(seq, mobius_sieve(40))
        out = tmp_path / "s.csv"
        code, _, _ = run(["sieve", "--seq", f"file:{seq}", "--N", "10", "-o", str(out)], capsys)
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["n", "value"] and len(rows) == 1 + 10
        assert rows[-1] == ["10", f"{mobius_sieve(10).value(10)}/1"]

    @pytest.mark.parametrize("argv", [["--seq", "mu", "--N", "30"],
                                      ["--seq", "mu_chi", "--D", "-3", "--N", "30"],
                                      ["--seq", "mu_chi", "--D", "-4", "--emit", "character"]])
    def test_stdout_bytes_equal_file_bytes(self, argv, tmp_path, capsysbinary):
        assert main(["sieve"] + argv) == 0
        printed = capsysbinary.readouterr().out
        out = tmp_path / "s.csv"
        assert main(["sieve"] + argv + ["-o", str(out)]) == 0
        assert printed == out.read_bytes()
