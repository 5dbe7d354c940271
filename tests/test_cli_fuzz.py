"""Malformed input files exit 2 with an ``error:`` line, never 4.

Each example takes a well-formed sequence CSV, character CSV or piecewise dump
and breaks it in one way that no reader may accept: a bad header, a short
row, a non-contiguous index, a ``1/0`` value, a bad exponent, out-of-order
pieces or bytes that are not UTF-8.
"""

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from errlab.cli import main
from errlab.piecewise import monomial
from errlab.sequences import kronecker_character

NOT_UTF8 = b"\xff\xfe"
ENTRY = "1/1 + 0/1*A2 + 0/1*A1"


def _join(lines):
    return ("\n".join(lines) + "\n").encode()


def _with_bytes(lines, row):
    """The file with bytes that are not UTF-8 at the start of line ``row``."""
    return _join(lines[:row]) + NOT_UTF8 + _join(lines[row:])


@st.composite
def sequence_csv(draw):
    """(argv, bytes) of a broken ``n,value`` file read by ``verify --seq file:``."""
    values = draw(st.lists(st.sampled_from(["1/1", "-1/1", "0/1", "1/2", "2/3+1/3*i"]),
                           min_size=2, max_size=6))
    lines = ["n,value"] + [f"{n},{v}" for n, v in enumerate(values, start=1)]
    row = draw(st.integers(min_value=1, max_value=len(values)))
    fault = draw(st.sampled_from(["header", "short", "index", "zero_den", "value", "bytes"]))
    if fault == "header":
        lines[0] = draw(st.text("nvalueab,; ", max_size=12).filter(
            lambda h: [f.strip() for f in h.split(",")] not in (["n", "value"],
                                                                 ["n", "a", "b"])))
    elif fault == "short":
        lines[row] = str(row)
    elif fault == "index":
        lines[row] = f"{draw(st.sampled_from([0, -1, row + 1, row + 7]))},1/1"
    elif fault == "zero_den":
        lines[row] = f"{row},1/0"
    elif fault == "value":
        lines[row] = f"{row},{draw(st.sampled_from(['1.5', 'x', '1/2*i', '', '1//2']))}"
    else:
        return fault, ["verify", "--seq", "file:{path}"], _with_bytes(lines, row)
    return fault, ["verify", "--seq", "file:{path}"], _join(lines)


@st.composite
def character_csv(draw):
    """(argv, bytes) of a broken ``residue,value`` file read by ``--chi-file``."""
    argv = ["sieve", "--seq", "mu_chi", "--chi-file", "{path}", "--emit", "character"]
    chi = kronecker_character(draw(st.sampled_from([-3, -4, 5, -7, 8])))
    lines = ["residue,value"] + [f"{r},{v}" for r, v in enumerate(chi.table)]
    row = draw(st.integers(min_value=1, max_value=chi.q))
    fault = draw(st.sampled_from(["header", "short", "index", "zero_den", "value", "bytes"]))
    if fault == "header":
        lines[0] = draw(st.text("residuevaln,; ", max_size=14).filter(
            lambda h: [f.strip() for f in h.split(",")] != ["residue", "value"]))
    elif fault == "short":
        lines[row] = str(row - 1)
    elif fault == "index":
        lines[row] = f"{draw(st.sampled_from([-1, row, row + 3]))},0"
    elif fault == "zero_den":
        lines[row] = f"{row - 1},1/0"
    elif fault == "value":
        # not a character: a value outside {-1, 0, 1}
        lines[row] = f"{row - 1},{draw(st.sampled_from([2, -2, 7]))}"
    else:
        return fault, argv, _with_bytes(lines, row)
    return fault, argv, _join(lines)


@st.composite
def piecewise_dump(draw):
    """(argv, bytes) of a broken dump read by ``solve --input``."""
    n = draw(st.integers(min_value=2, max_value=5))
    lines = monomial(n, 2).dumps().splitlines()   # "X: n", then pieces 0..n
    row = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    fault = draw(st.sampled_from(["header", "short", "order", "zero_den", "exponent",
                                  "domain", "bytes"]))
    if fault == "header":
        lines[draw(st.sampled_from([0, row]))] = draw(st.sampled_from(
            ["X: abc", "X: 1/0", "X:", "p: e2=" + ENTRY, "-: e2=" + ENTRY]))
    elif fault == "short":
        lines[row] = f"{row - 1}: e2=1/1 + 0/1*A2"
    elif fault == "order":
        other = draw(st.integers(min_value=1, max_value=len(lines) - 1).filter(
            lambda r: r != row))
        lines[row], lines[other] = lines[other], lines[row]
    elif fault == "zero_den":
        lines[row] = f"{row - 1}: e2=1/0 + 0/1*A2 + 0/1*A1"
    elif fault == "exponent":
        e = draw(st.sampled_from(["9", "-3", "x", "2.5", ""]))
        lines[row] = f"{row - 1}: e{e}={ENTRY}"
    elif fault == "domain":
        # an end past the pieces, or a non-positive one
        lines[0] = f"X: {draw(st.sampled_from([n + 2, 0, -1]))}"
    else:
        return fault, ["solve", "--input", "{path}"], _with_bytes(lines, row)
    return fault, ["solve", "--input", "{path}"], _join(lines)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(sequence_csv(), character_csv(), piecewise_dump()))
def test_malformed_file_exits_2(capsys, case):
    fault, argv, data = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        code = main([a.format(path=path) for a in argv])
    err = capsys.readouterr().err
    assert code == 2, (fault, data, err)
    assert any(line.startswith("error:") for line in err.splitlines()), (fault, err)
